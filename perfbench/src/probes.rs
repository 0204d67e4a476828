//! Per-layer probes for the traced run: the machine roof, raw kernels on a
//! pre-filled field, halo pack/unpack, and point-to-point messages. Each
//! probe calls the layer's public functions directly and records a span
//! per call.

use std::time::Instant;

use lbm_comm::{CostModel, Universe};
use lbm_core::boundary::BoundarySpec;
use lbm_core::field::{DistField, StorageMode};
use lbm_core::geometry::{Geometry, SparseTiles};
use lbm_core::index::Dim3;
use lbm_core::kernels::{self, sparse, KernelCtx, OptLevel, StreamTables};
use lbm_core::{init, Bgk};
use lbm_machine::roofline::{self, KernelTraffic};
use lbm_machine::{measure, MachineSpec};
use lbm_sim::config::SimConfig;
use lbm_sim::halo::{self, Side};

use crate::host::{median, secs};
use crate::report::Report;
use crate::trace::{Lane, Tracer};

/// Wall seconds each raw-kernel measurement runs for.
const KERNEL_SECS: f64 = 0.6;

/// The measured roof: STREAM triad on 1 and `threads` threads over a
/// working set of at least 4× the LLC, and the FMA peak.
pub struct Roof {
    pub triad_gbs: f64,
    pub peak_gflops: f64,
}

pub fn machine(rep: &mut Report, tr: &mut Tracer, threads: usize, llc: u64) -> Roof {
    let total_mib = (4 * llc).div_ceil(1 << 20) as usize;
    let t1 = tr.span("machine.triad_1t", "machine", || {
        measure::stream_triad_gbs(1, total_mib, 3)
    });
    let tn = tr.span("machine.triad_nt", "machine", || {
        measure::stream_triad_gbs(threads, total_mib.div_ceil(threads), 3)
    });
    let peak = tr.span("machine.peak_fma", "machine", || {
        measure::peak_gflops(threads, 40)
    });
    rep.set("machine.triad_gbs_1t", t1);
    rep.set("machine.triad_gbs_2t", tn);
    rep.set("machine.peak_gflops", peak);
    Roof {
        triad_gbs: tn,
        peak_gflops: peak,
    }
}

/// Run `step` repeatedly for [`KERNEL_SECS`], one span per call; returns
/// the number of calls and their total seconds.
fn timed_loop(tr: &mut Tracer, name: &str, mut step: impl FnMut(usize)) -> (u64, f64) {
    let t0 = Instant::now();
    let mut n = 0u64;
    while secs(t0) < KERNEL_SECS || n < 2 {
        let id = tr.begin(name, "kernels");
        step(n as usize);
        tr.end(id);
        n += 1;
    }
    (n, secs(t0))
}

/// Record the kernel metrics from 1-thread and `threads`-thread rates and
/// the computed bytes per update.
fn kernel_metrics(
    rep: &mut Report,
    roof: &Roof,
    threads: usize,
    mflups_1t: f64,
    mflups_nt: f64,
    traffic: KernelTraffic,
) {
    let spec = MachineSpec::host(roof.peak_gflops, roof.triad_gbs, threads);
    let attainable = roofline::attainable(&spec, &traffic).mflups();
    rep.set("kernels.mflups", mflups_nt);
    rep.set("kernels.mflups_1t", mflups_1t);
    rep.set("kernels.thread_speedup", mflups_nt / mflups_1t);
    rep.set(
        "kernels.model_gbs",
        mflups_nt * traffic.bytes_per_cell / 1e3,
    );
    rep.set("kernels.fraction_of_roof", mflups_nt / attainable);
    rep.notes.push(format!(
        "kernels: {:.0} B/update (computed by lbm_core::perf), roof {:.1} MFlup/s",
        traffic.bytes_per_cell, attainable
    ));
}

/// The paper's flop count per update (Table II) for the two lattices the
/// kernel probes run.
fn flops_per_update(q: usize) -> usize {
    let t = if q == 39 {
        KernelTraffic::d3q39()
    } else {
        KernelTraffic::d3q19()
    };
    t.flops_per_cell as usize
}

fn ctx_of(cfg: &SimConfig) -> KernelCtx {
    KernelCtx::new(
        cfg.lattice,
        cfg.eq_order(),
        Bgk::new(cfg.tau).expect("validated tau"),
    )
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// Dense AA pair (even + periodic odd sweep) on a pre-filled field of the
/// workload's full box, serial and threaded.
pub fn dense_aa(rep: &mut Report, tr: &mut Tracer, roof: &Roof, cfg: &SimConfig, threads: usize) {
    let ctx = ctx_of(cfg);
    let h = cfg.halo_width();
    let g = cfg.global;
    let mut f = tr.span("init.prefill", "init", || {
        let mut f = DistField::new(ctx.lat.q(), g, h).expect("probe field");
        init::taylor_green_streamed(&ctx, &mut f, 1.0, 0.02, g, 0);
        f
    });
    let tables = StreamTables::new(g.ny, g.nz);
    let bounds = BoundarySpec::periodic();
    let (lo, hi) = (h, h + g.nx);
    let lvl = cfg.level;
    let cells = g.len() as f64;
    let (n1, s1) = timed_loop(tr, "kernels.aa_pair_1t", |_| {
        kernels::aa_even_scenario(lvl, &ctx, &mut f, lo, hi, [0.0; 3], &bounds);
        kernels::aa_odd_scenario_periodic(lvl, &ctx, &tables, &mut f, lo, hi, [0.0; 3], &bounds);
    });
    let p = pool(threads);
    let (nn, sn) = timed_loop(tr, "kernels.aa_pair_par", |_| {
        p.install(|| {
            kernels::aa_even_scenario_par(lvl, &ctx, &mut f, lo, hi, [0.0; 3], &bounds);
            kernels::aa_odd_scenario_periodic_par(
                lvl, &ctx, &tables, &mut f, lo, hi, [0.0; 3], &bounds,
            );
        })
    });
    let q = ctx.lat.q();
    kernel_metrics(
        rep,
        roof,
        threads,
        2.0 * cells * n1 as f64 / s1 / 1e6,
        2.0 * cells * nn as f64 / sn / 1e6,
        KernelTraffic::lbm(q, flops_per_update(q), StorageMode::InPlaceAa),
    );
}

/// One rank's slab of the decomposed box (owned planes plus halos).
fn rank_slab(cfg: &SimConfig, ctx: &KernelCtx) -> DistField {
    let g = cfg.global;
    let owned = Dim3::new(g.nx / cfg.ranks, g.ny, g.nz);
    let h = cfg.halo_width();
    let mut f = DistField::new(ctx.lat.q(), owned, h).expect("slab field");
    init::taylor_green(ctx, &mut f, 1.0, 0.02, g.nx, g.ny, 0, h);
    halo::fill_periodic_self(&mut f, h);
    f
}

/// Fused two-grid stream+collide over one rank's slab, serial and threaded.
pub fn fused_two_grid(
    rep: &mut Report,
    tr: &mut Tracer,
    roof: &Roof,
    cfg: &SimConfig,
    threads: usize,
) {
    let ctx = ctx_of(cfg);
    let (mut src, mut dst) = tr.span("init.prefill", "init", || {
        let f = rank_slab(cfg, &ctx);
        (f.clone(), f)
    });
    let d = src.owned_dims();
    let tables = StreamTables::new(d.ny, d.nz);
    let (lo, hi) = (src.owned_x().start, src.owned_x().end);
    let cells = d.len() as f64;
    let (n1, s1) = timed_loop(tr, "kernels.fused_1t", |_| {
        kernels::stream_collide(OptLevel::Fused, &ctx, &tables, &src, &mut dst, lo, hi);
        std::mem::swap(&mut src, &mut dst);
    });
    let p = pool(threads);
    let (nn, sn) = timed_loop(tr, "kernels.fused_par", |_| {
        p.install(|| kernels::par::stream_collide_par(&ctx, &tables, &src, &mut dst, lo, hi));
        std::mem::swap(&mut src, &mut dst);
    });
    let q = ctx.lat.q();
    kernel_metrics(
        rep,
        roof,
        threads,
        cells * n1 as f64 / s1 / 1e6,
        cells * nn as f64 / sn / 1e6,
        KernelTraffic::lbm(q, flops_per_update(q), StorageMode::TwoGrid),
    );
}

/// Sparse AA pair over the whole-box tile list of `geom`, serial and
/// threaded; also times the tiling itself and reports its shape.
pub fn sparse_aa(
    rep: &mut Report,
    tr: &mut Tracer,
    roof: &Roof,
    cfg: &SimConfig,
    geom: &Geometry,
    threads: usize,
) {
    let ctx = ctx_of(cfg);
    let t0 = Instant::now();
    let tiles = tr.span("geometry.tiles", "geometry", || {
        SparseTiles::build_serial(geom).expect("tiling")
    });
    rep.set("geometry.tiles_s", secs(t0));
    rep.set("geometry.tiles", tiles.tile_count() as f64);
    rep.set(
        "geometry.full_tile_frac",
        tiles.fast_owned.len() as f64 / tiles.owned_tiles.max(1) as f64,
    );
    rep.set("geometry.fluid_frac", geom.fluid_fraction());
    let gt = sparse::GatherTable::new(&ctx.lat);
    let mut f = tr.span("init.prefill", "init", || {
        let mut f =
            sparse::SparseField::new(ctx.lat.q(), tiles.tile_count()).expect("sparse field");
        sparse::init_equilibrium_aa(&ctx, &tiles, &mut f, cfg.global, |_, _, _| (1.0, [0.0; 3]));
        f
    });
    let g = [1e-6, 0.0, 0.0];
    let simd = cfg.level >= OptLevel::Simd;
    let cells = tiles.owned_fluid_cells as f64;
    let (n1, s1) = timed_loop(tr, "kernels.sparse_aa_pair_1t", |_| {
        sparse::aa_even_step(&ctx, &tiles, &mut f, g, simd);
        sparse::aa_odd_step(&ctx, &tiles, &gt, &mut f, g, simd);
    });
    let p = pool(threads);
    let (nn, sn) = timed_loop(tr, "kernels.sparse_aa_pair_par", |_| {
        p.install(|| {
            sparse::aa_even_step_par(&ctx, &tiles, &mut f, g, simd);
            sparse::aa_odd_step_par(&ctx, &tiles, &gt, &mut f, g, simd);
        })
    });
    let q = ctx.lat.q();
    kernel_metrics(
        rep,
        roof,
        threads,
        2.0 * cells * n1 as f64 / s1 / 1e6,
        2.0 * cells * nn as f64 / sn / 1e6,
        KernelTraffic::lbm_sparse(q, flops_per_update(q), StorageMode::InPlaceAa),
    );
}

/// Halo pack/unpack of one rank's borders (`halo::{pack_border,
/// unpack_halo}`) on the workload's slab, and the packed bytes each step
/// exchanges across all ranks.
pub fn halo_pack(rep: &mut Report, tr: &mut Tracer, cfg: &SimConfig) -> usize {
    let ctx = ctx_of(cfg);
    let mut f = tr.span("init.prefill", "init", || rank_slab(cfg, &ctx));
    let h = cfg.halo_width();
    let len = halo::packed_len(&f, h);
    let mut buf = Vec::with_capacity(len);
    let (mut pack_s, mut unpack_s, mut n) = (0.0, 0.0, 0u64);
    let t0 = Instant::now();
    while secs(t0) < KERNEL_SECS / 2.0 {
        let side = if n % 2 == 0 { Side::Left } else { Side::Right };
        let a = Instant::now();
        tr.span("halo.pack_border", "halo", || {
            halo::pack_border(&f, side, h, &mut buf)
        });
        let b = Instant::now();
        tr.span("halo.unpack_halo", "halo", || {
            halo::unpack_halo(&mut f, side.opposite(), h, &buf)
        });
        pack_s += b.duration_since(a).as_secs_f64();
        unpack_s += secs(b);
        n += 1;
    }
    let bytes = (len * 8) as f64 * n as f64;
    rep.set("halo.pack_gbs", bytes / pack_s / 1e9);
    rep.set("halo.unpack_gbs", bytes / unpack_s / 1e9);
    // Every rank sends both borders once per ghost-depth cycle.
    let per_step = 2 * cfg.ranks * len * 8 / cfg.ghost_depth.max(1);
    rep.set("halo.bytes_per_step", per_step as f64);
    len
}

/// Point-to-point messages of `len` doubles between two ranks through
/// `lbm_comm` `isend`/`irecv`/`wait`, one span per message on each rank's
/// lane.
pub fn comm_messages(rep: &mut Report, tr: &mut Tracer, len: usize) {
    const MESSAGES: usize = 400;
    let parent = tr.begin("comm.ping", "comm");
    let mut comms = Universe::endpoints(2, CostModel::free());
    let stamps: Vec<Vec<(Instant, Instant)>> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter_mut()
            .map(|comm| {
                s.spawn(move || {
                    let peer = 1 - comm.rank();
                    let mut buf = vec![1.0f64; len];
                    let mut out = Vec::with_capacity(MESSAGES);
                    for i in 0..MESSAGES {
                        let a = Instant::now();
                        let _sent = comm.isend(peer, i as u64, buf).expect("isend");
                        let req = comm.irecv(peer, i as u64).expect("irecv");
                        buf = comm.wait(req).expect("wait");
                        out.push((a, Instant::now()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("comm probe rank"))
            .collect()
    });
    let mut us = Vec::new();
    for (rank, list) in stamps.iter().enumerate() {
        for &(a, b) in list {
            us.push(b.duration_since(a).as_secs_f64() * 1e6);
            tr.add("comm.message", "comm", Lane::Rank(rank), a, b, parent, 0.5);
        }
    }
    tr.end(parent);
    rep.set("comm.msg_us_p50", median(&us));
}
