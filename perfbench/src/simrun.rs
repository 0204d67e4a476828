//! The three `Simulation` workloads: build once per set-up, then advance in
//! `Simulation::run(k)` chunks timed by the benchmark's own clock.

use std::time::Instant;

use lbm_core::analytic::viscous_decay;
use lbm_core::field::StorageMode;
use lbm_core::geometry::Geometry;
use lbm_core::index::Dim3;
use lbm_core::kernels::OptLevel;
use lbm_core::lattice::{Lattice, LatticeKind};
use lbm_core::Bgk;
use lbm_sim::config::SimConfig;
use lbm_sim::{CommStrategy, ForcedFlow, Probe, RunReport, Simulation, TaylorGreen};

use crate::host::{median, quantile, secs, Rng};
use crate::probes::{self, Roof};
use crate::report::Report;
use crate::trace::{Lane, Tracer};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed chunks before the timed span (caches and branch predictors).
const WARMUP_SECS: f64 = 0.3;

/// Relative tolerance of the Taylor–Green amplitude against
/// `viscous_decay`: the 3% the repository's own distributed viscosity test
/// allows. At these box sizes D3Q19 lands within 0.1%, D3Q39 on its 32²
/// cross-section within about 2% (lattice corrections grow with k²).
const DECAY_TOL: f64 = 0.03;
/// Bound on relative mass drift over a run.
const MASS_TOL: f64 = 1e-9;

/// Which of the three `Simulation` workloads, with its seeded inputs.
pub enum Case {
    /// D3Q19 AA Taylor–Green, populations ≥ 4× LLC, 1 rank × 2 threads.
    DenseAaDram { global: Dim3, u0: f64 },
    /// D3Q39 two-grid fused GC-C Taylor–Green, 2 ranks × 1 thread, thin
    /// cache-resident slabs.
    HaloQ39 { global: Dim3, u0: f64 },
    /// D3Q19 sparse AA porous bed, forced flow, 1 rank × 2 threads.
    SparsePorous { global: Dim3, geo_seed: u64 },
}

const TG_TAU: f64 = 0.6;
const POROUS_FLUID: f64 = 0.30;
const POROUS_BLOB_R: f64 = 3.0;
const POROUS_FORCE: f64 = 1e-6;

impl Case {
    /// Inputs for `workload` from `seed`, sized against the LLC.
    pub fn new(workload: &str, seed: u64, llc: u64) -> Option<Self> {
        let mut rng = Rng::new(seed);
        let u0 = rng.uniform(0.01, 0.03);
        Some(match workload {
            "dense_aa_dram" => {
                // Population bytes at least 4× the LLC: 19 doubles per cell,
                // a 128×128 Taylor–Green cross-section, nz to fit.
                let cells = (4.25 * llc as f64 / (19.0 * 8.0)).ceil() as usize;
                let nz = cells.div_ceil(128 * 128).clamp(8, 1024);
                Case::DenseAaDram {
                    global: Dim3::new(128, 128, nz),
                    u0,
                }
            }
            "halo_q39_2rank" => {
                // Two 16-plane slabs with 3-plane halos on a 32×32
                // Taylor–Green cross-section (the vortex is divergence-free
                // only with equal x and y wavelengths); nz is the largest
                // multiple of 8 keeping both two-grid fields, owned plus
                // halo planes, within half the LLC.
                let per_z = ((32 + 2 * 2 * 3) * 32 * 39 * 8 * 2) as f64;
                let nz = ((0.5 * llc as f64 / per_z) as usize / 8 * 8).clamp(8, 64);
                Case::HaloQ39 {
                    global: Dim3::new(32, 32, nz),
                    u0,
                }
            }
            "sparse_porous_aa" => {
                // A cube sized like the dense workload (dense populations
                // ≥ 4× the LLC; at 30% fluid nearly every tile is
                // allocated), so each threaded kernel call runs for
                // milliseconds and the workload does not sit in the LLC
                // other tenants share.
                let edge = (4.25 * llc as f64 / (19.0 * 8.0)).cbrt() / 8.0;
                let edge = (edge.round() as usize * 8).clamp(32, 256);
                Case::SparsePorous {
                    global: Dim3::cube(edge),
                    geo_seed: rng.next_u64(),
                }
            }
            _ => return None,
        })
    }

    /// Steps per `Simulation::run` call.
    fn chunk_steps(&self) -> usize {
        match self {
            Case::DenseAaDram { .. } => 2,
            Case::HaloQ39 { .. } | Case::SparsePorous { .. } => 8,
        }
    }

    fn geometry(&self) -> Option<lbm_core::Result<Geometry>> {
        match self {
            Case::SparsePorous { global, geo_seed } => Some(Geometry::porous(
                *global,
                POROUS_BLOB_R,
                POROUS_FLUID,
                *geo_seed,
            )),
            _ => None,
        }
    }

    fn build(&self, geom: Option<Geometry>, threads: usize) -> Result<Simulation, String> {
        let b = match *self {
            Case::DenseAaDram { global, u0 } => Simulation::builder(LatticeKind::D3Q19, global)
                .scenario(TaylorGreen::new(u0))
                .tau(TG_TAU)
                .storage(StorageMode::InPlaceAa)
                .level(OptLevel::Fused)
                .ranks(1)
                .threads(threads),
            Case::HaloQ39 { global, u0 } => Simulation::builder(LatticeKind::D3Q39, global)
                .scenario(TaylorGreen::new(u0))
                .tau(TG_TAU)
                .storage(StorageMode::TwoGrid)
                .level(OptLevel::Fused)
                .strategy(CommStrategy::OverlapGhostCollide)
                .ghost_depth(1)
                .ranks(2)
                .threads(1),
            Case::SparsePorous { global, .. } => Simulation::builder(LatticeKind::D3Q19, global)
                .scenario(ForcedFlow::new(POROUS_FORCE))
                .storage(StorageMode::InPlaceAa)
                .level(OptLevel::Simd)
                .ranks(1)
                .threads(threads)
                .geometry(geom.ok_or("porous workload needs its geometry")?),
        };
        b.warmup(0).build().map_err(|e| e.to_string())
    }

    /// Viscosity and wavenumbers of the Taylor–Green cases.
    fn decay_rate(&self) -> Option<(f64, f64, f64)> {
        let (global, lattice) = match self {
            Case::DenseAaDram { global, .. } => (global, LatticeKind::D3Q19),
            Case::HaloQ39 { global, .. } => (global, LatticeKind::D3Q39),
            Case::SparsePorous { .. } => return None,
        };
        let nu = Bgk::new(TG_TAU)
            .expect("tau")
            .viscosity(Lattice::new(lattice).cs2());
        let k = |n: usize| 2.0 * std::f64::consts::PI / n as f64;
        Some((nu, k(global.nx), k(global.ny)))
    }

    /// Step at which the Taylor–Green amplitude has halved.
    fn half_life_step(&self) -> Option<u64> {
        self.decay_rate()
            .map(|(nu, kx, ky)| (2f64.ln() / (nu * (kx * kx + ky * ky))).ceil() as u64)
    }

    /// Physics checks: mass between the first and last probe, the
    /// Taylor–Green amplitude between the first probe and `pd` (the
    /// warm-up probe, else the last).
    fn check(&self, sim: &mut Simulation, p0: &Probe, pd: &Probe, p1: &Probe, rep: &mut Report) {
        let drift = ((p1.mass - p0.mass) / p0.mass).abs();
        rep.check(
            "mass_drift",
            drift < MASS_TOL,
            format!(
                "relative drift {drift:.3e} over {} steps",
                p1.step - p0.step
            ),
        );
        match self {
            Case::DenseAaDram { .. } | Case::HaloQ39 { .. } => {
                let (nu, kx, ky) = self.decay_rate().expect("Taylor–Green case");
                let expect = viscous_decay(nu, kx, ky, (pd.step - p0.step) as f64);
                let got = pd.max_speed / p0.max_speed;
                let err = (got / expect - 1.0).abs();
                rep.check(
                    "taylor_green_decay",
                    err < DECAY_TOL,
                    format!(
                        "max_speed ratio {got:.6} vs viscous_decay {expect:.6} after {} steps (rel err {err:.2e})",
                        pd.step - p0.step
                    ),
                );
            }
            Case::SparsePorous { .. } => {
                let finite = sim.all_finite().unwrap_or(false);
                rep.check("all_finite", finite, "sparse populations finite");
            }
        }
    }

    /// Raw-kernel, halo and comm probes for this workload's layers.
    fn probe_layers(
        &self,
        rep: &mut Report,
        tr: &mut Tracer,
        roof: &Roof,
        cfg: &SimConfig,
        geom: Option<&Geometry>,
        threads: usize,
    ) {
        match self {
            Case::DenseAaDram { .. } => probes::dense_aa(rep, tr, roof, cfg, threads),
            Case::HaloQ39 { .. } => {
                probes::fused_two_grid(rep, tr, roof, cfg, threads);
                let len = probes::halo_pack(rep, tr, cfg);
                probes::comm_messages(rep, tr, len);
            }
            Case::SparsePorous { .. } => {
                let geom = geom.expect("porous geometry kept for the probes");
                probes::sparse_aa(rep, tr, roof, cfg, geom, threads);
            }
        }
    }
}

/// Timings of one set-up.
struct Setup {
    voxel_s: f64,
    build_s: f64,
    materialise_s: f64,
    total_s: f64,
}

/// Geometry → `SimulationBuilder::build` → engine materialisation.
fn setup(
    case: &Case,
    tr: &mut Tracer,
    threads: usize,
) -> Result<(Simulation, Option<Geometry>, Setup), String> {
    let t0 = Instant::now();
    let geom = tr
        .span("geometry.voxel", "geometry", || case.geometry())
        .transpose()
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut sim = tr.span("sim.build", "sim", || case.build(geom.clone(), threads))?;
    let t2 = Instant::now();
    tr.span("sim.materialise", "sim", || sim.run_local(0))
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok((
        sim,
        geom,
        Setup {
            voxel_s: s(t0, t1),
            build_s: s(t1, t2),
            materialise_s: s(t2, t3),
            total_s: s(t0, t3),
        },
    ))
}

/// What a span of `Simulation::run` chunks measured.
#[derive(Default)]
struct Chunks {
    /// Outside wall seconds per call.
    walls: Vec<f64>,
    /// `RunReport::wall_secs` per call.
    report_walls: Vec<f64>,
    updates: u64,
    steps: u64,
    span_s: f64,
    errors: u64,
    /// Per rank: compute seconds and comm seconds, summed over calls.
    compute: Vec<f64>,
    comm: Vec<f64>,
    messages: u64,
    bytes: u64,
    resident_bytes: u64,
}

impl Chunks {
    /// Updates per chunk over the first-quartile chunk wall. Noise only
    /// ever adds time, and on `halo_q39_2rank` a fifth to three fifths of
    /// the calls (varying run to run) run both rank threads on one core at
    /// twice the wall, so the median sits on the edge of the fast mode; the
    /// first quartile stays inside it and still moves with any change to
    /// the program's own cost.
    fn mflups(&self) -> f64 {
        self.updates as f64 / self.walls.len() as f64 / quantile(&self.walls, 0.25) / 1e6
    }

    /// Updates over the whole timed span.
    fn span_mflups(&self) -> f64 {
        self.updates as f64 / self.span_s / 1e6
    }

    /// Quantile `p` of the chunk wall in ms.
    fn ms(&self, p: f64) -> f64 {
        quantile(&self.walls, p) * 1e3
    }

    /// The same throughput three ways: as `RunReport` times it, and by the
    /// benchmark's clock over the span and per median chunk; and the chunk
    /// tail.
    fn note(&self, k: usize) -> String {
        format!(
            "chunks: {} calls of run({k}), {} steps, {:.3} s timed; MFlup/s by RunReport {:.3}, \
             by wall over the span {:.3}, by first-quartile chunk wall {:.3}; chunk p50 {:.3} ms, \
             p90 {:.3} ms",
            self.walls.len(),
            self.steps,
            self.span_s,
            self.updates as f64 / self.report_walls.iter().sum::<f64>() / 1e6,
            self.span_mflups(),
            self.mflups(),
            self.ms(0.5),
            self.ms(0.9)
        )
    }

    /// Fold in the chunk walls and updates of another span.
    fn absorb_all(&mut self, other: Chunks) {
        self.walls.extend(other.walls);
        self.updates += other.updates;
    }

    fn absorb(&mut self, rep: &RunReport, wall: f64) {
        self.walls.push(wall);
        self.report_walls.push(rep.wall_secs);
        self.steps += rep.steps as u64;
        self.compute.resize(rep.per_rank.len(), 0.0);
        self.comm.resize(rep.per_rank.len(), 0.0);
        self.resident_bytes = 0;
        for (r, rr) in rep.per_rank.iter().enumerate() {
            self.updates += rr.updates;
            self.compute[r] += rr.compute_secs;
            self.comm[r] += rr.comm_secs();
            self.messages += rr.messages;
            self.bytes += rr.bytes;
            self.resident_bytes += rr.resident_bytes;
        }
    }
}

/// Advance in chunks of `k` steps for `seconds`; with tracing on, each call
/// is a `sim` span with its ranks' compute and comm time (from
/// `RunReport::per_rank`) drawn as children on the rank lanes.
fn run_chunks(sim: &mut Simulation, k: usize, seconds: f64, tr: &mut Tracer) -> Chunks {
    let mut c = Chunks::default();
    let t0 = Instant::now();
    while secs(t0) < seconds {
        let a = Instant::now();
        let r = sim.run(k);
        let b = Instant::now();
        match r {
            Ok(rep) => {
                c.absorb(&rep, b.duration_since(a).as_secs_f64());
                if tr.enabled() {
                    trace_chunk(tr, &rep, a, b);
                }
            }
            Err(_) => c.errors += 1,
        }
    }
    c.span_s = secs(t0);
    c
}

fn trace_chunk(tr: &mut Tracer, rep: &RunReport, a: Instant, b: Instant) {
    let id = tr.add("sim.run", "sim", Lane::Main, a, b, tr.current(), 1.0);
    let share = 1.0 / rep.per_rank.len() as f64;
    let dur = b.duration_since(a).as_secs_f64();
    for rr in &rep.per_rank {
        // The ranks' timed phase sits inside the call; centre it, compute
        // first, then the summed communication wait.
        let lead = ((dur - rr.wall_secs) / 2.0).max(0.0);
        let s0 = a + std::time::Duration::from_secs_f64(lead);
        let s1 = s0 + std::time::Duration::from_secs_f64(rr.compute_secs);
        let s2 = s1 + std::time::Duration::from_secs_f64(rr.comm_secs());
        let lane = Lane::Rank(rr.rank);
        tr.add("rank.compute", "rank", lane, s0, s1.min(b), id, share);
        tr.add("comm.wait", "comm", lane, s1.min(b), s2.min(b), id, share);
    }
}

/// Untimed chunks before the timed span. The Taylor–Green amplitude is
/// probed once the trajectory passes `probe_at`, so fast-decaying cases are
/// checked while the amplitude is still well above round-off.
fn warmup(
    sim: &mut Simulation,
    k: usize,
    tr: &mut Tracer,
    probe_at: Option<u64>,
) -> Result<Option<Probe>, String> {
    let id = tr.begin("warmup", "sim");
    let t0 = Instant::now();
    let mut mid = None;
    while secs(t0) < WARMUP_SECS {
        sim.run(k).map_err(|e| e.to_string())?;
        if mid.is_none() && probe_at.is_some_and(|s| sim.steps_done() >= s) {
            mid = Some(sim.probe().map_err(|e| e.to_string())?);
        }
    }
    tr.end(id);
    Ok(mid)
}

/// Run one `Simulation` workload. Untraced: several set-ups (median
/// `setup_s`), then chunks for the whole `--seconds`. Traced: an untraced
/// reference span first, then the traced workload — set-up, chunks,
/// checks and the layer probes — under one root span.
pub fn run(case: &Case, args: &Args, rep: &mut Report) -> Result<(), String> {
    let threads = args.threads;
    let k = case.chunk_steps();
    if !args.trace {
        let mut setups = Vec::new();
        let mut off = Tracer::new(false);
        let mut sim = None;
        for _ in 0..SETUPS {
            drop(sim.take()); // free the previous engine before building the next
            let (s, _, st) = setup(case, &mut off, threads)?;
            setups.push(st.total_s);
            sim = Some(s);
        }
        let mut sim = sim.expect("at least one set-up");
        let p0 = sim.probe().map_err(|e| e.to_string())?;
        let mid = warmup(&mut sim, k, &mut off, case.half_life_step())?;
        let c = run_chunks(&mut sim, k, args.seconds, &mut off);
        let p1 = sim.probe().map_err(|e| e.to_string())?;
        rep.ops(c.walls.len() as u64 + c.errors, c.errors);
        case.check(&mut sim, &p0, mid.as_ref().unwrap_or(&p1), &p1, rep);
        rep.resident_bytes = c.resident_bytes;
        rep.set("mflups", c.mflups());
        rep.set("chunk_ms_p25", c.ms(0.25));
        rep.set("setup_s", median(&setups));
        rep.notes.push(c.note(k));
        return Ok(());
    }

    // Untraced reference quarters before and after the traced half, so a
    // drift of the host over the run cancels out of `trace.overhead_frac`.
    let half = args.seconds / 2.0;
    let reference = |secs: f64| -> Result<Chunks, String> {
        let mut off = Tracer::new(false);
        let (mut sim, _, _) = setup(case, &mut off, threads)?;
        warmup(&mut sim, k, &mut off, None)?;
        Ok(run_chunks(&mut sim, k, secs, &mut off))
    };
    let before = reference(half / 2.0)?;

    let tr = &mut Tracer::new(true);
    let root = tr.begin("workload", "bench");
    let (mut sim, geom, st) = setup(case, tr, threads)?;
    let p0 = tr
        .span("sim.probe", "sim", || sim.probe())
        .map_err(|e| e.to_string())?;
    let mid = warmup(&mut sim, k, tr, case.half_life_step())?;
    let c = run_chunks(&mut sim, k, half, tr);
    let p1 = tr
        .span("sim.probe", "sim", || sim.probe())
        .map_err(|e| e.to_string())?;
    rep.ops(c.walls.len() as u64 + c.errors, c.errors);
    tr.span("checks", "sim", || {
        case.check(&mut sim, &p0, mid.as_ref().unwrap_or(&p1), &p1, rep)
    });
    let cfg = sim.config().clone();
    tr.span("sim.drop", "sim", || drop(sim));
    let roof = probes::machine(rep, tr, threads, args.llc);
    case.probe_layers(rep, tr, &roof, &cfg, geom.as_ref(), threads);
    tr.end(root);

    rep.resident_bytes = c.resident_bytes;
    rep.notes.push(c.note(k));
    if geom.is_some() {
        rep.set("geometry.voxel_s", st.voxel_s);
    }
    rep.set("sim.build_s", st.build_s);
    rep.set("sim.materialise_s", st.materialise_s);
    let overhead: Vec<f64> = c
        .walls
        .iter()
        .zip(&c.report_walls)
        .map(|(w, r)| (w - r) * 1e3)
        .collect();
    rep.set("sim.run_overhead_ms", median(&overhead));
    rep.set("sim.chunk_ms_p90", c.ms(0.9));
    rep.set(
        "sim.report_over_wall",
        c.walls.iter().sum::<f64>() / c.report_walls.iter().sum::<f64>(),
    );
    let total_compute: f64 = c.compute.iter().sum();
    let total_comm: f64 = c.comm.iter().sum();
    rep.set("rank.compute_s", median(&c.compute));
    rep.set(
        "rank.wait_s_min",
        c.comm.iter().copied().fold(f64::INFINITY, f64::min),
    );
    rep.set("rank.wait_s_median", median(&c.comm));
    rep.set(
        "rank.wait_s_max",
        c.comm.iter().copied().fold(0.0, f64::max),
    );
    rep.set("rank.comm_frac", total_comm / (total_compute + total_comm));
    if cfg.ranks > 1 {
        rep.set("comm.messages_per_step", c.messages as f64 / c.steps as f64);
        rep.set("comm.bytes_per_step", c.bytes as f64 / c.steps as f64);
    }
    let mut untraced = before;
    untraced.absorb_all(reference(half / 2.0)?);
    rep.set("trace.overhead_frac", 1.0 - c.mflups() / untraced.mflups());
    rep.set(
        "trace.unattributed_frac",
        tr.self_time(root) / tr.duration(root),
    );
    crate::finish_trace(tr, rep, args, root);
    Ok(())
}
