//! Rayon-parallel kernel drivers — the intra-rank threading substrate for
//! the paper's hybrid MPI/OpenMP experiments (§VI-B, Fig. 11).
//!
//! * **stream**: one task per velocity. Each task reads slab *i* of the
//!   source and owns slab *i* of the destination exclusively
//!   ([`DistField::slabs_mut`] hands out disjoint `&mut [f64]`) — fully safe.
//! * **collide**: one task per x-plane chunk, running the same single-pass
//!   update as the serial scenario collide. Collide is purely
//!   cell-local, so tasks partitioning the x-range write disjoint offsets of
//!   every velocity slab; that disjointness is the safety argument for the
//!   one raw-pointer wrapper below (the memory-traffic-doubling alternative
//!   — a staged moment-field collide — costs ~2× on a bandwidth-bound
//!   kernel, which is exactly what this paper is about avoiding).
//! * **fused stream+collide**: one task per x-plane chunk of the
//!   *destination*, each running the single-pass fused kernel; the source is
//!   shared read-only, so only the destination needs the disjoint-chunk
//!   argument.
//!
//! The parallel collide performs the identical per-cell arithmetic in the
//! identical order as the serial DH/CF/LoBr collide, so threaded runs are
//! bit-identical to serial runs — which is what lets the Fig. 11 experiments
//! compare configurations on time alone.

use rayon::prelude::*;

use crate::boundary::BoundarySpec;
use crate::field::DistField;
use crate::kernels::op::{self, CollideOp, OpConsts, PlainBgk};
use crate::kernels::{aa, dh, fused, KernelCtx, StreamTables};

/// Parallel pull-stream over `x ∈ [x_lo, x_hi)` (one velocity per task),
/// using the DH rotate-copy row routine.
pub fn stream_par(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
) {
    let dims = src.alloc_dims();
    debug_assert!(x_lo >= ctx.lat.reach());
    debug_assert!(x_hi + ctx.lat.reach() <= dims.nx);
    let dst_slabs: Vec<&mut [f64]> = dst.slabs_mut().collect();
    dst_slabs
        .into_par_iter()
        .enumerate()
        .for_each(|(i, dst_slab)| {
            dh::stream_velocity(ctx, tables, src.slab(i), dst_slab, dims, i, x_lo, x_hi);
        });
}

/// Shareable base pointer for disjoint-x-chunk kernel tasks (used by the
/// parallel collide drivers here and in [`super::forced`]).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr(pub(crate) *mut f64);
// SAFETY: tasks created from this pointer write only to x-plane ranges that
// partition [x_lo, x_hi) — enforced by `chunk_bounds` chunking at every use
// site — so no two tasks touch the same element.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Balanced x-plane partition: chunk `c` of `chunks` over
/// `[x_lo, x_lo + planes)`. Every chunk is non-empty when
/// `chunks ≤ planes` and chunk sizes differ by at most one plane — unlike a
/// `div_ceil`-sized split, which can strand empty tail chunks (and hence
/// idle workers) whenever `planes` barely exceeds `chunks`.
pub(crate) fn chunk_bounds(x_lo: usize, planes: usize, chunks: usize, c: usize) -> (usize, usize) {
    debug_assert!(c < chunks);
    (x_lo + c * planes / chunks, x_lo + (c + 1) * planes / chunks)
}

/// Chunk count for an `[x_lo, x_hi)` sweep: a few chunks per worker for load
/// balance, never more chunks than planes.
fn chunk_count(planes: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    (threads * 4).min(planes).max(1)
}

/// Parallel single-pass BGK collide over `x ∈ [x_lo, x_hi)`.
///
/// Bit-identical to the serial CF collide (same accumulation order, same
/// reciprocal form) — the [`PlainBgk`] instantiation of the shared
/// boundary-aware driver.
pub fn collide_par(ctx: &KernelCtx, f: &mut DistField, x_lo: usize, x_hi: usize) {
    collide_cells_par(
        ctx,
        f,
        x_lo,
        x_hi,
        PlainBgk,
        &BoundarySpec::periodic(),
        false,
    );
}

/// Rayon-parallel boundary-aware collide: disjoint x-plane chunks each
/// running the rule `op` over the fluid cells of `bounds`, bit-identical to
/// the matching serial driver: the in-place collide of
/// [`crate::kernels::op`], on AVX2+FMA lanes with `use_simd` (when
/// available) and on scalar lanes otherwise.
pub fn collide_cells_par<O: CollideOp>(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
    use_simd: bool,
) {
    let d = f.alloc_dims();
    debug_assert!(x_hi <= d.nx);
    if x_lo >= x_hi {
        return;
    }
    let slab_len = f.slab_stride();
    let base = SendPtr(f.as_mut_ptr());
    let oc = OpConsts::new(ctx, &op);

    let planes = x_hi - x_lo;
    let chunks = chunk_count(planes);

    (0..chunks).into_par_iter().for_each(|c| {
        let (lo, hi) = chunk_bounds(x_lo, planes, chunks, c);
        if lo >= hi {
            return;
        }
        let p = base;
        // SAFETY: [lo, hi) ranges partition [x_lo, x_hi); each task writes
        // only offsets i·slab_len + idx(x,·,·) with x ∈ [lo, hi), which are
        // disjoint between tasks; `total`/`slab_len` bound all offsets.
        unsafe { op::collide_cells_raw::<O>(p.0, slab_len, ctx, &oc, bounds, d, lo, hi, use_simd) }
    });
}

/// Parallel fused stream+collide over `x ∈ [x_lo, x_hi)`: the `Fused` rung's
/// threading substrate.
///
/// Tasks split the destination into disjoint x-plane chunks; `src` is shared
/// read-only (the pull-stream reads `[lo − k, hi + k)` of `src`, which may
/// overlap between tasks, but no task ever writes `src`) — a simpler safety
/// story than the in-place `collide_par`, where read and write ranges live
/// in the same field. Each task runs the full fused kernel (AVX2+FMA when
/// available), so threaded results are bit-identical to single-threaded
/// fused runs.
///
/// Halo contract as for [`fused::stream_collide`]: `src` valid on
/// `[x_lo − k, x_hi + k)`.
pub fn stream_collide_par(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
) {
    if x_lo >= x_hi {
        return;
    }
    crate::kernels::fused::check_fused_bounds(ctx, src, dst, x_lo, x_hi);
    let total = dst.as_slice().len();
    let base = SendPtr(dst.as_mut_ptr());
    let planes = x_hi - x_lo;
    let chunks = chunk_count(planes);

    (0..chunks).into_par_iter().for_each(|c| {
        let (lo, hi) = chunk_bounds(x_lo, planes, chunks, c);
        if lo >= hi {
            return;
        }
        let p = base;
        // SAFETY: [lo, hi) ranges partition [x_lo, x_hi), which the bounds
        // check above confines to the allocation, so tasks write disjoint
        // in-bounds x-planes of `dst`; `src` is only read and never aliases
        // `dst` (distinct fields).
        unsafe {
            fused::stream_collide_cells_raw(
                ctx,
                tables,
                src,
                p.0,
                total,
                lo,
                hi,
                PlainBgk,
                &BoundarySpec::periodic(),
                true,
            )
        }
    });
}

/// Rayon-parallel *scenario* fused stream+collide over `x ∈ [x_lo, x_hi)`:
/// the boundary-aware single pass (wall rows transformed, masked cells
/// bounced, fluid cells collided under `op`) per disjoint destination
/// x-chunk. Bit-identical to the serial scenario fused kernel.
///
/// Halo contract as for [`fused::stream_collide`].
#[allow(clippy::too_many_arguments)]
pub fn stream_collide_cells_par<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    if x_lo >= x_hi {
        return;
    }
    crate::kernels::fused::check_fused_bounds(ctx, src, dst, x_lo, x_hi);
    let total = dst.as_slice().len();
    let base = SendPtr(dst.as_mut_ptr());
    let planes = x_hi - x_lo;
    let chunks = chunk_count(planes);

    (0..chunks).into_par_iter().for_each(|c| {
        let (lo, hi) = chunk_bounds(x_lo, planes, chunks, c);
        if lo >= hi {
            return;
        }
        let p = base;
        // SAFETY: as in `stream_collide_par` — disjoint in-bounds dst
        // x-planes per task, `src` read-only and non-aliasing.
        unsafe {
            fused::stream_collide_cells_raw(ctx, tables, src, p.0, total, lo, hi, op, bounds, true)
        }
    });
}

/// Rayon-parallel AA-pattern **even** step over `x ∈ [x_lo, x_hi)`: the
/// step is purely cell-local, so disjoint x-plane chunks partition the
/// writes exactly as in [`collide_cells_par`] — bit-identical to serial.
pub fn aa_even_cells_par<O: CollideOp>(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
    simd: bool,
) {
    let d = f.alloc_dims();
    assert!(
        x_hi <= d.nx,
        "even x-range [{x_lo}, {x_hi}) exceeds nx {}",
        d.nx
    );
    if x_lo >= x_hi {
        return;
    }
    let slab_len = f.slab_stride();
    let base = SendPtr(f.as_mut_ptr());
    let oc = OpConsts::new(ctx, &op);
    let planes = x_hi - x_lo;
    let chunks = chunk_count(planes);
    (0..chunks).into_par_iter().for_each(|c| {
        let (lo, hi) = chunk_bounds(x_lo, planes, chunks, c);
        if lo >= hi {
            return;
        }
        let p = base;
        // SAFETY: [lo, hi) ranges partition [x_lo, x_hi); the even step
        // reads and writes only planes in its own range.
        unsafe {
            aa::even_cells_raw::<O>(p.0, slab_len, ctx, &oc, bounds, d, lo, hi, simd);
        }
    });
}

/// Rayon-parallel AA-pattern **odd** step over writer planes
/// `x ∈ [x_lo, x_hi)`.
///
/// Unlike every other parallel driver here, the written *planes* of two
/// adjacent chunks overlap (a writer at a chunk edge scatters up to `k`
/// planes outward). The partition is still conflict-free at element
/// granularity: slot `(x + c_j, j)` belongs to writer cell `x` and to no
/// other (the AA bijection — see [`crate::kernels::aa`]), each writer reads
/// all of its slots before writing any, and writers are partitioned by
/// x-plane. Hence no slot is touched by two tasks and the result is
/// bit-identical to serial.
#[allow(clippy::too_many_arguments)]
pub fn aa_odd_cells_par<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
    simd: bool,
) {
    if x_lo >= x_hi {
        return;
    }
    aa::check_odd_bounds(ctx, f, x_lo, x_hi);
    aa_odd_chunked(
        ctx,
        tables,
        f,
        x_lo,
        x_hi,
        aa::XShift::Margin,
        op,
        bounds,
        simd,
    );
}

/// Rayon-parallel [`aa::odd_cells_periodic`]: the single-rank periodic odd
/// sweep, chunked by writer plane. The writer↦slot bijection holds on the
/// torus exactly as on the open interval (each slot has one writer), so the
/// chunked sweep is conflict-free and bit-identical to serial.
#[allow(clippy::too_many_arguments)]
pub fn aa_odd_cells_periodic_par<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
    simd: bool,
) {
    if x_lo >= x_hi {
        return;
    }
    let d = f.alloc_dims();
    assert!(
        x_hi <= d.nx,
        "odd writer range [{x_lo}, {x_hi}) exceeds nx {}",
        d.nx
    );
    let xw = aa::XShift::Wrap { lo: x_lo, hi: x_hi };
    aa_odd_chunked(ctx, tables, f, x_lo, x_hi, xw, op, bounds, simd);
}

/// Shared chunked odd sweep behind the margin and periodic drivers (bounds
/// already validated by the caller).
#[allow(clippy::too_many_arguments)]
fn aa_odd_chunked<O: CollideOp>(
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    xw: aa::XShift,
    op: O,
    bounds: &BoundarySpec,
    simd: bool,
) {
    let d = f.alloc_dims();
    let slab_len = f.slab_stride();
    let base = SendPtr(f.as_mut_ptr());
    let oc = OpConsts::new(ctx, &op);
    let planes = x_hi - x_lo;
    let chunks = chunk_count(planes);
    (0..chunks).into_par_iter().for_each(|c| {
        let (lo, hi) = chunk_bounds(x_lo, planes, chunks, c);
        if lo >= hi {
            return;
        }
        let p = base;
        // SAFETY: writer ranges partition [x_lo, x_hi); the writer↦slot
        // bijection makes the touched slots of different tasks disjoint
        // (see the driver docs above); all offsets are bounded by the
        // caller's bounds check (margin or wrap).
        unsafe {
            aa::odd_cells_raw::<O>(p.0, slab_len, ctx, &oc, tables, bounds, d, lo, hi, xw, simd);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::index::Dim3;
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.9).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut state = seed | 1;
        for v in f.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = 0.02 + (state % 613) as f64 / 900.0;
        }
        f
    }

    #[test]
    fn parallel_stream_bitwise_equals_serial() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(8, 6, 10);
            let src = random_field(c.lat.q(), dims, k, 41);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut a = DistField::new(c.lat.q(), dims, k).unwrap();
            let mut b = DistField::new(c.lat.q(), dims, k).unwrap();
            dh::stream(&c, &tables, &src, &mut a, k, k + dims.nx);
            stream_par(&c, &tables, &src, &mut b, k, k + dims.nx);
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn parallel_collide_bitwise_equals_serial_cf() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(11, 5, 70); // odd plane count, partial z-block
            let mut a = random_field(c.lat.q(), dims, 0, 29);
            let mut b = a.clone();
            crate::kernels::cf::collide(&c, &mut a, 0, dims.nx);
            collide_par(&c, &mut b, 0, dims.nx);
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn parallel_collide_respects_x_range() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(6, 4, 4);
        let mut f = random_field(c.lat.q(), dims, 0, 3);
        let before = f.clone();
        collide_par(&c, &mut f, 2, 4);
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in (0..2).chain(4..6) {
                let b = d.idx(x, 0, 0);
                assert_eq!(
                    &f.slab(i)[b..b + d.plane()],
                    &before.slab(i)[b..b + d.plane()]
                );
            }
        }
    }

    #[test]
    fn chunk_bounds_partition_is_balanced_and_gapless() {
        // Adversarial combos, including the div_ceil failure shapes
        // (planes barely above chunks) and planes < chunks.
        for planes in 1usize..40 {
            for chunks in 1usize..20 {
                let mut expect = 5; // x_lo
                let (mut min_sz, mut max_sz) = (usize::MAX, 0);
                for c in 0..chunks {
                    let (lo, hi) = chunk_bounds(5, planes, chunks, c);
                    assert_eq!(lo, expect, "gap at chunk {c} ({planes}/{chunks})");
                    assert!(hi >= lo);
                    expect = hi;
                    min_sz = min_sz.min(hi - lo);
                    max_sz = max_sz.max(hi - lo);
                }
                assert_eq!(expect, 5 + planes, "coverage ({planes}/{chunks})");
                assert!(max_sz - min_sz <= 1, "imbalance ({planes}/{chunks})");
                if chunks <= planes {
                    assert!(min_sz >= 1, "empty chunk ({planes}/{chunks})");
                }
            }
        }
    }

    #[test]
    fn parallel_collide_with_fewer_planes_than_threads() {
        // Regression: planes < threads (and planes barely above the old
        // div_ceil chunk count) must still partition correctly.
        let c = ctx(LatticeKind::D3Q19);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        for nx in [1usize, 2, 3, 5, 9, 33] {
            let dims = Dim3::new(nx, 4, 11);
            let mut a = random_field(c.lat.q(), dims, 0, 57);
            let mut b = a.clone();
            crate::kernels::cf::collide(&c, &mut a, 0, nx);
            pool.install(|| collide_par(&c, &mut b, 0, nx));
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "nx={nx}");
        }
    }

    #[test]
    fn parallel_fused_matches_serial_fused() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(9, 7, 13);
            let src = random_field(c.lat.q(), dims, k, 83);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut serial = DistField::new(c.lat.q(), dims, k).unwrap();
            crate::kernels::stream_collide(
                crate::kernels::OptLevel::Fused,
                &c,
                &tables,
                &src,
                &mut serial,
                k,
                k + dims.nx,
            );
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(5)
                .build()
                .unwrap();
            let mut par = DistField::new(c.lat.q(), dims, k).unwrap();
            pool.install(|| stream_collide_par(&c, &tables, &src, &mut par, k, k + dims.nx));
            assert_eq!(serial.max_abs_diff_owned(&par), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn parallel_fused_respects_x_range_and_empty() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(8, 6, 8);
        let src = random_field(c.lat.q(), dims, 1, 3);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut dst = DistField::new(c.lat.q(), dims, 1).unwrap();
        let before = dst.clone();
        stream_collide_par(&c, &tables, &src, &mut dst, 4, 4); // empty
        assert_eq!(dst.max_abs_diff_owned(&before), 0.0);
        stream_collide_par(&c, &tables, &src, &mut dst, 3, 5);
        let d = dst.alloc_dims();
        for i in 0..c.lat.q() {
            for x in (1..3).chain(5..9) {
                let b = d.idx(x, 0, 0);
                assert_eq!(
                    &dst.slab(i)[b..b + d.plane()],
                    &before.slab(i)[b..b + d.plane()],
                    "x={x}"
                );
            }
        }
    }

    #[test]
    fn parallel_aa_steps_are_bitwise_identical_to_serial() {
        use crate::boundary::ChannelWalls;
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(9, 9, 11);
            let bounds =
                crate::boundary::BoundarySpec::periodic().with_walls(ChannelWalls::no_slip(k));
            let tables = StreamTables::new(dims.ny, dims.nz);
            let a0 = random_field(c.lat.q(), dims, 2 * k, 61);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(5)
                .build()
                .unwrap();

            let mut serial = a0.clone();
            let mut par = a0.clone();
            let op = crate::kernels::op::GuoForced {
                g: [2e-5, 0.0, 0.0],
            };
            aa::even_cells(&c, &mut serial, 2 * k, 2 * k + dims.nx, op, &bounds, false);
            pool.install(|| {
                aa_even_cells_par(&c, &mut par, 2 * k, 2 * k + dims.nx, op, &bounds, false)
            });
            assert_eq!(serial.max_abs_diff_owned(&par), 0.0, "{kind:?} even");

            let nx = serial.alloc_dims().nx;
            aa::odd_cells(&c, &tables, &mut serial, k, nx - k, op, &bounds, false);
            pool.install(|| aa_odd_cells_par(&c, &tables, &mut par, k, nx - k, op, &bounds, false));
            assert_eq!(serial.max_abs_diff_owned(&par), 0.0, "{kind:?} odd");
        }
    }

    #[test]
    fn parallel_collide_handles_empty_and_single_plane() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(4, 4, 4);
        let mut f = random_field(c.lat.q(), dims, 0, 9);
        let before = f.clone();
        collide_par(&c, &mut f, 2, 2); // empty
        assert_eq!(f.max_abs_diff_owned(&before), 0.0);
        collide_par(&c, &mut f, 1, 2); // one plane
        let mut g = before.clone();
        crate::kernels::cf::collide(&c, &mut g, 1, 2);
        assert_eq!(f.max_abs_diff_owned(&g), 0.0);
    }
}
