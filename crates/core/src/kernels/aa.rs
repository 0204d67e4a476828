//! AA-pattern in-place streaming — single-population storage
//! ([`crate::field::StorageMode::InPlaceAa`]).
//!
//! The two-grid ladder moves every population through a `distr`/`distr_adv`
//! double buffer; the AA pattern (Bailey et al.) keeps **one** resident
//! array `A` and alternates two access patterns, each of which touches, per
//! cell, a read set *equal to* its write set — which is what makes the
//! update safe in place and embarrassingly parallel at any granularity:
//!
//! * **even step** (first of each pair) — purely local: read the Q
//!   populations of cell `x` from their natural slots, apply the cell rule
//!   (collide, or the wall transform on solid rows), and write result `t_i`
//!   into the *opposite* slot `A[x][opp(i)]`. No neighbour access at all.
//! * **odd step** (second of the pair) — gather-swapped reads
//!   `a_i = A[x−c_i][opp(i)]`, apply the same cell rule, scatter-swapped
//!   writes `A[x+c_i][i] = t_i`. For each direction `i` the location read
//!   as `a_{opp(i)}` **is** the location written as `t_i` — so each cell
//!   touches exactly its own Q slots (`(x+c_j, j)` for all `j`, a bijection
//!   between cells and slots), reads them all before writing any, and no
//!   two cells ever share a slot. In-place, conflict-free, and bitwise
//!   deterministic under threading.
//!
//! ## Representation and two-grid correspondence
//!
//! At even time steps `A[x][i]` holds the *pre-collision arrivals*
//! `f_i(t, x)` — the pull-stream of the two-grid state: `A = S(F)` with
//! `F` the two-grid (post-collision) field and `S` the pull-stream
//! permutation. One even step later the state is the two-grid field with
//! slots reversed (`A[x][j] = F[x][opp(j)]`, no spatial shift).
//!
//! Both steps run the one cell body of [`crate::kernels::op`]
//! (`collide_group`, with the AA cross-store), written once over the lane
//! type of `kernels::lanes`: `Scalar` lanes, or `Avx2<true>` lanes
//! when `simd` is asked for (and the host has AVX2+FMA) with a `Scalar`
//! tail. Either way the AA trajectory is *bitwise* the streamed image of the
//! two-grid trajectory run with the same lanes — scalar AA ≡ scalar
//! two-grid, AVX2 AA ≡ `Simd`-rung two-grid.
//!
//! ## Boundaries come for free
//!
//! Full-way bounce-back writes `t_i = a_{opp(i)}` — in both AA phases that
//! is a **no-op** (the value is already in the slot about to be written),
//! so bounce-back wall rows and masked solid cells are simply *skipped*.
//! Moving walls add the per-velocity momentum correction in place; diffuse
//! walls re-emit the gathered mass as wall equilibrium, identical
//! arithmetic to [`crate::boundary::BoundarySpec::apply`].
//!
//! ## Traffic
//!
//! Each step reads Q and writes Q doubles per cell in one array: `2·Q·8`
//! bytes/cell of model traffic (vs the paper's two-grid `3·Q·8`), and half
//! the resident population memory — see
//! [`crate::perf::model_bytes_per_cell`]. All stores are regular
//! write-back stores: every destination row was just read by the same
//! step, so it is already in cache.

use std::marker::PhantomData;

use crate::boundary::{BoundarySpec, WallKind};
use crate::equilibrium::{feq_i, EqOrder};
use crate::field::DistField;
use crate::index::Dim3;
use crate::kernels::lanes::{self, prefetch_span, LaneKernel, Lanes, Scalar};
use crate::kernels::op::{self, collide_group, CellKernel, CollideOp, OpConsts, Slots, Sweep};
use crate::kernels::{KernelCtx, StreamTables, MAX_Q};

/// z-block of the wall-row tiles (`Q×ZBA` doubles on the stack, ≈20 KiB at
/// D3Q39 — the same working-set budget as the fused kernel's tile).
pub(crate) const ZBA: usize = 64;

/// How the odd sweep maps a writer plane `x` to its `±c_x`-shifted
/// gather/scatter planes.
///
/// Decomposed ranks shift straight into the halo margin and communicate;
/// a single rank owns the whole periodic x-axis, so it can wrap the shift
/// instead — no ghost planes read or written, no halo exchange, and no
/// duplicated writer planes. Both modes produce bitwise-identical owned
/// state: the margin path gathers from ghost *copies* of exactly the planes
/// the wrap path reads directly, and the writer↦slot bijection holds on the
/// torus just as it does on the open interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XShift {
    /// Shift into the halo margin (requires `k` planes on each side).
    Margin,
    /// Periodic wrap inside `[lo, hi)` — the single-rank torus.
    Wrap {
        /// First plane of the periodic x-domain.
        lo: usize,
        /// One past the last plane of the periodic x-domain.
        hi: usize,
    },
}

impl XShift {
    /// The gather plane of velocity component `cx` for writer plane `x`.
    #[inline]
    fn src(self, x: usize, cx: i32) -> usize {
        match self {
            XShift::Margin => (x as isize - cx as isize) as usize,
            XShift::Wrap { lo, hi } => {
                let n = (hi - lo) as isize;
                (lo as isize + (x as isize - lo as isize - cx as isize).rem_euclid(n)) as usize
            }
        }
    }

    /// The scatter plane of velocity component `cx` for writer plane `x`.
    #[inline]
    fn dst(self, x: usize, cx: i32) -> usize {
        self.src(x, -cx)
    }
}

/// One AA **even** step over planes `x ∈ [x_lo, x_hi)`: in place, per cell,
/// read-local/write-local (see module docs). The rule `op` is applied to
/// fluid cells of `bounds`; bounce-back wall rows and masked cells are
/// exact no-ops; moving/diffuse walls transform in place.
///
/// Fluid rows run the velocity-pair update on the field rows themselves:
/// per lane group, one moment pass over the Q rows, then the relax over
/// velocity pairs `(i, opp(i))`, each pair loaded, collided and stored into
/// the other's slot — no gather tile. `simd` selects the AVX2+FMA lanes
/// (runtime-detected, scalar fallback).
pub fn even_cells<O: CollideOp>(
    ctx: &KernelCtx,
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
        "even x-range [{x_lo}, {x_hi}) exceeds nx {}",
        d.nx
    );
    let slab_len = f.slab_stride();
    let ptr = f.as_mut_ptr();
    let oc = OpConsts::new(ctx, &op);
    // SAFETY: exclusive &mut access to the whole field; the x-range is
    // checked above.
    unsafe { even_cells_raw::<O>(ptr, slab_len, ctx, &oc, bounds, d, x_lo, x_hi, simd) }
}

/// One AA **odd** step over *writer* planes `x ∈ [x_lo, x_hi)`:
/// gather-swapped reads, collide/transform, scatter-swapped writes (see
/// module docs). Requires `x_lo ≥ k` and `x_hi + k ≤ nx` (the sweep reads
/// and writes up to `k` planes outside the writer range).
///
/// The double-shifted gather software-prefetches each velocity's next
/// y-row (the AA adaptation of the fused kernel's next-src-row pattern; the
/// scatter rows *are* the gather rows of the opposite velocities, so the
/// gather prefetch covers the destinations too).
pub fn odd_cells<O: CollideOp>(
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
    check_odd_bounds(ctx, f, x_lo, x_hi);
    let d = f.alloc_dims();
    let slab_len = f.slab_stride();
    let ptr = f.as_mut_ptr();
    let oc = OpConsts::new(ctx, &op);
    // SAFETY: exclusive &mut access; the bounds check above keeps every
    // gather/scatter plane inside the allocation.
    unsafe {
        odd_cells_raw::<O>(
            ptr,
            slab_len,
            ctx,
            &oc,
            tables,
            bounds,
            d,
            x_lo,
            x_hi,
            XShift::Margin,
            simd,
        )
    }
}

/// One AA **odd** step over writer planes `x ∈ [x_lo, x_hi)` with the
/// x-shift wrapped *inside that range* — the single-rank periodic sweep.
///
/// Equivalent to filling `k` ghost planes per side from the periodic images
/// and running [`odd_cells`] over `[x_lo − k, x_hi + k)`, but with no halo
/// copies and no duplicated writer planes: the owned result is bitwise
/// identical (the margin path reads ghost *copies* of exactly the planes
/// this sweep reads in place — see [`XShift`]) while ghost slots are simply
/// never touched.
pub fn odd_cells_periodic<O: CollideOp>(
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
    let slab_len = f.slab_stride();
    let ptr = f.as_mut_ptr();
    let oc = OpConsts::new(ctx, &op);
    let xw = XShift::Wrap { lo: x_lo, hi: x_hi };
    // SAFETY: exclusive &mut access; wrapped shifts stay inside
    // `[x_lo, x_hi)` which the assert keeps inside the allocation.
    unsafe {
        odd_cells_raw::<O>(
            ptr, slab_len, ctx, &oc, tables, bounds, d, x_lo, x_hi, xw, simd,
        )
    }
}

/// Hard bounds check shared by the safe odd-step entry points: the raw
/// kernels write through pointers up to `k` planes outside the writer
/// range, so an out-of-range sweep must fail loudly in release builds too.
pub(crate) fn check_odd_bounds(ctx: &KernelCtx, f: &DistField, x_lo: usize, x_hi: usize) {
    let k = ctx.lat.reach();
    let nx = f.alloc_dims().nx;
    assert!(
        x_lo >= k && x_hi + k <= nx,
        "odd writer range [{x_lo}, {x_hi}) needs k = {k} planes of margin inside nx = {nx}"
    );
}

/// Raw-pointer even step, shared with the rayon driver.
///
/// # Safety
/// `base_ptr` must point to `total = q·slab_len` initialised doubles laid
/// out as consecutive velocity slabs of a field with allocated dims `d`;
/// the caller must guarantee exclusive access to the x-planes
/// `[x_lo, x_hi)` (the even step touches no other planes).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn even_cells_raw<O: CollideOp>(
    base_ptr: *mut f64,
    slab_len: usize,
    ctx: &KernelCtx,
    oc: &OpConsts,
    bounds: &BoundarySpec,
    d: Dim3,
    x_lo: usize,
    x_hi: usize,
    simd: bool,
) {
    let s = Sweep {
        base_ptr,
        slab_len,
        ctx,
        oc,
        bounds,
        d,
        x_lo,
        x_hi,
    };
    // SAFETY: forwarded contract.
    unsafe {
        if ctx.third_order() {
            lanes::dispatch::<_, true>(&Even::<true, O>(s, PhantomData), simd);
        } else {
            lanes::dispatch::<_, true>(&Even::<false, O>(s, PhantomData), simd);
        }
    }
}

/// The even traversal.
struct Even<'a, const THIRD: bool, O>(Sweep<'a>, PhantomData<O>);

impl<const THIRD: bool, O: CollideOp> LaneKernel for Even<'_, THIRD, O> {
    #[inline(always)]
    unsafe fn run<L: Lanes>(&self) {
        let total = self.0.total();
        let Sweep {
            base_ptr,
            slab_len,
            ctx,
            oc,
            bounds,
            d,
            x_lo,
            x_hi,
        } = self.0;
        let q = ctx.lat.q();
        let nz = d.nz;
        let mask = bounds.mask();
        let kc = CellKernel::<L, THIRD, O>::new(ctx, oc);
        let mut fq = [[0.0f64; ZBA]; MAX_Q]; // wall rows only (O(boundary))

        for x in x_lo..x_hi {
            for y in 0..d.ny {
                let wall = bounds.wall_row_kind(d.ny, y);
                if matches!(wall, Some(WallKind::BounceBack)) {
                    continue; // AA even bounce-back is the identity
                }
                let dbase = d.idx(x, y, 0);
                if let Some(kind) = wall {
                    let mut z0 = 0usize;
                    while z0 < nz {
                        let blk = (nz - z0).min(ZBA);
                        for (i, line) in fq.iter_mut().enumerate().take(q) {
                            let off = i * slab_len + dbase + z0;
                            debug_assert!(off + blk <= total);
                            // SAFETY: off+blk ≤ total per the layout contract.
                            unsafe {
                                std::ptr::copy_nonoverlapping(
                                    base_ptr.add(off) as *const f64,
                                    line.as_mut_ptr(),
                                    blk,
                                )
                            };
                        }
                        // SAFETY: same offsets as the gather above.
                        unsafe {
                            store_wall_even(
                                ctx, kind, &fq, oc, q, base_ptr, total, slab_len, dbase, z0, blk,
                            )
                        };
                        z0 += blk;
                    }
                    continue;
                }
                // Fluid row: one software touch of the next y-row per slab
                // (2Q unit-stride streams overwhelm the hardware stride
                // prefetcher), then the velocity-pair groups in place.
                // Masked solid cells are exact AA no-ops, so the sweep simply
                // visits the fluid z-runs (identical run logic to every other
                // boundary-aware driver).
                for i in 0..q {
                    let next = i * slab_len + dbase + nz;
                    prefetch_span(base_ptr, next, (next + nz).min(total));
                }
                let mut zs = 0usize;
                while let Some((lo, hi)) = op::next_fluid_run(mask, y, nz, &mut zs) {
                    // SAFETY: [lo, hi) of this row lies inside every slab and
                    // inside the caller's exclusive x-planes.
                    unsafe { kc.collide_row::<true>(base_ptr.add(dbase), slab_len, lo, hi) };
                }
            }
        }
    }
}

/// Raw-pointer odd step, shared with the rayon driver.
///
/// # Safety
/// Layout contract as for [`even_cells_raw`]; additionally every shifted
/// plane `xw.src(x, ±c_x)` must lie inside the allocation (with
/// [`XShift::Margin`] that means `x_lo ≥ k` and `x_hi + k ≤ d.nx`; a wrap
/// range inside the allocation satisfies it by construction), and the
/// caller must guarantee that no other thread concurrently touches any slot
/// `(x + c_i, i)` for writer cells `x ∈ [x_lo, x_hi)`. Because the
/// writer↦slot map is a bijection (cell `x` owns exactly the slots
/// `(x + c_j, j)` — on the torus under `Wrap`), partitioning writers into
/// disjoint x-ranges satisfies this even though the written *planes*
/// overlap chunk boundaries.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn odd_cells_raw<O: CollideOp>(
    base_ptr: *mut f64,
    slab_len: usize,
    ctx: &KernelCtx,
    oc: &OpConsts,
    tables: &StreamTables,
    bounds: &BoundarySpec,
    d: Dim3,
    x_lo: usize,
    x_hi: usize,
    xw: XShift,
    simd: bool,
) {
    let s = Sweep {
        base_ptr,
        slab_len,
        ctx,
        oc,
        bounds,
        d,
        x_lo,
        x_hi,
    };
    // SAFETY: forwarded contract.
    unsafe {
        if ctx.third_order() {
            let k = Odd::<true, O> {
                s,
                tables,
                xw,
                op: PhantomData,
            };
            lanes::dispatch::<_, true>(&k, simd);
        } else {
            let k = Odd::<false, O> {
                s,
                tables,
                xw,
                op: PhantomData,
            };
            lanes::dispatch::<_, true>(&k, simd);
        }
    }
}

/// The odd traversal.
struct Odd<'a, const THIRD: bool, O> {
    s: Sweep<'a>,
    tables: &'a StreamTables,
    xw: XShift,
    op: PhantomData<O>,
}

impl<const THIRD: bool, O: CollideOp> LaneKernel for Odd<'_, THIRD, O> {
    #[inline(always)]
    unsafe fn run<L: Lanes>(&self) {
        let total = self.s.total();
        let Sweep {
            base_ptr,
            slab_len,
            ctx,
            oc,
            bounds,
            d,
            x_lo,
            x_hi,
        } = self.s;
        let (tables, xw) = (self.tables, self.xw);
        let q = ctx.lat.q();
        let nz = d.nz;
        let mask = bounds.mask();
        let vel = ctx.lat.velocities();
        let kc = CellKernel::<L, THIRD, O>::new(ctx, oc);
        let mut fq = [[0.0f64; ZBA]; MAX_Q];

        for x in x_lo..x_hi {
            for y in 0..d.ny {
                let wall = bounds.wall_row_kind(d.ny, y);
                if matches!(wall, Some(WallKind::BounceBack)) {
                    continue; // AA odd bounce-back is the identity
                }
                // The gather row of velocity `i` (slab `opp(i)`, plane
                // `x−cx_i`, row `wrap(y−cy_i)`, z shifted by `−cz_i`) is
                // *also* the scatter destination of `t_opp(i)` — the scatter
                // row of `o = opp(i)` is slab `o`, plane `x+cx_o = x−cx_i`,
                // row `wrap(y+cy_o) = wrap(y−cy_i)`, start
                // `wrap(z0+cz_o) = wrap(z0−cz_i)`. So the odd step, like the
                // even step, is a velocity-pair in-place swap on
                // double-shifted rows. Prefetching each row's successor
                // therefore covers the scatter destinations too.
                let mut rows = [0usize; MAX_Q];
                for (i, c) in vel.iter().enumerate().take(q) {
                    let xs = xw.src(x, c[0]);
                    let ys = tables.y_for(c[1]).src(y);
                    rows[i] = oc.opp[i] * slab_len + d.idx(xs, ys, 0);
                    debug_assert!(rows[i] + nz <= total);
                    prefetch_span(base_ptr, rows[i] + nz, (rows[i] + 2 * nz).min(total));
                }
                if let Some(kind) = wall {
                    let mut z0 = 0usize;
                    while z0 < nz {
                        let blk = (nz - z0).min(ZBA);
                        // SAFETY: gather rows are inside the allocation per
                        // the odd-bounds contract.
                        unsafe { gather_swapped(base_ptr, &rows, vel, q, nz, z0, blk, &mut fq) };
                        // SAFETY: scatter planes x+c inside the allocation.
                        unsafe {
                            store_wall_odd(
                                ctx, kind, &fq, oc, vel, tables, d, q, base_ptr, total, slab_len,
                                x, y, z0, blk, xw,
                            )
                        };
                        z0 += blk;
                    }
                    continue;
                }
                let mut zs = 0usize;
                while let Some((lo, hi)) = op::next_fluid_run(mask, y, nz, &mut zs) {
                    let mut starts = [0usize; MAX_Q];
                    for (i, c) in vel.iter().enumerate().take(q) {
                        starts[i] = (lo as isize - c[2] as isize).rem_euclid(nz as isize) as usize;
                    }
                    // SAFETY: every gather row is inside the allocation per
                    // the odd-bounds contract; the pair swap touches exactly
                    // the slots these writers own.
                    unsafe { odd_run(&kc, base_ptr, &rows, &starts, nz, hi - lo) };
                }
            }
        }
    }
}

/// Lanes of a run that never meet a row seam after the head: at most
/// `|cz| ≤ 3` lanes of a rotated row precede its wrap, so after the first
/// `SEAM` lanes a source that wraps near the run start has wrapped for good.
const SEAM: usize = 4;

/// One fluid z-run of `blk` writer cells on double-shifted rows: `rows[i]`
/// is the gather row of velocity `i` and `starts[i]` its z-rotation at the
/// run start; the same (row, rotation) is the scatter destination of
/// `t_opp(i)`, so every lane group runs `collide_group` with the AA
/// cross-store.
///
/// A writer run never wraps in z, so a velocity's rotated source can cross
/// the row seam only within the first `|cz|` lanes (when `starts[i]` sits at
/// the top of the row) or the last `|cz|` lanes (when the run reaches it).
/// Groups in `[mid_lo, mid_hi)` are therefore seam-free for *every* velocity
/// and load through fixed pointers `fp[i]`; only the head and end groups take
/// the rotated path, and the last `blk % N` cells the `Scalar` one.
///
/// # Safety
/// Every `rows[i] + nz` must be ≤ the allocation length; `blk ≤ nz`; the
/// caller owns all slots `(x + c_j, j)` of these writers exclusively.
#[inline(always)]
unsafe fn odd_run<L: Lanes, const THIRD: bool, O: CollideOp>(
    kc: &CellKernel<'_, L, THIRD, O>,
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    starts: &[usize; MAX_Q],
    nz: usize,
    blk: usize,
) {
    let (q, oc) = (kc.q, kc.oc);
    let vec_end = blk / L::N * L::N;
    let mut fp = [base_ptr; MAX_Q];
    let mut mid_hi = vec_end;
    for i in 0..q {
        let s = starts[i];
        // After the head, sources with `s + SEAM > nz` have wrapped for
        // good: constant offset `s − nz`. Others sit at `s` until the seam.
        let off = if s + SEAM > nz {
            s as isize - nz as isize
        } else {
            s as isize
        };
        fp[i] = base_ptr.wrapping_add(rows[i]).wrapping_offset(off);
        if s + SEAM <= nz && s + vec_end > nz {
            // Wraps at lane nz−s near the run end: stop the fast range at
            // the last whole group before the seam.
            mid_hi = mid_hi.min((nz - s) / L::N * L::N);
        }
    }
    let mid_lo = SEAM.min(vec_end);
    let mid_hi = mid_hi.max(mid_lo);
    let rotated = |z| Rotated {
        base_ptr,
        rows,
        starts,
        nz,
        z,
    };
    let mut z = 0usize;
    // SAFETY: every group reads and writes only these writers' slots.
    unsafe {
        while z < mid_lo {
            collide_group::<L, THIRD, true, O, _>(&kc.k, oc, q, &rotated(z));
            z += L::N;
        }
        while z < mid_hi {
            collide_group::<L, THIRD, true, O, _>(&kc.k, oc, q, &Shifted { fp: &fp, z });
            z += L::N;
        }
        while z < vec_end {
            collide_group::<L, THIRD, true, O, _>(&kc.k, oc, q, &rotated(z));
            z += L::N;
        }
        while z < blk {
            collide_group::<Scalar, THIRD, true, O, _>(&kc.tail, oc, q, &rotated(z));
            z += 1;
        }
    }
}

/// Lane group `z` of the seam-free range: velocity `i` at `fp[i] + z`.
struct Shifted<'a> {
    fp: &'a [*mut f64; MAX_Q],
    z: usize,
}

impl<L: Lanes> Slots<L> for Shifted<'_> {
    #[inline(always)]
    unsafe fn load(&self, i: usize) -> L {
        // SAFETY: in the seam-free range `fp[i] + z .. + N` is in-row.
        unsafe { L::load(self.fp[i].wrapping_add(self.z)) }
    }
    #[inline(always)]
    unsafe fn store(&self, i: usize, v: L) {
        // SAFETY: as for `load`.
        unsafe { v.store(self.fp[i].wrapping_add(self.z)) }
    }
}

/// Lane group `z` of a rotated run: velocity `i`'s lanes are
/// `row_i[wrap(starts[i] + z + l)]`.
struct Rotated<'a> {
    base_ptr: *mut f64,
    rows: &'a [usize; MAX_Q],
    starts: &'a [usize; MAX_Q],
    nz: usize,
    z: usize,
}

impl Rotated<'_> {
    /// Row pointer and the first lane's unwrapped index of velocity `i`.
    #[inline(always)]
    fn at(&self, i: usize) -> (*mut f64, usize) {
        (
            self.base_ptr.wrapping_add(self.rows[i]),
            self.starts[i] + self.z,
        )
    }
}

impl<L: Lanes> Slots<L> for Rotated<'_> {
    #[inline(always)]
    unsafe fn load(&self, i: usize) -> L {
        let (p, t) = self.at(i);
        let nz = self.nz;
        // SAFETY: every index is wrapped into the row `[0, nz)`.
        unsafe {
            if t + L::N <= nz {
                L::load(p.add(t))
            } else if t >= nz {
                L::load(p.add(t - nz))
            } else {
                let mut lanes = [0.0f64; 4];
                for (l, v) in lanes.iter_mut().enumerate().take(L::N) {
                    *v = *p.add((t + l) % nz);
                }
                L::load(lanes.as_ptr())
            }
        }
    }
    #[inline(always)]
    unsafe fn store(&self, i: usize, v: L) {
        let (p, t) = self.at(i);
        let nz = self.nz;
        // SAFETY: as for `load`.
        unsafe {
            if t + L::N <= nz {
                v.store(p.add(t));
            } else if t >= nz {
                v.store(p.add(t - nz));
            } else {
                let mut lanes = [0.0f64; 4];
                v.store(lanes.as_mut_ptr());
                for (l, val) in lanes.iter().enumerate().take(L::N) {
                    *p.add((t + l) % nz) = *val;
                }
            }
        }
    }
}

/// Gather the swapped arrivals of one z-block into `fq`:
/// `fq[i][j] = A[x−c_i][wrap(y−cy_i)][wrap(z0+j−cz_i)][opp(i)]`, with
/// `rows[i]` the gather row of velocity `i`.
///
/// # Safety
/// Every `rows[i] + nz` must be ≤ the allocation length; `blk ≤ ZBA`.
#[allow(clippy::too_many_arguments)]
unsafe fn gather_swapped(
    base_ptr: *mut f64,
    rows: &[usize; MAX_Q],
    vel: &[[i32; 3]],
    q: usize,
    nz: usize,
    z0: usize,
    blk: usize,
    fq: &mut [[f64; ZBA]; MAX_Q],
) {
    for (i, c) in vel.iter().enumerate().take(q) {
        let start = (z0 as isize - c[2] as isize).rem_euclid(nz as isize) as usize;
        // SAFETY: rows[i]+nz ≤ total; both rotate segments stay inside.
        unsafe { rotate_copy(base_ptr.add(rows[i]), fq[i].as_mut_ptr(), start, blk, nz) };
    }
}

/// Copy `blk` doubles from a row of length `nz`, starting at `start` and
/// wrapping at the row end, to `out`.
///
/// # Safety
/// `row` valid for `nz` reads, `out` for `blk` writes; `blk ≤ nz`.
unsafe fn rotate_copy(row: *const f64, out: *mut f64, start: usize, blk: usize, nz: usize) {
    let first = blk.min(nz - start);
    // SAFETY: both segments stay inside the row per the contract.
    unsafe {
        std::ptr::copy_nonoverlapping(row.add(start), out, first);
        std::ptr::copy_nonoverlapping(row, out.add(first), blk - first);
    }
}

/// Rotate-copy `blk` doubles from `line` into a row of length `nz` starting
/// at (wrapped) `start` — the inverse of [`rotate_copy`].
///
/// # Safety
/// `row` valid for `nz` writes, `line` for `blk` reads; `blk ≤ nz`.
unsafe fn scatter_line(line: *const f64, row: *mut f64, start: usize, blk: usize, nz: usize) {
    let first = blk.min(nz - start);
    // SAFETY: both segments stay inside the row per the contract.
    unsafe {
        std::ptr::copy_nonoverlapping(line, row.add(start), first);
        std::ptr::copy_nonoverlapping(line.add(first), row, blk - first);
    }
}

/// AA even-step wall transform for one z-block of a solid row, written to
/// the *swapped* local slots: slot `m` receives `t_{opp(m)}` (bounce-back
/// rows never reach here — they are exact no-ops). Identical per-cell
/// arithmetic to [`crate::boundary::BoundarySpec::apply`].
///
/// # Safety
/// Layout contract as for [`even_cells_raw`]; `dbase + z0 + blk` within
/// every slab and inside the caller's exclusive x-planes.
#[allow(clippy::too_many_arguments)]
unsafe fn store_wall_even(
    ctx: &KernelCtx,
    kind: WallKind,
    fq: &[[f64; ZBA]; MAX_Q],
    oc: &OpConsts,
    q: usize,
    base_ptr: *mut f64,
    total: usize,
    slab_len: usize,
    dbase: usize,
    z0: usize,
    blk: usize,
) {
    let cs2 = ctx.lat.cs2();
    match kind {
        WallKind::BounceBack => unreachable!("bounce-back rows are skipped"),
        WallKind::Moving { u, rho } => {
            // Slot m ← a_m + corr_{opp(m)}: the swapped-slot image of
            // `new[i] = old[opp(i)] + corr_i`.
            for m in 0..q {
                let i = oc.opp[m];
                let c = ctx.lat.velocities()[i];
                let cu = c[0] as f64 * u[0] + c[1] as f64 * u[1] + c[2] as f64 * u[2];
                let corr = 2.0 * ctx.lat.weights()[i] * rho * cu / cs2;
                let off = m * slab_len + dbase + z0;
                debug_assert!(off + blk <= total);
                let line = &fq[m];
                for j in 0..blk {
                    // SAFETY: off+blk ≤ total per the caller's contract.
                    unsafe { *base_ptr.add(off + j) = line[j] + corr };
                }
            }
        }
        WallKind::Diffuse { u } => {
            // Arriving mass in velocity-index order (matches the two-grid
            // boundary apply), re-emitted as wall equilibrium.
            let mut mass = [0.0f64; ZBA];
            for line in fq.iter().take(q) {
                for j in 0..blk {
                    mass[j] += line[j];
                }
            }
            for m in 0..q {
                let i = oc.opp[m];
                let off = m * slab_len + dbase + z0;
                debug_assert!(off + blk <= total);
                for (j, mj) in mass.iter().enumerate().take(blk) {
                    // SAFETY: as above.
                    unsafe { *base_ptr.add(off + j) = feq_i(&ctx.lat, EqOrder::Second, i, *mj, u) };
                }
            }
        }
    }
}

/// AA odd-step wall transform for one z-block of a solid row: `t_i` from
/// the gathered swapped arrivals, scatter-stored to `A[x+c_i][i]`
/// (bounce-back rows never reach here — exact no-ops).
///
/// # Safety
/// Layout contract as for [`odd_cells_raw`]; `x ± k` valid planes.
#[allow(clippy::too_many_arguments)]
unsafe fn store_wall_odd(
    ctx: &KernelCtx,
    kind: WallKind,
    fq: &[[f64; ZBA]; MAX_Q],
    oc: &OpConsts,
    vel: &[[i32; 3]],
    tables: &StreamTables,
    d: Dim3,
    q: usize,
    base_ptr: *mut f64,
    total: usize,
    slab_len: usize,
    x: usize,
    y: usize,
    z0: usize,
    blk: usize,
    xw: XShift,
) {
    let cs2 = ctx.lat.cs2();
    let nz = d.nz;
    let mut t = [0.0f64; ZBA];
    let mut mass = [0.0f64; ZBA];
    if matches!(kind, WallKind::Diffuse { .. }) {
        mass[..blk].fill(0.0);
        for line in fq.iter().take(q) {
            for j in 0..blk {
                mass[j] += line[j];
            }
        }
    }
    for (i, c) in vel.iter().enumerate().take(q) {
        match kind {
            WallKind::BounceBack => unreachable!("bounce-back rows are skipped"),
            WallKind::Moving { u, rho } => {
                let cu = c[0] as f64 * u[0] + c[1] as f64 * u[1] + c[2] as f64 * u[2];
                let corr = 2.0 * ctx.lat.weights()[i] * rho * cu / cs2;
                let line = &fq[oc.opp[i]];
                for j in 0..blk {
                    t[j] = line[j] + corr;
                }
            }
            WallKind::Diffuse { u } => {
                for (j, mj) in mass.iter().enumerate().take(blk) {
                    t[j] = feq_i(&ctx.lat, EqOrder::Second, i, *mj, u);
                }
            }
        }
        let xd = xw.dst(x, c[0]);
        let yd = tables.y_for(-c[1]).src(y);
        let row = i * slab_len + d.idx(xd, yd, 0);
        debug_assert!(row + nz <= total);
        let start = (z0 as isize + c[2] as isize).rem_euclid(nz as isize) as usize;
        // SAFETY: row+nz ≤ total; segments inside the row.
        unsafe { scatter_line(t.as_ptr(), base_ptr.add(row), start, blk, nz) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::ChannelWalls;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::kernels::op::{GuoForced, PlainBgk};
    use crate::kernels::{dh, fused, OptLevel};
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut s = seed | 1;
        for v in f.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = 0.03 + (s % 709) as f64 / 1000.0;
        }
        f
    }

    /// Swap every cell's slots by the bounce-back permutation:
    /// `out[x][i] = in[x][opp(i)]`.
    fn unswap(ctx: &KernelCtx, f: &DistField) -> DistField {
        let mut out = f.clone();
        for i in 0..ctx.lat.q() {
            let o = ctx.lat.opposite(i);
            out.slab_mut(i).copy_from_slice(f.slab(o));
        }
        out
    }

    #[test]
    fn even_step_is_the_swapped_collide() {
        // even(A)[x][opp(i)] must equal collide(A)[x][i] bitwise (scalar).
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(4, 5, 70); // straddles a z-block boundary
            let a0 = random_field(c.lat.q(), dims, 0, 11);

            let mut collided = a0.clone();
            op::collide_cells(
                &c,
                &mut collided,
                0,
                dims.nx,
                PlainBgk,
                &BoundarySpec::periodic(),
            );

            let mut aa = a0.clone();
            even_cells(
                &c,
                &mut aa,
                0,
                dims.nx,
                PlainBgk,
                &BoundarySpec::periodic(),
                false,
            );

            let expect = unswap(&c, &collided);
            assert_eq!(aa.max_abs_diff_owned(&expect), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn even_step_forced_matches_forced_collide() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 9, 12);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(crate::boundary::SectionMask::from_fn(9, 12, |_y, z| z == 7));
        let g = [2e-5, -1e-5, 3e-5];
        let a0 = random_field(c.lat.q(), dims, 0, 17);

        let mut collided = a0.clone();
        op::collide_cells(&c, &mut collided, 0, dims.nx, GuoForced { g }, &bounds);
        // Fluid cells of `collided` hold the forced collide; wall rows and
        // masked cells are untouched there. In AA-even, wall rows
        // (bounce-back) and masked cells are *no-ops* so they keep A's
        // natural values — the swapped comparison must account for both.
        let mut aa = a0.clone();
        even_cells(&c, &mut aa, 0, dims.nx, GuoForced { g }, &bounds, false);

        let d = aa.alloc_dims();
        for i in 0..c.lat.q() {
            let o = c.lat.opposite(i);
            for x in 0..dims.nx {
                for y in 0..dims.ny {
                    for z in 0..dims.nz {
                        let lin = d.idx(x, y, z);
                        let solid = y == 0 || y == dims.ny - 1 || z == 7;
                        let want = if solid {
                            a0.slab(i)[lin] // no-op at solid cells
                        } else {
                            collided.slab(o)[lin] // swapped collide
                        };
                        assert_eq!(aa.slab(i)[lin], want, "i={i} ({x},{y},{z})");
                    }
                }
            }
        }
    }

    #[test]
    fn odd_step_is_the_streamed_fused_pass() {
        // With B the swapped post-collision state and N = unswap(B),
        // odd(B)[x][i] must equal fused(N)[x − c_i][i] (pull-stream of the
        // fused output) — bitwise in scalar.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(8, 7, 9);
            let b = random_field(c.lat.q(), dims, 2 * k, 23);
            let n = unswap(&c, &b);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let alloc_nx = b.alloc_dims().nx;

            // Two-grid pipeline: fused pass, then a pure pull-stream.
            let mut fused_out = DistField::new(c.lat.q(), dims, 2 * k).unwrap();
            fused::stream_collide(&c, &tables, &n, &mut fused_out, k, alloc_nx - k);
            let mut expect = DistField::new(c.lat.q(), dims, 2 * k).unwrap();
            dh::stream(
                &c,
                &tables,
                &fused_out,
                &mut expect,
                2 * k,
                alloc_nx - 2 * k,
            );

            // AA odd pass in place over the same writer range.
            let mut aa = b.clone();
            odd_cells(
                &c,
                &tables,
                &mut aa,
                k,
                alloc_nx - k,
                PlainBgk,
                &BoundarySpec::periodic(),
                false,
            );

            // Planes [2k, alloc−2k) of `aa` are complete (all writers
            // swept); compare those against the streamed fused output.
            let d = aa.alloc_dims();
            let mut max: f64 = 0.0;
            for i in 0..c.lat.q() {
                for x in 2 * k..alloc_nx - 2 * k {
                    let base = d.idx(x, 0, 0);
                    for p in 0..d.plane() {
                        max = max.max((aa.slab(i)[base + p] - expect.slab(i)[base + p]).abs());
                    }
                }
            }
            assert_eq!(max, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn periodic_odd_matches_margin_odd_with_filled_halo() {
        // The wrap path must reproduce, bitwise, what the decomposed path
        // computes from periodic ghost copies and 2k ghost writer planes —
        // fluid rows, wall transforms, and masked runs alike.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let q = c.lat.q();
            let k = c.lat.reach();
            let h = 2 * k;
            let dims = Dim3::new(8, 9, 11);
            let bounds = BoundarySpec::periodic()
                .with_walls(ChannelWalls {
                    low: WallKind::Moving {
                        u: [0.01, 0.0, -0.005],
                        rho: 1.0,
                    },
                    high: WallKind::Diffuse { u: [0.0; 3] },
                    layers: k,
                })
                .with_mask(crate::boundary::SectionMask::from_fn(9, 11, |_y, z| z == 4));
            let tables = StreamTables::new(dims.ny, dims.nz);
            let m0 = random_field(q, dims, h, 37);
            let da = m0.alloc_dims();
            let plane = dims.ny * dims.nz;

            // Periodic sweep on the halo-free image of the same state.
            let mut p = DistField::new(q, dims, 0).unwrap();
            let dp = p.alloc_dims();
            for i in 0..q {
                for x in 0..dims.nx {
                    let s = da.idx(x + h, 0, 0);
                    let t = dp.idx(x, 0, 0);
                    p.slab_mut(i)[t..t + plane].copy_from_slice(&m0.slab(i)[s..s + plane]);
                }
            }
            odd_cells_periodic(&c, &tables, &mut p, 0, dims.nx, PlainBgk, &bounds, false);

            // Margin sweep with periodically filled ghosts, writers extended
            // k planes into them, exactly as the decomposed solver runs it.
            let mut m = m0.clone();
            for i in 0..q {
                for gx in 0..h {
                    for (dst, src) in [(gx, gx + dims.nx), (h + dims.nx + gx, h + gx)] {
                        let s = da.idx(src, 0, 0);
                        let row: Vec<f64> = m.slab(i)[s..s + plane].to_vec();
                        let t = da.idx(dst, 0, 0);
                        m.slab_mut(i)[t..t + plane].copy_from_slice(&row);
                    }
                }
            }
            odd_cells(
                &c,
                &tables,
                &mut m,
                h - k,
                h + dims.nx + k,
                PlainBgk,
                &bounds,
                false,
            );

            for i in 0..q {
                for x in 0..dims.nx {
                    for y in 0..dims.ny {
                        for z in 0..dims.nz {
                            assert_eq!(
                                p.slab(i)[dp.idx(x, y, z)].to_bits(),
                                m.slab(i)[da.idx(x + h, y, z)].to_bits(),
                                "{kind:?} i={i} ({x},{y},{z})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bounce_back_rows_and_masked_cells_are_exact_noops() {
        let c = ctx(LatticeKind::D3Q19);
        let k = c.lat.reach();
        let dims = Dim3::new(6, 8, 9);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(k))
            .with_mask(crate::boundary::SectionMask::from_fn(8, 9, |_y, z| z >= 7));
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut f = random_field(c.lat.q(), dims, 2 * k, 31);
        let before = f.clone();
        even_cells(&c, &mut f, 2 * k, 2 * k + dims.nx, PlainBgk, &bounds, false);
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in 2 * k..2 * k + dims.nx {
                for z in 0..dims.nz {
                    for y in [0usize, dims.ny - 1] {
                        let lin = d.idx(x, y, z);
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "wall row");
                    }
                    if z >= 7 {
                        let lin = d.idx(x, 3, z);
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "masked");
                    }
                }
            }
        }
        // Odd step: wall/masked slots keep their (post-even) values too.
        let before_odd = f.clone();
        let alloc_nx = f.alloc_dims().nx;
        odd_cells(
            &c,
            &tables,
            &mut f,
            k,
            alloc_nx - k,
            PlainBgk,
            &bounds,
            false,
        );
        // In the odd step, a slot `(y, i)` is written by writer cell
        // `y − c_i`; slots whose writer is itself a bounce-back wall cell
        // must be untouched (slots with fluid writers legitimately receive
        // the fluid populations streaming into the wall).
        for (i, cv) in c.lat.velocities().iter().enumerate() {
            for x in 2 * k + k..2 * k + dims.nx - k {
                for z in 0..dims.nz {
                    for y in [0usize, dims.ny - 1] {
                        let wy =
                            (y as isize - cv[1] as isize).rem_euclid(dims.ny as isize) as usize;
                        let writer_is_wall = wy < k || wy >= dims.ny - k;
                        if !writer_is_wall {
                            continue;
                        }
                        let lin = d.idx(x, y, z);
                        assert_eq!(
                            f.slab(i)[lin],
                            before_odd.slab(i)[lin],
                            "wall-writer slot i={i} ({x},{y},{z})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn moving_and_diffuse_walls_match_the_two_grid_transform() {
        use crate::boundary::WallKind;
        // even(A) at a moving/diffuse wall row must equal the swapped
        // BoundarySpec::apply of A, bitwise.
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 8, 9);
        let bounds = BoundarySpec::periodic().with_walls(ChannelWalls {
            low: WallKind::Diffuse { u: [0.0; 3] },
            high: WallKind::Moving {
                u: [0.03, 0.0, 0.01],
                rho: 1.0,
            },
            layers: 1,
        });
        let a0 = random_field(c.lat.q(), dims, 0, 41);

        let mut two_grid = a0.clone();
        bounds.apply(&c, &mut two_grid, 0, dims.nx);

        let mut aa = a0.clone();
        even_cells(&c, &mut aa, 0, dims.nx, PlainBgk, &bounds, false);

        let d = aa.alloc_dims();
        for i in 0..c.lat.q() {
            let o = c.lat.opposite(i);
            for x in 0..dims.nx {
                for y in [0usize, dims.ny - 1] {
                    for z in 0..dims.nz {
                        let lin = d.idx(x, y, z);
                        assert_eq!(
                            aa.slab(i)[lin],
                            two_grid.slab(o)[lin],
                            "i={i} ({x},{y},{z})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_tile_matches_scalar_within_fma_tolerance() {
        if !crate::kernels::simd::simd_available() {
            return;
        }
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(6, 7, 11); // scalar tail
            let bounds = BoundarySpec::periodic();
            let tables = StreamTables::new(dims.ny, dims.nz);
            let g = [3e-5, 0.0, -1e-5];

            let a0 = random_field(c.lat.q(), dims, 2 * k, 53);
            let mut s = a0.clone();
            let mut v = a0.clone();
            even_cells(
                &c,
                &mut s,
                2 * k,
                2 * k + dims.nx,
                GuoForced { g },
                &bounds,
                false,
            );
            even_cells(
                &c,
                &mut v,
                2 * k,
                2 * k + dims.nx,
                GuoForced { g },
                &bounds,
                true,
            );
            let diff = s.max_abs_diff_owned(&v);
            assert!(diff < 1e-13, "{kind:?} even: {diff}");

            let alloc_nx = s.alloc_dims().nx;
            odd_cells(
                &c,
                &tables,
                &mut s,
                k,
                alloc_nx - k,
                GuoForced { g },
                &bounds,
                false,
            );
            odd_cells(
                &c,
                &tables,
                &mut v,
                k,
                alloc_nx - k,
                GuoForced { g },
                &bounds,
                true,
            );
            let diff = s.max_abs_diff_owned(&v);
            assert!(diff < 1e-12, "{kind:?} odd: {diff}");
        }
    }

    #[test]
    fn pair_conserves_mass_on_fully_wrapped_field() {
        // A halo-free single-plane-decomposition stand-in: run the pair on
        // a field whose halo planes mirror the periodic wrap, then check
        // the owned mass drift.
        let c = ctx(LatticeKind::D3Q27);
        let k = c.lat.reach();
        let dims = Dim3::new(8, 6, 6);
        let mut f = random_field(c.lat.q(), dims, 2 * k, 3);
        let d = f.alloc_dims();
        let (own_lo, own_hi) = (2 * k, 2 * k + dims.nx);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let bounds = BoundarySpec::periodic();

        even_cells(&c, &mut f, own_lo, own_hi, PlainBgk, &bounds, false);
        // Refresh halos from the owned wrap (what the solver's exchange
        // does), then run the odd writers.
        for i in 0..c.lat.q() {
            for p in 0..2 * k {
                let left_halo = d.idx(p, 0, 0);
                let right_src = d.idx(own_hi - 2 * k + p, 0, 0);
                let row: Vec<f64> = f.slab(i)[right_src..right_src + d.plane()].to_vec();
                f.slab_mut(i)[left_halo..left_halo + d.plane()].copy_from_slice(&row);
                let right_halo = d.idx(own_hi + p, 0, 0);
                let left_src = d.idx(own_lo + p, 0, 0);
                let row: Vec<f64> = f.slab(i)[left_src..left_src + d.plane()].to_vec();
                f.slab_mut(i)[right_halo..right_halo + d.plane()].copy_from_slice(&row);
            }
        }
        let mass_mid = f.owned_mass();
        odd_cells(&c, &tables, &mut f, k, d.nx - k, PlainBgk, &bounds, false);
        let mass_after = f.owned_mass();
        // The even step conserves mass cell-locally; the odd step moves
        // mass between cells but the wrapped halo bookkeeping keeps the
        // owned total fixed.
        assert!(
            (mass_mid - mass_after).abs() < 1e-9 * mass_mid,
            "{mass_mid} vs {mass_after}"
        );
    }

    #[test]
    #[should_panic(expected = "planes of margin")]
    fn odd_step_rejects_out_of_range_sweeps() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(4, 7, 8);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut f = random_field(c.lat.q(), dims, 1, 5);
        let nx = f.alloc_dims().nx;
        odd_cells(
            &c,
            &tables,
            &mut f,
            0, // must be ≥ k
            nx,
            PlainBgk,
            &BoundarySpec::periodic(),
            false,
        );
    }

    #[test]
    fn level_dispatch_covers_both_parities() {
        // The mod-level dispatchers run scalar below Simd and the AVX2 tile
        // at Simd/Fused; both must agree within FMA tolerance.
        let c = ctx(LatticeKind::D3Q19);
        let k = c.lat.reach();
        let dims = Dim3::new(6, 7, 9);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let bounds = BoundarySpec::periodic();
        let a0 = random_field(c.lat.q(), dims, 2 * k, 7);
        let mut lo = a0.clone();
        let mut hi = a0.clone();
        crate::kernels::aa_even_scenario(
            OptLevel::LoBr,
            &c,
            &mut lo,
            2 * k,
            2 * k + dims.nx,
            [0.0; 3],
            &bounds,
        );
        crate::kernels::aa_even_scenario(
            OptLevel::Fused,
            &c,
            &mut hi,
            2 * k,
            2 * k + dims.nx,
            [0.0; 3],
            &bounds,
        );
        assert!(lo.max_abs_diff_owned(&hi) < 1e-13);
        let nx = lo.alloc_dims().nx;
        crate::kernels::aa_odd_scenario(
            OptLevel::LoBr,
            &c,
            &tables,
            &mut lo,
            k,
            nx - k,
            [0.0; 3],
            &bounds,
        );
        crate::kernels::aa_odd_scenario(
            OptLevel::Fused,
            &c,
            &tables,
            &mut hi,
            k,
            nx - k,
            [0.0; 3],
            &bounds,
        );
        assert!(lo.max_abs_diff_owned(&hi) < 1e-12);
    }

    #[test]
    fn simd_pair_is_bitwise_the_streamed_simd_two_grid_image() {
        // One AVX2 recipe: on whole lane groups (nz % 4 == 0, no mask) the
        // AVX2 even step is the swapped `Simd` collide and the AVX2 odd step
        // the pull-stream of the AVX2 fused pass, bit for bit.
        if !crate::kernels::simd::simd_available() {
            return;
        }
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let k = c.lat.reach();
            let dims = Dim3::new(8, 7, 12);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let bounds = BoundarySpec::periodic();
            for g in [[0.0; 3], [3e-5, -1e-5, 2e-5]] {
                // Even: the swapped image of the in-place collide.
                let a0 = random_field(c.lat.q(), dims, 0, 61);
                let mut collided = a0.clone();
                crate::kernels::collide_scenario(
                    OptLevel::Simd,
                    &c,
                    &mut collided,
                    0,
                    dims.nx,
                    g,
                    &bounds,
                );
                let mut aa = a0.clone();
                crate::kernels::aa_even_scenario(
                    OptLevel::Simd,
                    &c,
                    &mut aa,
                    0,
                    dims.nx,
                    g,
                    &bounds,
                );
                assert_eq!(
                    unswap(&c, &aa).max_abs_diff_owned(&collided),
                    0.0,
                    "{kind:?} even g={g:?}"
                );

                // Odd: the pull-stream of the fused pass over N = unswap(B).
                let b = random_field(c.lat.q(), dims, 2 * k, 67);
                let n = unswap(&c, &b);
                let nx = b.alloc_dims().nx;
                let mut fused_out = DistField::new(c.lat.q(), dims, 2 * k).unwrap();
                crate::kernels::stream_collide_scenario(
                    &c,
                    &tables,
                    &n,
                    &mut fused_out,
                    k,
                    nx - k,
                    g,
                    &bounds,
                );
                let mut expect = DistField::new(c.lat.q(), dims, 2 * k).unwrap();
                dh::stream(&c, &tables, &fused_out, &mut expect, 2 * k, nx - 2 * k);
                let mut aa = b.clone();
                crate::kernels::aa_odd_scenario(
                    OptLevel::Simd,
                    &c,
                    &tables,
                    &mut aa,
                    k,
                    nx - k,
                    g,
                    &bounds,
                );
                assert_eq!(aa.max_abs_diff_owned(&expect), 0.0, "{kind:?} odd g={g:?}");
            }
        }
    }
}
