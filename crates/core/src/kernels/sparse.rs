//! Sparse tiled stream+collide drivers — fluid-cell-cost compute over the
//! packed tile list of [`crate::geometry::SparseTiles`].
//!
//! Populations live in a **tile-major** [`SparseField`]: one contiguous
//! `q·64`-double frame per allocated tile (`data[(t·q + i)·64 + c]`), so a
//! tile's whole working set streams through cache together and a boundary
//! tile's frame is exactly the message payload of the distributed halo
//! exchange.
//!
//! One step is a fused pull-stream + boundary + collide into a second
//! buffer (two-grid): for every stored cell the streamed populations are
//! gathered through the per-tile neighbour table (an unallocated neighbour
//! reads as vacuum `0.0` — exact under the rim-allocation rule), then fluid
//! cells run the *identical* per-cell BGK/Guo arithmetic as the dense
//! [`crate::kernels::op`] drivers (same accumulation order, same reciprocal
//! form) while solid cells store the full-way bounce-back of their gathered
//! values — so on a shared geometry the sparse fluid trajectory is
//! **bitwise equal** to the dense masked path.
//!
//! The gather (and the AA odd step's scatter) walks the merged segment plan
//! of [`GatherTable`]: one inline copy per unit-stride segment, vacuum for
//! a segment whose neighbour is unallocated, so every tile class moves its
//! data the same way.
//!
//! The per-tile body is written once over the lane type of
//! `kernels::lanes` and runs on the 4-cell z-lines of a tile: `Scalar<4>`
//! lanes, or with `use_simd` `Avx2<false>` lanes — no fused multiply-adds,
//! so every lane repeats the `Scalar` recipe and the two are bitwise equal
//! (unlike the dense `Simd` rung, which trades exactness for fused
//! multiply-adds). The
//! rayon drivers run disjoint owned-tile chunks of the same body; they are
//! bitwise equal to serial since tiles are independent given `src`.

use std::marker::PhantomData;

use rayon::prelude::*;

use crate::align::AlignedBuf;
use crate::equilibrium::feq_i;
use crate::error::{Error, Result};
use crate::geometry::{tile_cell, SparseTiles, TILE_B, TILE_CELLS, TILE_NEIGHBORS};
use crate::index::Dim3;
use crate::kernels::lanes::{self, LaneKernel, Lanes};
use crate::kernels::op::{collide_group, with_op, CellKernel, CollideOp, OpConsts, Slots};
use crate::kernels::par::{chunk_bounds, SendPtr};
use crate::kernels::{KernelCtx, MAX_Q};
use crate::lattice::Lattice;

/// Tile-major population storage: `q · 64` doubles per allocated tile.
#[derive(Clone, Debug)]
pub struct SparseField {
    q: usize,
    tiles: usize,
    data: AlignedBuf,
}

impl SparseField {
    /// Allocate a zeroed field for `tiles` packed tiles of a `q`-velocity
    /// lattice.
    pub fn new(q: usize, tiles: usize) -> Result<Self> {
        if q == 0 || q > MAX_Q {
            return Err(Error::BadParameter(format!("q {q} outside 1..={MAX_Q}")));
        }
        if tiles == 0 {
            return Err(Error::BadParameter("sparse field with 0 tiles".into()));
        }
        Ok(Self {
            q,
            tiles,
            data: AlignedBuf::new(q * tiles * TILE_CELLS),
        })
    }

    /// Velocity count.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Packed tile count.
    pub fn tile_count(&self) -> usize {
        self.tiles
    }

    /// Doubles per tile frame (`q · 64`).
    pub fn frame_len(&self) -> usize {
        self.q * TILE_CELLS
    }

    /// Tile `t`'s frame, velocity-major (`[i · 64 + c]`).
    #[inline]
    pub fn frame(&self, t: usize) -> &[f64] {
        let fl = self.frame_len();
        &self.data.as_slice()[t * fl..(t + 1) * fl]
    }

    /// Mutable tile frame.
    #[inline]
    pub fn frame_mut(&mut self, t: usize) -> &mut [f64] {
        let fl = self.frame_len();
        &mut self.data.as_mut_slice()[t * fl..(t + 1) * fl]
    }

    /// The whole storage as one slice (tile-major).
    pub fn as_slice(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable whole-storage view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// Resident bytes of this buffer.
    pub fn resident_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Copy the `q` populations of cell `c` in tile `t` into `out[..q]`.
    pub fn gather_cell(&self, t: usize, c: usize, out: &mut [f64]) {
        let f = self.frame(t);
        for (i, o) in out.iter_mut().enumerate().take(self.q) {
            *o = f[i * TILE_CELLS + c];
        }
    }
}

/// One merged unit-stride run of a gather row: `len` consecutive
/// destination cells starting at `dst` all pull from the same neighbour
/// `slot` at consecutive source cells starting at `src`. Because cells are
/// packed z-fastest and every velocity shift is a constant offset, a row's
/// 64 entries collapse into a handful of such segments, and the gather
/// and scatter run one inline copy per segment instead of a per-cell walk.
#[derive(Clone, Copy, Debug)]
struct Seg {
    dst: u8,
    src: u8,
    slot: u8,
    len: u8,
}

/// Geometry-independent streaming table for one lattice: for every
/// `(velocity, destination cell)` pair, which neighbour-table slot the pull
/// source lives in and its cell index there. Valid because every velocity
/// component is ≤ 3 < [`TILE_B`], so the source is at most one tile away.
///
/// Alongside the per-cell entries (used where single cells are addressed,
/// e.g. [`zero_escaping_slots`]) it carries the merged segment plan
/// ([`Seg`]) that drives every gather and scatter; both views describe the
/// identical source addresses, so the two are bitwise equal by
/// construction.
#[derive(Clone, Debug)]
pub struct GatherTable {
    q: usize,
    /// `[i · 64 + c] = (neighbour slot, source cell)`.
    entries: Vec<(u8, u8)>,
    /// Merged segments, all velocities concatenated.
    segs: Vec<Seg>,
    /// `segs` range of velocity `i`: `seg_off[i]..seg_off[i + 1]`.
    seg_off: Vec<u32>,
    /// Per velocity: `n` when its row is the z-shift pattern — every 4-cell
    /// z-line one segment of `n` cells then one of `4 − n` — else 0.
    split: Vec<u8>,
}

impl GatherTable {
    /// Build the table for `lat`.
    pub fn new(lat: &Lattice) -> Self {
        let q = lat.q();
        let mut entries = vec![(0u8, 0u8); q * TILE_CELLS];
        let split = |s: isize| -> (isize, usize) {
            if s < 0 {
                (-1, (s + TILE_B as isize) as usize)
            } else if s >= TILE_B as isize {
                (1, (s - TILE_B as isize) as usize)
            } else {
                (0, s as usize)
            }
        };
        for (i, c) in lat.velocities().iter().enumerate() {
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    for lz in 0..TILE_B {
                        let (dx, ox) = split(lx as isize - c[0] as isize);
                        let (dy, oy) = split(ly as isize - c[1] as isize);
                        let (dz, oz) = split(lz as isize - c[2] as isize);
                        entries[i * TILE_CELLS + tile_cell(lx, ly, lz)] = (
                            crate::geometry::neighbor_slot(dx, dy, dz) as u8,
                            tile_cell(ox, oy, oz) as u8,
                        );
                    }
                }
            }
        }
        // Merge each row into unit-stride segments: extend while the next
        // destination cell pulls from the same slot at the next source cell.
        let mut segs = Vec::new();
        let mut seg_off = Vec::with_capacity(q + 1);
        let mut split = Vec::with_capacity(q);
        seg_off.push(0u32);
        for i in 0..q {
            let row = &entries[i * TILE_CELLS..(i + 1) * TILE_CELLS];
            let mut c = 0usize;
            while c < TILE_CELLS {
                let (slot, src) = row[c];
                let mut len = 1usize;
                while c + len < TILE_CELLS {
                    let (s2, c2) = row[c + len];
                    if s2 != slot || c2 as usize != src as usize + len {
                        break;
                    }
                    len += 1;
                }
                segs.push(Seg {
                    dst: c as u8,
                    src,
                    slot,
                    len: len as u8,
                });
                c += len;
            }
            let row = &segs[*seg_off.last().expect("row start") as usize..];
            let n = row[0].len as usize;
            let z_shift = row.len() == 2 * TILE_CELLS / TILE_B
                && row.chunks_exact(2).enumerate().all(|(l, p)| {
                    p[0].dst as usize == l * TILE_B
                        && p[0].len as usize == n
                        && p[1].len as usize == TILE_B - n
                });
            split.push(if z_shift { n as u8 } else { 0 });
            seg_off.push(segs.len() as u32);
        }
        Self {
            q,
            entries,
            segs,
            seg_off,
            split,
        }
    }

    /// The 64 `(slot, source cell)` entries of velocity `i`.
    #[inline]
    fn row(&self, i: usize) -> &[(u8, u8)] {
        &self.entries[i * TILE_CELLS..(i + 1) * TILE_CELLS]
    }

    /// The merged segments of velocity `i`'s row.
    #[inline]
    fn seg_row(&self, i: usize) -> &[Seg] {
        &self.segs[self.seg_off[i] as usize..self.seg_off[i + 1] as usize]
    }

    /// `f(seg, len)` for every segment of velocity `i`'s row. On a z-shift
    /// row each call site sees `len` as a constant, so the copies compile
    /// to fixed moves instead of length-dependent branches.
    #[inline(always)]
    fn for_each_seg(&self, i: usize, mut f: impl FnMut(&Seg, usize)) {
        let row = self.seg_row(i);
        let mut pairs = |n: usize| {
            for p in row.chunks_exact(2) {
                f(&p[0], n);
                f(&p[1], TILE_B - n);
            }
        };
        match self.split[i] {
            1 => pairs(1),
            2 => pairs(2),
            3 => pairs(3),
            _ => row.iter().for_each(|s| f(s, s.len as usize)),
        }
    }
}

/// One serial sparse step `dst ← collide(bounce(pull(src)))` over the owned
/// tiles of `tiles`. `g` selects plain BGK (`[0; 3]`) or Guo forcing;
/// `use_simd` opts into the AVX2 tile collide (bitwise equal, see module
/// docs) when the host supports it.
pub fn step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| step_with(
        ctx, tiles, gt, src, dst, op, use_simd, false
    ));
}

/// Rayon-parallel sparse step: owned tiles are split into disjoint
/// contiguous chunks, each chunk running the serial tile body — bitwise
/// equal to [`step`] because every tile reads only `src` and writes only its
/// own `dst` frame. Call from inside the desired thread pool.
pub fn step_par(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| step_with(
        ctx, tiles, gt, src, dst, op, use_simd, true
    ));
}

#[allow(clippy::too_many_arguments)]
fn step_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    op: O,
    use_simd: bool,
    parallel: bool,
) {
    let q = ctx.lat.q();
    assert_eq!(src.q(), q, "src q mismatch");
    assert_eq!(dst.q(), q, "dst q mismatch");
    assert_eq!(src.tile_count(), tiles.tile_count(), "src tile mismatch");
    assert_eq!(dst.tile_count(), tiles.tile_count(), "dst tile mismatch");
    assert_eq!(gt.q, q, "gather table lattice mismatch");
    let oc = OpConsts::new(ctx, &op);
    if ctx.third_order() {
        step_impl::<true, O>(ctx, tiles, gt, src, dst, &oc, use_simd, parallel);
    } else {
        step_impl::<false, O>(ctx, tiles, gt, src, dst, &oc, use_simd, parallel);
    }
}

#[allow(clippy::too_many_arguments)]
fn step_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    src: &SparseField,
    dst: &mut SparseField,
    oc: &OpConsts,
    simd: bool,
    parallel: bool,
) {
    let q = ctx.lat.q();
    let frame = dst.frame_len();
    let total = dst.as_slice().len();
    let base = SendPtr(dst.as_mut_slice().as_mut_ptr());
    let src_data = src.as_slice();

    let run = move |list: &[usize], fast: bool| {
        let base = base; // capture the whole SendPtr, not its raw-ptr field
        let mut buf = [0.0f64; MAX_Q * TILE_CELLS];
        for (idx, &t) in list.iter().enumerate() {
            let nbrs = &tiles.neighbors[t];
            if let Some(&t_next) = list.get(idx + 1) {
                // The indirect gather defeats the hardware stride
                // prefetcher (the stream restarts at an arbitrary frame on
                // every tile), so touch the next tile's source frame — the
                // dominant gather source: every interior cell pulls from it
                // — and its neighbour row while this tile computes; the AA
                // and fused kernels' next-row pattern, adapted to tiles.
                prefetch_next_tile(src_data, tiles, t_next, frame);
            }
            if fast {
                gather_tile::<true>(q, gt, nbrs, src_data, &mut buf, |i| i);
            } else {
                gather_tile::<false>(q, gt, nbrs, src_data, &mut buf, |i| i);
            }
            debug_assert!((t + 1) * frame <= total);
            // SAFETY: the fast/slow lists partition the owned tiles and
            // chunks partition each list; each task writes only its own
            // tiles' frames, which are disjoint q·64-double frames of dst,
            // distinct from the stack `buf`.
            unsafe {
                let dstf = base.0.add(t * frame);
                let fluid = tiles.tiles[t].fluid;
                tile_cells::<THIRD, false, O>(ctx, oc, fluid, buf.as_ptr(), dstf, simd)
            };
        }
    };

    drive_tile_lists(&tiles.fast_owned, &tiles.slow_owned, parallel, run);
}

/// Run `work(sublist, is_fast)` over the fast and slow tile lists, either
/// serially or rayon-parallel. Chunks never straddle the class boundary, so
/// the branch-free fast body is not serialized behind rim tiles sharing its
/// chunk.
fn drive_tile_lists(
    fast: &[usize],
    slow: &[usize],
    parallel: bool,
    work: impl Fn(&[usize], bool) + Sync,
) {
    let n = fast.len() + slow.len();
    if !parallel || n <= 1 {
        work(fast, true);
        work(slow, false);
        return;
    }
    let chunks_of = |len: usize| -> usize {
        if len == 0 {
            0
        } else {
            (rayon::current_num_threads().max(1) * 4).min(len)
        }
    };
    let cf = chunks_of(fast.len());
    let cs = chunks_of(slow.len());
    (0..cf + cs).into_par_iter().for_each(|c| {
        let (list, chunks, c, is_fast) = if c < cf {
            (fast, cf, c, true)
        } else {
            (slow, cs, c - cf, false)
        };
        let (lo, hi) = chunk_bounds(0, list.len(), chunks, c);
        if lo < hi {
            work(&list[lo..hi], is_fast);
        }
    });
}

/// Software-prefetch the gather sources of tile `t_next`: its own source
/// frame (`q·TILE_CELLS` doubles — the self slot every interior cell pulls
/// through) and its neighbour-table row. Boundary cells also pull single
/// lines from adjacent frames; those are left to demand misses — touching
/// up to `TILE_NEIGHBORS` extra frames would evict more than it hides.
#[inline]
fn prefetch_next_tile(src: &[f64], tiles: &SparseTiles, t_next: usize, frame: usize) {
    let nbr = std::ptr::from_ref(&tiles.neighbors[t_next]).cast::<f64>();
    lanes::prefetch_span(nbr, 0, 1);
    let lo = t_next * frame;
    lanes::prefetch_span(src.as_ptr(), lo, (lo + frame).min(src.len()));
}

/// Pull-stream one tile into `buf[i·64 + c] ← src[(x − c_i, v(i))]`, where
/// `v(i)` is the stored velocity that holds the arrival (`i` for two-grid
/// storage, `opp(i)` for the AA odd step). Each merged segment is one
/// unit-stride copy from its neighbour's frame; an unallocated neighbour
/// (`-1`) contributes vacuum. `FAST` (every neighbour allocated, the
/// fast-class tiles) drops the vacuum test.
#[inline]
fn gather_tile<const FAST: bool>(
    q: usize,
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    src: &[f64],
    buf: &mut [f64],
    v: impl Fn(usize) -> usize,
) {
    assert!(buf.len() >= q * TILE_CELLS, "gather buffer too short");
    check_neighbors::<FAST>(nbrs, q, src.len());
    let zeros = [0.0f64; TILE_CELLS];
    for i in 0..q {
        let vi = v(i);
        debug_assert!(vi < q);
        gt.for_each_seg(i, |s, len| {
            let t = nbrs[s.slot as usize];
            let from = if !FAST && t < 0 {
                zeros.as_ptr()
            } else {
                // In frame `t` (checked above): segments stay inside a row.
                src.as_ptr()
                    .wrapping_add((t as usize * q + vi) * TILE_CELLS + s.src as usize)
            };
            let to = buf
                .as_mut_ptr()
                .wrapping_add(i * TILE_CELLS + s.dst as usize);
            // SAFETY: `to` and `from` address `len` doubles inside `buf`,
            // a source frame or `zeros` (checked above, plus the segment
            // plan's `dst + len, src + len ≤ 64`); `buf` is distinct from
            // both.
            unsafe { copy_run(to, from, len) };
        });
    }
}

/// Assert that every allocated neighbour of a tile has a whole `q·64`
/// frame inside a field of `len` doubles (and, for `FAST`, that every
/// neighbour is allocated), so the segment copies through `nbrs` stay in
/// bounds.
#[inline]
fn check_neighbors<const FAST: bool>(nbrs: &[i32; TILE_NEIGHBORS], q: usize, len: usize) {
    let frames = len / (q * TILE_CELLS);
    assert!(
        nbrs.iter()
            .all(|&t| if t < 0 { !FAST } else { (t as usize) < frames }),
        "neighbour tile outside the field"
    );
}

/// `len ≤ 64` doubles `src → dst` by inline moves: four at a time, then
/// the rest. Most segments are 1–3 doubles long (a z-shift splits every
/// z-line in two), where a `memcpy` call costs far more than the copy.
///
/// # Safety
/// `src` valid for `len` reads, `dst` for `len` writes, not overlapping.
#[inline(always)]
unsafe fn copy_run(dst: *mut f64, src: *const f64, len: usize) {
    let mut k = 0;
    // SAFETY: every access is below `len`, per the contract.
    unsafe {
        while k + 4 <= len {
            let v = src.add(k).cast::<[f64; 4]>().read_unaligned();
            dst.add(k).cast::<[f64; 4]>().write_unaligned(v);
            k += 4;
        }
        if len - k >= 2 {
            let v = src.add(k).cast::<[f64; 2]>().read_unaligned();
            dst.add(k).cast::<[f64; 2]>().write_unaligned(v);
            k += 2;
        }
        if k < len {
            *dst.add(k) = *src.add(k);
        }
    }
}

/// The streamed (pull) image of packed tile `t`: `buf[i·64 + c]` receives
/// exactly what the fused two-grid step would gather before bouncing and
/// colliding, vacuum zeros included. Sparse AA storage holds this image
/// directly at even-parity boundaries, so cross-storage equivalence checks
/// compare an AA frame against `streamed_tile` of the two-grid state.
pub fn streamed_tile(
    q: usize,
    gt: &GatherTable,
    tiles: &SparseTiles,
    f: &SparseField,
    t: usize,
    buf: &mut [f64],
) {
    gather_tile::<false>(q, gt, &tiles.neighbors[t], f.as_slice(), buf, |i| i);
}

/// The tile body: BGK/Guo collide on fluid cells (the one cell body of
/// [`crate::kernels::op`]) from the `q·64`-double frame at `buf` into the
/// frame at `dst`. Solid cells store the full-way bounce-back of `buf` —
/// or, with `SWAP` (the AA even step, `buf == dst`), collide results go to
/// the opposite slots and solid cells are left as they are. With `simd` the
/// body runs on 4-wide z-lines of `Avx2<false>` lanes — unfused, so bitwise
/// equal to `Scalar` lanes — and a line mixing fluid and solid cells blends
/// the two by the fluid bitmap.
///
/// # Safety
/// `buf` must be valid for `q·64` reads and `dst` for `q·64` writes, owned
/// by the caller; they are either disjoint or (only with `SWAP`) equal.
unsafe fn tile_cells<const THIRD: bool, const SWAP: bool, O: CollideOp>(
    ctx: &KernelCtx,
    oc: &OpConsts,
    fluid: u64,
    buf: *const f64,
    dst: *mut f64,
    simd: bool,
) {
    let k = TileCells::<THIRD, SWAP, O> {
        ctx,
        oc,
        fluid,
        buf,
        dst,
        op: PhantomData,
    };
    // SAFETY: forwarded contract.
    unsafe { lanes::dispatch::<_, false>(&k, simd) };
}

/// One tile's collide (see [`tile_cells`]).
struct TileCells<'a, const THIRD: bool, const SWAP: bool, O> {
    ctx: &'a KernelCtx,
    oc: &'a OpConsts,
    fluid: u64,
    buf: *const f64,
    dst: *mut f64,
    op: PhantomData<O>,
}

impl<const THIRD: bool, const SWAP: bool, O: CollideOp> LaneKernel
    for TileCells<'_, THIRD, SWAP, O>
{
    #[inline(always)]
    unsafe fn run<L: Lanes>(&self) {
        let kc = CellKernel::<L, THIRD, O>::new(self.ctx, self.oc);
        let all = (1u64 << L::N) - 1;
        for off in (0..TILE_CELLS).step_by(L::N) {
            let bits = (self.fluid >> off) & all;
            let line = |bits| TileLine::<SWAP> {
                buf: self.buf.wrapping_add(off),
                dst: self.dst.wrapping_add(off),
                opp: &self.oc.opp,
                bits,
            };
            // SAFETY: i·64 + off + N ≤ q·64 for every velocity i.
            unsafe {
                if bits == all {
                    collide_group::<L, THIRD, SWAP, O, _>(&kc.k, self.oc, kc.q, &line(None));
                } else if bits != 0 {
                    let mixed = line(Some(bits));
                    collide_group::<L, THIRD, SWAP, O, _>(&kc.k, self.oc, kc.q, &mixed);
                } else if !SWAP {
                    // All-solid line: every lane stores its bounce-back (with
                    // SWAP the swapped bounce is the identity: nothing to do).
                    let solid = line(Some(0));
                    for i in 0..kc.q {
                        solid.store(i, L::splat(0.0));
                    }
                }
            }
        }
    }
}

/// One z-line of a tile: velocity `i` at `buf/dst[i·64 + off ..][..N]`.
/// In the lanes whose `bits` are clear (all lanes collide when `bits` is
/// `None`) a store to slot `i` keeps `buf[opp(i)·64 + off]`, the bounce
/// back — or with `SWAP`, the slot's own value.
struct TileLine<'a, const SWAP: bool> {
    buf: *const f64,
    dst: *mut f64,
    opp: &'a [usize; MAX_Q],
    bits: Option<u64>,
}

impl<L: Lanes, const SWAP: bool> Slots<L> for TileLine<'_, SWAP> {
    #[inline(always)]
    unsafe fn load(&self, i: usize) -> L {
        // SAFETY: in-frame per the caller.
        unsafe { L::load(self.buf.add(i * TILE_CELLS)) }
    }
    #[inline(always)]
    unsafe fn store(&self, i: usize, v: L) {
        // SAFETY: in-frame per the caller. With SWAP a slot is stored once,
        // after its pair's loads, so `load(i)` still reads the old value.
        unsafe {
            let out = match self.bits {
                None => v,
                Some(bits) => {
                    let keep = if SWAP { i } else { self.opp[i] };
                    L::blend(bits, v, L::load(self.buf.add(keep * TILE_CELLS)))
                }
            };
            out.store(self.dst.add(i * TILE_CELLS));
        }
    }
}

// ---------------------------------------------------------------------------
// In-place AA-pattern storage: one frame per tile, no src/dst pair.
//
// Slot convention (the sparse transcription of `kernels::aa`): at *even*
// parity, slot `(P, i)` holds the post-stream population `f_i(P)` — the
// streamed image of the two-grid state. The even step collides each cell
// locally and stores the result velocity-swapped (`slot (P, opp(i)) ←
// f*_i(P)`); the odd step is the in-place stream+collide+stream: writer `x`
// gathers slot `(x − c_j, opp(j))` (= the streamed `f_j(x)`), collides, and
// scatters slot `(x + c_i, i) ← f**_i(x)`, restoring even parity.
//
// Correctness hinges on slot ownership: slot `(P, i)` is gathered by exactly
// the writer `x = P − c_i` and scattered by exactly the same `x`, so a
// writer's read set equals its write set and distinct writers touch disjoint
// slots — gather-before-scatter per tile makes the whole pass race-free
// across tiles, threads and ranks with no special wall handling. Solid
// cells are strict no-ops both phases (the even bounce + swapped store is
// the identity on their slots); a fluid writer's scatter into a solid
// neighbour's slot is the in-flight bounce-back storage that the same
// writer re-gathers next odd step — full-way bounce-back with the two-grid
// delay, bitwise.
// ---------------------------------------------------------------------------

/// Even (in-place, local) AA step over the owned fluid tiles: collide every
/// cell and store the result velocity-swapped into the same frame. Rim
/// tiles are untouched (the swapped bounce store is the identity there).
pub fn aa_even_step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| aa_even_with(ctx, tiles, f, op, use_simd, false));
}

/// Rayon-parallel [`aa_even_step`]: bitwise equal — every tile touches only
/// its own frame. Call from inside the desired thread pool.
pub fn aa_even_step_par(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| aa_even_with(ctx, tiles, f, op, use_simd, true));
}

/// Odd (in-place, streaming) AA step: gather through the neighbour table at
/// the opposite velocity, collide, scatter velocity-forward. Computes the
/// owned fluid tiles plus the adjacent ghost-writer tiles (distributed
/// builds), whose shallow cells duplicate the neighbour rank's scatter into
/// our boundary slots.
pub fn aa_odd_step(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| aa_odd_with(ctx, tiles, gt, f, op, use_simd, false));
}

/// Rayon-parallel [`aa_odd_step`]: bitwise equal by the slot-ownership
/// argument in the section docs. Call from inside the desired thread pool.
pub fn aa_odd_step_par(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    g: [f64; 3],
    use_simd: bool,
) {
    with_op!(g, |op| aa_odd_with(ctx, tiles, gt, f, op, use_simd, true));
}

fn aa_even_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    op: O,
    use_simd: bool,
    parallel: bool,
) {
    let q = ctx.lat.q();
    assert_eq!(f.q(), q, "field q mismatch");
    assert_eq!(f.tile_count(), tiles.tile_count(), "field tile mismatch");
    let oc = OpConsts::new(ctx, &op);
    if ctx.third_order() {
        aa_even_impl::<true, O>(ctx, tiles, f, &oc, use_simd, parallel);
    } else {
        aa_even_impl::<false, O>(ctx, tiles, f, &oc, use_simd, parallel);
    }
}

fn aa_even_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    oc: &OpConsts,
    simd: bool,
    parallel: bool,
) {
    let frame = f.frame_len();
    let total = f.as_slice().len();
    let base = SendPtr(f.as_mut_slice().as_mut_ptr());

    let run = move |list: &[usize], _fast: bool| {
        let base = base;
        for &t in list {
            debug_assert!((t + 1) * frame <= total);
            // SAFETY: the even step collides the tile's own frame in place
            // (the AA cross-store) and the work lists partition distinct
            // tiles across tasks.
            unsafe {
                let fr = base.0.add(t * frame);
                tile_cells::<THIRD, true, O>(ctx, oc, tiles.tiles[t].fluid, fr, fr, simd);
            }
        }
    };
    drive_tile_lists(&tiles.aa_even_fast, &tiles.aa_even_slow, parallel, run);
}

#[allow(clippy::too_many_arguments)]
fn aa_odd_with<O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    op: O,
    use_simd: bool,
    parallel: bool,
) {
    let q = ctx.lat.q();
    assert_eq!(f.q(), q, "field q mismatch");
    assert_eq!(f.tile_count(), tiles.tile_count(), "field tile mismatch");
    assert_eq!(gt.q, q, "gather table lattice mismatch");
    let oc = OpConsts::new(ctx, &op);
    if ctx.third_order() {
        aa_odd_impl::<true, O>(ctx, tiles, gt, f, &oc, use_simd, parallel);
    } else {
        aa_odd_impl::<false, O>(ctx, tiles, gt, f, &oc, use_simd, parallel);
    }
}

#[allow(clippy::too_many_arguments)]
fn aa_odd_impl<const THIRD: bool, O: CollideOp>(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    oc: &OpConsts,
    simd: bool,
    parallel: bool,
) {
    let q = ctx.lat.q();
    let frame = f.frame_len();
    let total = f.as_slice().len();
    let base = SendPtr(f.as_mut_slice().as_mut_ptr());

    let run = move |list: &[usize], fast: bool| {
        let base = base;
        let mut buf = [0.0f64; MAX_Q * TILE_CELLS];
        let mut out = [0.0f64; MAX_Q * TILE_CELLS];
        for (idx, &t) in list.iter().enumerate() {
            let nbrs = &tiles.neighbors[t];
            // SAFETY: slot `(P, i)` is read only by writer `P − c_i` and
            // written only by the same writer (section docs); the work
            // lists assign each writer cell to exactly one task and every
            // tile gathers all of its slots before scattering any, so no
            // location is concurrently read and written by different tasks.
            let src = unsafe { std::slice::from_raw_parts(base.0.cast_const(), total) };
            if let Some(&t_next) = list.get(idx + 1) {
                prefetch_next_tile(src, tiles, t_next, frame);
            }
            // Odd-step pull: `buf[j·64 + c] ← field[(x − c_j, opp(j))]`
            // (vacuum for unallocated sources, which only ever feeds
            // discarded solid/deep-ghost outputs).
            if fast {
                gather_tile::<true>(q, gt, nbrs, src, &mut buf, |j| oc.opp[j]);
            } else {
                gather_tile::<false>(q, gt, nbrs, src, &mut buf, |j| oc.opp[j]);
            }
            let fluid = tiles.tiles[t].fluid;
            let outf = &mut out[..frame];
            // SAFETY: `buf` and `outf` are distinct q·64-double frames.
            unsafe {
                tile_cells::<THIRD, false, O>(ctx, oc, fluid, buf.as_ptr(), outf.as_mut_ptr(), simd)
            };
            // SAFETY: scatter targets are the writer-owned slots above.
            unsafe {
                if fast {
                    scatter_tile_aa::<true>(q, &oc.opp, gt, nbrs, fluid, outf, base.0, total);
                } else {
                    scatter_tile_aa::<false>(q, &oc.opp, gt, nbrs, fluid, outf, base.0, total);
                }
            }
        }
    };
    drive_tile_lists(&tiles.aa_odd_fast, &tiles.aa_odd_slow, parallel, run);
}

/// Odd-step push: `field[(x + c_i, i)] ← out[i·64 + c]` for the fluid
/// writer cells, through the segment plan of `opp(i)` (whose pull offset is
/// the push offset of `i`): a segment of all-fluid writers is one copy,
/// otherwise its fluid writers store one by one. A `-1` target (deep ghost
/// writer past the halo) is discarded — the owning rank computes that slot
/// itself. `FAST` (all cells fluid, every neighbour allocated) copies every
/// segment whole.
///
/// # Safety
/// Caller must uphold the slot-ownership partition documented on the
/// section: the written slots belong exclusively to this tile's writers.
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn scatter_tile_aa<const FAST: bool>(
    q: usize,
    opp: &[usize; MAX_Q],
    gt: &GatherTable,
    nbrs: &[i32; TILE_NEIGHBORS],
    fluid: u64,
    out: &[f64],
    base: *mut f64,
    total: usize,
) {
    assert!(out.len() >= q * TILE_CELLS, "scatter frame too short");
    check_neighbors::<FAST>(nbrs, q, total);
    for i in 0..q {
        gt.for_each_seg(opp[i], |s, len| {
            let t = nbrs[s.slot as usize];
            if !FAST && t < 0 {
                return;
            }
            let d = s.dst as usize;
            let from = out.as_ptr().wrapping_add(i * TILE_CELLS + d);
            let to = base.wrapping_add((t as usize * q + i) * TILE_CELLS + s.src as usize);
            let seg = (u64::MAX >> (TILE_CELLS - len)) << d;
            let mut writers = fluid & seg;
            // SAFETY: `len` doubles from `from` lie in `out` and from `to`
            // in frame `t` (checked above, plus the segment plan's bounds);
            // exclusivity per the function contract.
            unsafe {
                if FAST || writers == seg {
                    copy_run(to, from, len);
                    return;
                }
                while writers != 0 {
                    let c = writers.trailing_zeros() as usize - d;
                    writers &= writers - 1;
                    *to.add(c) = *from.add(c);
                }
            }
        });
    }
}

/// Initialise a field to *even-parity AA state* — the streamed image of the
/// two-grid equilibrium init: slot `(P, i) ← feq_i(state(P − c_i))` when
/// the source cell's tile is allocated, else `0.0`. Matching
/// [`init_equilibrium`] + one pull-stream bitwise, so an AA run and a
/// two-grid run started from the same `state` stay comparable step for
/// step. Ghost frames get the same rule where the source is locally
/// addressable (they are overwritten by the halo exchange before first
/// use).
pub fn init_equilibrium_aa(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    f: &mut SparseField,
    gdims: Dim3,
    state: impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
) {
    assert_eq!(f.tile_count(), tiles.tile_count());
    let td = tiles.tdims;
    let (lnx, lny, lnz) = (td.nx * TILE_B, td.ny * TILE_B, td.nz * TILE_B);
    let vels = ctx.lat.velocities().to_vec();
    for t in 0..tiles.tile_count() {
        let ti = tiles.tiles[t];
        let frame = f.frame_mut(t);
        for lx in 0..TILE_B {
            let x = ti.tx * TILE_B + lx;
            for ly in 0..TILE_B {
                let y = ti.ty * TILE_B + ly;
                for lz in 0..TILE_B {
                    let z = ti.tz * TILE_B + lz;
                    let c = tile_cell(lx, ly, lz);
                    for (i, cv) in vels.iter().enumerate() {
                        let sxi = x as isize - cv[0] as isize;
                        let sx = if tiles.ghost_cols == 0 {
                            Some(sxi.rem_euclid(lnx as isize) as usize)
                        } else if (0..lnx as isize).contains(&sxi) {
                            Some(sxi as usize)
                        } else {
                            None
                        };
                        let sy = (y as isize - cv[1] as isize).rem_euclid(lny as isize) as usize;
                        let sz = (z as isize - cv[2] as isize).rem_euclid(lnz as isize) as usize;
                        frame[i * TILE_CELLS + c] = match sx {
                            None => 0.0,
                            Some(sx) => {
                                let tt =
                                    tiles.tile_of[td.idx(sx / TILE_B, sy / TILE_B, sz / TILE_B)];
                                if tt < 0 {
                                    0.0
                                } else {
                                    let gx = tiles.global_cell_x(sx, gdims.nx);
                                    let (rho, u) = state(gx, sy, sz);
                                    feq_i(&ctx.lat, ctx.order, i, rho, u)
                                }
                            }
                        };
                    }
                }
            }
        }
    }
}

/// Initialise every stored cell of every packed tile to the equilibrium of
/// `state(gx, gy, gz)` — the same `feq_i` evaluation as the dense
/// [`crate::init::from_macroscopic`] — then zero the *escaping* slots of
/// owned tiles (slot `i` of cell `P` where `P + c_i` falls in an
/// unallocated tile). Nothing ever reads an escaping slot and each step
/// rewrites it to the vacuum pull (zero), so zeroing them at init makes the
/// stored mass exactly conserved from step 0.
pub fn init_equilibrium(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
    gdims: Dim3,
    state: impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
) {
    let q = ctx.lat.q();
    assert_eq!(f.tile_count(), tiles.tile_count());
    for t in 0..tiles.tile_count() {
        let ti = tiles.tiles[t];
        let frame = f.frame_mut(t);
        for lx in 0..TILE_B {
            let gx = tiles.global_cell_x(ti.tx * TILE_B + lx, gdims.nx);
            for ly in 0..TILE_B {
                let gy = ti.ty * TILE_B + ly;
                for lz in 0..TILE_B {
                    let gz = ti.tz * TILE_B + lz;
                    let (rho, u) = state(gx, gy, gz);
                    let c = tile_cell(lx, ly, lz);
                    for i in 0..q {
                        frame[i * TILE_CELLS + c] = feq_i(&ctx.lat, ctx.order, i, rho, u);
                    }
                }
            }
        }
    }
    zero_escaping_slots(ctx, tiles, gt, f);
}

/// Zero the escaping slots of the owned tiles (see [`init_equilibrium`]).
/// Ghost tiles are skipped: their frames are overwritten by the halo
/// exchange before every step.
pub fn zero_escaping_slots(
    ctx: &KernelCtx,
    tiles: &SparseTiles,
    gt: &GatherTable,
    f: &mut SparseField,
) {
    let q = ctx.lat.q();
    // Slot i of cell c escapes iff the *forward* target tile is
    // unallocated; the forward offset of i is the pull offset of opp(i),
    // so reuse the gather table rows of the opposites.
    let opp: Vec<usize> = (0..q).map(|i| ctx.lat.opposite(i)).collect();
    for t in 0..tiles.owned_tiles {
        let nbrs = tiles.neighbors[t];
        let frame = f.frame_mut(t);
        for (i, &oi) in opp.iter().enumerate() {
            let row = gt.row(oi);
            for (c, &(slot, _)) in row.iter().enumerate() {
                if nbrs[slot as usize] < 0 {
                    frame[i * TILE_CELLS + c] = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::geometry::Geometry;
    use crate::index::wrap;
    use crate::lattice::LatticeKind;

    fn ctx_for(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
    }

    fn smooth_state(d: Dim3) -> impl Fn(usize, usize, usize) -> (f64, [f64; 3]) {
        move |x, y, z| {
            let tau = std::f64::consts::TAU;
            let fx = x as f64 / d.nx as f64 * tau;
            let fy = y as f64 / d.ny as f64 * tau;
            let fz = z as f64 / d.nz as f64 * tau;
            (
                1.0 + 0.05 * fx.sin() * fy.cos(),
                [0.02 * fy.sin(), -0.01 * fz.cos(), 0.015 * fx.sin()],
            )
        }
    }

    /// Textbook dense periodic reference on the full box: pull-stream with
    /// vacuum outside the allocated tile set, bounce solids, collide fluid
    /// with the identical scalar arithmetic. Ground truth for the packed
    /// indirect-addressing machinery.
    struct DenseRef {
        d: Dim3,
        q: usize,
        stored: Vec<bool>,
        fluid: Vec<bool>,
        f: Vec<f64>, // [cell * q + i]
    }

    impl DenseRef {
        fn new(ctx: &KernelCtx, geom: &Geometry, tiles: &SparseTiles) -> Self {
            let d = geom.dims();
            let q = ctx.lat.q();
            let mut stored = vec![false; d.nx * d.ny * d.nz];
            let mut fluid = vec![false; d.nx * d.ny * d.nz];
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let t = tiles.tile_of[tiles.tdims.idx(x / TILE_B, y / TILE_B, z / TILE_B)];
                        stored[d.idx(x, y, z)] = t >= 0;
                        fluid[d.idx(x, y, z)] = geom.is_fluid(x, y, z);
                    }
                }
            }
            Self {
                d,
                q,
                stored,
                fluid,
                f: vec![0.0; d.nx * d.ny * d.nz * q],
            }
        }

        fn init(
            &mut self,
            ctx: &KernelCtx,
            state: &impl Fn(usize, usize, usize) -> (f64, [f64; 3]),
        ) {
            let (d, q) = (self.d, self.q);
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let cell = d.idx(x, y, z);
                        if !self.stored[cell] {
                            continue;
                        }
                        let (rho, u) = state(x, y, z);
                        for i in 0..q {
                            self.f[cell * q + i] = feq_i(&ctx.lat, ctx.order, i, rho, u);
                        }
                    }
                }
            }
            // Zero escaping slots like the sparse init.
            let next = self.escape_zeroed(ctx);
            self.f = next;
        }

        fn escape_zeroed(&self, ctx: &KernelCtx) -> Vec<f64> {
            let (d, q) = (self.d, self.q);
            let mut out = self.f.clone();
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let cell = d.idx(x, y, z);
                        if !self.stored[cell] {
                            continue;
                        }
                        for (i, c) in ctx.lat.velocities().iter().enumerate() {
                            let tx = wrap(x, c[0], d.nx);
                            let ty = wrap(y, c[1], d.ny);
                            let tz = wrap(z, c[2], d.nz);
                            if !self.stored[d.idx(tx, ty, tz)] {
                                out[cell * q + i] = 0.0;
                            }
                        }
                    }
                }
            }
            out
        }

        fn step(&mut self, ctx: &KernelCtx, g: [f64; 3]) {
            let (d, q) = (self.d, self.q);
            let k = &ctx.consts;
            let omega = ctx.omega;
            let third = ctx.third_order();
            let oc = with_op!(g, |op| OpConsts::new(ctx, &op));
            let forced = g != [0.0; 3];
            let src = self.f.clone();
            let mut streamed = vec![0.0f64; MAX_Q];
            for x in 0..d.nx {
                for y in 0..d.ny {
                    for z in 0..d.nz {
                        let cell = d.idx(x, y, z);
                        if !self.stored[cell] {
                            continue;
                        }
                        for (i, c) in ctx.lat.velocities().iter().enumerate() {
                            let sx = wrap(x, -c[0], d.nx);
                            let sy = wrap(y, -c[1], d.ny);
                            let sz = wrap(z, -c[2], d.nz);
                            let s = d.idx(sx, sy, sz);
                            streamed[i] = if self.stored[s] { src[s * q + i] } else { 0.0 };
                        }
                        if !self.fluid[cell] {
                            for i in 0..q {
                                self.f[cell * q + i] = streamed[oc.opp[i]];
                            }
                            continue;
                        }
                        let mut rho = 0.0;
                        let (mut mx, mut my, mut mz) = (0.0, 0.0, 0.0);
                        for i in 0..q {
                            let cc = oc.cw[i];
                            let fv = streamed[i];
                            rho += fv;
                            mx += fv * cc[0];
                            my += fv * cc[1];
                            mz += fv * cc[2];
                        }
                        let inv = 1.0 / rho;
                        let (ux, uy, uz, ug);
                        if forced {
                            ux = (mx + oc.half_g[0]) * inv;
                            uy = (my + oc.half_g[1]) * inv;
                            uz = (mz + oc.half_g[2]) * inv;
                            ug = ux * oc.g[0] + uy * oc.g[1] + uz * oc.g[2];
                        } else {
                            ux = mx * inv;
                            uy = my * inv;
                            uz = mz * inv;
                            ug = 0.0;
                        }
                        let u2 = ux * ux + uy * uy + uz * uz;
                        for i in 0..q {
                            let cc = oc.cw[i];
                            let xi = cc[0] * ux + cc[1] * uy + cc[2] * uz;
                            let mut poly =
                                1.0 + xi * k.inv_cs2 + xi * xi * k.inv_2cs4 - u2 * k.inv_2cs2;
                            if third {
                                poly += xi * (xi * xi - 3.0 * k.cs2 * u2) * k.inv_6cs6;
                            }
                            let feq = cc[3] * rho * poly;
                            let fv = streamed[i];
                            let mut next = fv + omega * (feq - fv);
                            if forced {
                                next += oc.sa[i] - oc.sb[i] * ug + oc.sc[i] * xi;
                            }
                            self.f[cell * q + i] = next;
                        }
                    }
                }
            }
        }
    }

    fn sparse_setup(
        ctx: &KernelCtx,
        geom: &Geometry,
    ) -> (SparseTiles, GatherTable, SparseField, SparseField) {
        let tiles = SparseTiles::build_serial(geom).unwrap();
        let gt = GatherTable::new(&ctx.lat);
        let q = ctx.lat.q();
        let mut f = SparseField::new(q, tiles.tile_count()).unwrap();
        let dst = SparseField::new(q, tiles.tile_count()).unwrap();
        init_equilibrium(
            ctx,
            &tiles,
            &gt,
            &mut f,
            geom.dims(),
            smooth_state(geom.dims()),
        );
        (tiles, gt, f, dst)
    }

    fn assert_matches_dense(kind: LatticeKind, geom: &Geometry, g: [f64; 3], steps: usize) {
        let ctx = ctx_for(kind);
        let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, geom);
        let mut dref = DenseRef::new(&ctx, geom, &tiles);
        let state = smooth_state(geom.dims());
        dref.init(&ctx, &state);
        for _ in 0..steps {
            step(&ctx, &tiles, &gt, &f, &mut tmp, g, false);
            std::mem::swap(&mut f, &mut tmp);
            dref.step(&ctx, g);
        }
        let q = ctx.lat.q();
        let d = geom.dims();
        let mut cell = vec![0.0f64; q];
        let mut checked = 0usize;
        for (t, ti) in tiles.tiles.iter().enumerate() {
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    for lz in 0..TILE_B {
                        let (x, y, z) = (
                            ti.tx * TILE_B + lx,
                            ti.ty * TILE_B + ly,
                            ti.tz * TILE_B + lz,
                        );
                        f.gather_cell(t, tile_cell(lx, ly, lz), &mut cell);
                        for i in 0..q {
                            let want = dref.f[d.idx(x, y, z) * q + i];
                            assert!(
                                cell[i].to_bits() == want.to_bits(),
                                "{kind:?} cell ({x},{y},{z}) i={i}: sparse {} dense {}",
                                cell[i],
                                want
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn sparse_matches_dense_reference_pipe() {
        let geom = Geometry::pipe(
            Dim3 {
                nx: 8,
                ny: 16,
                nz: 16,
            },
            5.0,
        )
        .unwrap();
        assert_matches_dense(LatticeKind::D3Q19, &geom, [0.0; 3], 3);
        assert_matches_dense(LatticeKind::D3Q19, &geom, [1e-5, 0.0, 0.0], 3);
        assert_matches_dense(LatticeKind::D3Q39, &geom, [0.0; 3], 2);
        assert_matches_dense(LatticeKind::D3Q39, &geom, [1e-5, 2e-6, 0.0], 2);
    }

    #[test]
    fn sparse_matches_dense_reference_porous_and_bifurcation() {
        let d = Dim3 {
            nx: 16,
            ny: 16,
            nz: 16,
        };
        let geom = Geometry::porous(d, 2.5, 0.15, 11).unwrap();
        assert_matches_dense(LatticeKind::D3Q27, &geom, [0.0, 1e-5, 0.0], 2);
        let geom = Geometry::bifurcation(
            Dim3 {
                nx: 24,
                ny: 24,
                nz: 16,
            },
            6.0,
            3.5,
        )
        .unwrap();
        assert_matches_dense(LatticeKind::D3Q15, &geom, [1e-5, 0.0, 0.0], 2);
    }

    #[test]
    fn simd_and_par_are_bitwise_equal_to_scalar() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let ctx = ctx_for(kind);
            let geom = Geometry::pipe(
                Dim3 {
                    nx: 8,
                    ny: 16,
                    nz: 16,
                },
                6.0,
            )
            .unwrap();
            let g = [1e-5, 0.0, 3e-6];
            let (tiles, gt, f, _) = sparse_setup(&ctx, &geom);
            let n = tiles.tile_count();
            let q = ctx.lat.q();
            let mut scalar = SparseField::new(q, n).unwrap();
            let mut simd = SparseField::new(q, n).unwrap();
            let mut par = SparseField::new(q, n).unwrap();
            step(&ctx, &tiles, &gt, &f, &mut scalar, g, false);
            step(&ctx, &tiles, &gt, &f, &mut simd, g, true);
            step_par(&ctx, &tiles, &gt, &f, &mut par, g, false);
            for t in 0..tiles.owned_tiles {
                assert_eq!(
                    scalar.frame(t),
                    par.frame(t),
                    "{kind:?} par tile {t} differs"
                );
                if crate::kernels::simd::simd_available() {
                    for (a, b) in scalar.frame(t).iter().zip(simd.frame(t)) {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{kind:?} simd differs: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stored_mass_is_conserved_exactly_in_structure() {
        // With escaping slots zeroed at init, no stored slot ever streams
        // to nowhere: total stored mass moves only through collide roundoff.
        let ctx = ctx_for(LatticeKind::D3Q19);
        let geom = Geometry::porous(
            Dim3 {
                nx: 16,
                ny: 16,
                nz: 16,
            },
            2.0,
            0.1,
            5,
        )
        .unwrap();
        let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, &geom);
        let mass = |f: &SparseField| -> f64 {
            (0..tiles.owned_tiles)
                .map(|t| f.frame(t).iter().sum::<f64>())
                .sum()
        };
        let m0 = mass(&f);
        for _ in 0..20 {
            step(&ctx, &tiles, &gt, &f, &mut tmp, [1e-5, 0.0, 0.0], false);
            std::mem::swap(&mut f, &mut tmp);
        }
        let m1 = mass(&f);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "stored mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn single_fluid_cell_tile_stays_finite_and_conservative() {
        let ctx = ctx_for(LatticeKind::D3Q19);
        let geom = Geometry::from_fn(
            Dim3 {
                nx: 8,
                ny: 8,
                nz: 8,
            },
            |x, y, z| (x, y, z) == (4, 4, 4),
        )
        .unwrap();
        let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, &geom);
        assert_eq!(tiles.owned_fluid_cells, 1);
        let mass = |f: &SparseField| -> f64 {
            (0..tiles.owned_tiles)
                .map(|t| f.frame(t).iter().sum::<f64>())
                .sum()
        };
        let m0 = mass(&f);
        for _ in 0..10 {
            step(&ctx, &tiles, &gt, &f, &mut tmp, [0.0; 3], false);
            std::mem::swap(&mut f, &mut tmp);
        }
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
        // The cell trades populations with its bounce-back rim, but the
        // total stored mass is exact.
        assert!(((mass(&f) - m0) / m0).abs() < 1e-12);
        // And the fluid cell itself stays near unit density.
        let mut cell = vec![0.0f64; ctx.lat.q()];
        let t = tiles.tile_of[tiles.tdims.idx(1, 1, 1)] as usize;
        f.gather_cell(t, tile_cell(0, 0, 0), &mut cell);
        let rho: f64 = cell.iter().sum();
        assert!((rho - 1.0).abs() < 0.05, "rho {rho}");
    }

    /// Clone with the fast path disabled: every tile classified slow, so
    /// the step runs the per-cell gather walk everywhere.
    fn force_slow(tiles: &SparseTiles) -> SparseTiles {
        let mut t = tiles.clone();
        let demote = |fast: &mut Vec<usize>, slow: &mut Vec<usize>| {
            let mut all: Vec<usize> = fast.drain(..).chain(slow.drain(..)).collect();
            all.sort_unstable();
            *slow = all;
        };
        let (ef, es) = (&mut t.aa_even_fast, &mut t.aa_even_slow);
        demote(ef, es);
        let (of, os) = (&mut t.aa_odd_fast, &mut t.aa_odd_slow);
        demote(of, os);
        let (ff, fs) = (&mut t.fast_owned, &mut t.slow_owned);
        demote(ff, fs);
        t
    }

    #[test]
    fn segments_reproduce_gather_rows() {
        for kind in [
            LatticeKind::D3Q15,
            LatticeKind::D3Q19,
            LatticeKind::D3Q27,
            LatticeKind::D3Q39,
        ] {
            let lat = Lattice::new(kind);
            let gt = GatherTable::new(&lat);
            for i in 0..gt.q {
                // Exactly the z-shifted velocities take the fixed-split path.
                assert_eq!(
                    gt.split[i] != 0,
                    lat.velocities()[i][2] != 0,
                    "{kind:?} i={i}"
                );
                let row = gt.row(i);
                let mut covered = 0usize;
                for s in gt.seg_row(i) {
                    for k in 0..s.len as usize {
                        let (slot, sc) = row[s.dst as usize + k];
                        assert_eq!(slot, s.slot);
                        assert_eq!(sc as usize, s.src as usize + k);
                        covered += 1;
                    }
                }
                assert_eq!(covered, TILE_CELLS, "{kind:?} i={i} segments leak");
            }
        }
    }

    #[test]
    fn fast_path_is_bitwise_equal_to_gather_path() {
        // Wide pipe: plenty of interior (fast) tiles plus wall (slow) ones.
        let d = Dim3 {
            nx: 8,
            ny: 24,
            nz: 24,
        };
        for (kind, g) in [
            (LatticeKind::D3Q15, [1e-5, 0.0, 0.0]),
            (LatticeKind::D3Q19, [0.0; 3]),
            (LatticeKind::D3Q27, [0.0, 2e-6, 0.0]),
            (LatticeKind::D3Q39, [1e-5, 0.0, 3e-6]),
        ] {
            let ctx = ctx_for(kind);
            let geom = Geometry::pipe(d, 10.0).unwrap();
            let (tiles, gt, f, _) = sparse_setup(&ctx, &geom);
            assert!(!tiles.fast_owned.is_empty(), "{kind:?} no fast tiles");
            let slow_tiles = force_slow(&tiles);
            let q = ctx.lat.q();
            let n = tiles.tile_count();
            let mut a = SparseField::new(q, n).unwrap();
            let mut b = SparseField::new(q, n).unwrap();
            for simd in [false, true] {
                step(&ctx, &tiles, &gt, &f, &mut a, g, simd);
                step(&ctx, &slow_tiles, &gt, &f, &mut b, g, simd);
                assert_eq!(a.as_slice(), b.as_slice(), "{kind:?} simd={simd}");
                step_par(&ctx, &tiles, &gt, &f, &mut b, g, simd);
                assert_eq!(a.as_slice(), b.as_slice(), "{kind:?} par simd={simd}");
            }
        }
    }

    /// Run `pairs` AA even/odd pairs in place.
    #[allow(clippy::too_many_arguments)]
    fn run_aa_pairs(
        ctx: &KernelCtx,
        tiles: &SparseTiles,
        gt: &GatherTable,
        f: &mut SparseField,
        g: [f64; 3],
        pairs: usize,
        simd: bool,
        par: bool,
    ) {
        for _ in 0..pairs {
            if par {
                aa_even_step_par(ctx, tiles, f, g, simd);
                aa_odd_step_par(ctx, tiles, gt, f, g, simd);
            } else {
                aa_even_step(ctx, tiles, f, g, simd);
                aa_odd_step(ctx, tiles, gt, f, g, simd);
            }
        }
    }

    #[test]
    fn aa_pairs_match_two_grid_streamed_image() {
        for (kind, geom, g) in [
            (
                LatticeKind::D3Q19,
                Geometry::pipe(
                    Dim3 {
                        nx: 8,
                        ny: 16,
                        nz: 16,
                    },
                    5.0,
                )
                .unwrap(),
                [1e-5, 0.0, 0.0],
            ),
            (
                LatticeKind::D3Q39,
                Geometry::pipe(
                    Dim3 {
                        nx: 8,
                        ny: 16,
                        nz: 16,
                    },
                    5.0,
                )
                .unwrap(),
                [0.0; 3],
            ),
            (
                LatticeKind::D3Q27,
                Geometry::porous(
                    Dim3 {
                        nx: 16,
                        ny: 16,
                        nz: 16,
                    },
                    2.5,
                    0.15,
                    11,
                )
                .unwrap(),
                [0.0, 1e-5, 0.0],
            ),
            (
                LatticeKind::D3Q15,
                Geometry::bifurcation(
                    Dim3 {
                        nx: 24,
                        ny: 24,
                        nz: 16,
                    },
                    6.0,
                    3.5,
                )
                .unwrap(),
                [1e-5, 0.0, 0.0],
            ),
        ] {
            let ctx = ctx_for(kind);
            let (tiles, gt, mut f, mut tmp) = sparse_setup(&ctx, &geom);
            let q = ctx.lat.q();
            let mut aa = SparseField::new(q, tiles.tile_count()).unwrap();
            init_equilibrium_aa(
                &ctx,
                &tiles,
                &mut aa,
                geom.dims(),
                smooth_state(geom.dims()),
            );
            let pairs = 3;
            for _ in 0..2 * pairs {
                step(&ctx, &tiles, &gt, &f, &mut tmp, g, false);
                std::mem::swap(&mut f, &mut tmp);
            }
            run_aa_pairs(&ctx, &tiles, &gt, &mut aa, g, pairs, false, false);
            // The AA field at even parity must equal the streamed image of
            // the two-grid field on every fluid cell's slots.
            let mut buf = [0.0f64; MAX_Q * TILE_CELLS];
            for t in 0..tiles.owned_tiles {
                let fluid = tiles.tiles[t].fluid;
                if fluid == 0 {
                    continue;
                }
                gather_tile::<false>(q, &gt, &tiles.neighbors[t], f.as_slice(), &mut buf, |i| i);
                let frame = aa.frame(t);
                for c in 0..TILE_CELLS {
                    if fluid & (1 << c) == 0 {
                        continue;
                    }
                    for i in 0..q {
                        let (want, got) = (buf[i * TILE_CELLS + c], frame[i * TILE_CELLS + c]);
                        assert!(
                            (want - got).abs() <= 1e-11 * want.abs().max(1.0),
                            "{kind:?} tile {t} cell {c} i={i}: aa {got} vs streamed {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn aa_fast_simd_and_par_are_bitwise_equal() {
        for (kind, g) in [
            (LatticeKind::D3Q19, [1e-5, 0.0, 0.0]),
            (LatticeKind::D3Q39, [0.0; 3]),
        ] {
            let ctx = ctx_for(kind);
            let geom = Geometry::pipe(
                Dim3 {
                    nx: 8,
                    ny: 24,
                    nz: 24,
                },
                10.0,
            )
            .unwrap();
            let tiles = SparseTiles::build_serial(&geom).unwrap();
            assert!(!tiles.aa_even_fast.is_empty(), "{kind:?} no fast AA tiles");
            let slow_tiles = force_slow(&tiles);
            let gt = GatherTable::new(&ctx.lat);
            let q = ctx.lat.q();
            let mut reference = SparseField::new(q, tiles.tile_count()).unwrap();
            init_equilibrium_aa(
                &ctx,
                &tiles,
                &mut reference,
                geom.dims(),
                smooth_state(geom.dims()),
            );
            let variants: [(&SparseTiles, bool, bool); 4] = [
                (&tiles, false, false),    // fast path, scalar, serial
                (&tiles, true, false),     // fast path, simd
                (&tiles, false, true),     // fast path, threaded
                (&slow_tiles, true, true), // slow walk, simd, threaded
            ];
            let mut outputs = Vec::new();
            for (t, simd, par) in variants {
                let mut f = reference.clone();
                run_aa_pairs(&ctx, t, &gt, &mut f, g, 2, simd, par);
                outputs.push(f);
            }
            let head = outputs[0].as_slice();
            assert!(head.iter().all(|v| v.is_finite()));
            for (v, o) in outputs.iter().enumerate().skip(1) {
                for (a, b) in head.iter().zip(o.as_slice()) {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{kind:?} variant {v}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn aa_stored_mass_is_conserved_exactly() {
        let ctx = ctx_for(LatticeKind::D3Q19);
        let geom = Geometry::porous(
            Dim3 {
                nx: 16,
                ny: 16,
                nz: 16,
            },
            2.0,
            0.1,
            5,
        )
        .unwrap();
        let tiles = SparseTiles::build_serial(&geom).unwrap();
        let gt = GatherTable::new(&ctx.lat);
        let mut f = SparseField::new(ctx.lat.q(), tiles.tile_count()).unwrap();
        init_equilibrium_aa(&ctx, &tiles, &mut f, geom.dims(), smooth_state(geom.dims()));
        let mass = |f: &SparseField| -> f64 {
            (0..tiles.owned_tiles)
                .map(|t| f.frame(t).iter().sum::<f64>())
                .sum()
        };
        let m0 = mass(&f);
        run_aa_pairs(
            &ctx,
            &tiles,
            &gt,
            &mut f,
            [1e-5, 0.0, 0.0],
            10,
            false,
            false,
        );
        let m1 = mass(&f);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "AA stored mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn gather_table_inverts_velocities() {
        let lat = Lattice::new(LatticeKind::D3Q39);
        let gt = GatherTable::new(&lat);
        // Pulling along i then pushing along i must return to the cell.
        for (i, c) in lat.velocities().iter().enumerate() {
            for lx in 0..TILE_B {
                for ly in 0..TILE_B {
                    for lz in 0..TILE_B {
                        let (slot, sc) = gt.row(i)[tile_cell(lx, ly, lz)];
                        let sc = sc as usize;
                        let (sx, sy, sz) = (sc / 16, (sc / 4) % 4, sc % 4);
                        // Reconstruct the absolute source coordinate from
                        // the slot's tile offset; it must equal dst - c.
                        let s = slot as isize;
                        let (dx, dy, dz) = (s / 9 - 1, (s / 3) % 3 - 1, s % 3 - 1);
                        assert_eq!(
                            dx * TILE_B as isize + sx as isize,
                            lx as isize - c[0] as isize
                        );
                        assert_eq!(
                            dy * TILE_B as isize + sy as isize,
                            ly as isize - c[1] as isize
                        );
                        assert_eq!(
                            dz * TILE_B as isize + sz as isize,
                            lz as isize - c[2] as isize
                        );
                    }
                }
            }
        }
    }
}
