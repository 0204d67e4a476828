//! Composable cell operators and the one copy of the per-cell arithmetic.
//!
//! Every rung of the ladder runs some *data movement* (in-place sweep, fused
//! single pass, AA pair, sparse tile, rayon chunks) around one of two
//! per-cell *rules*: plain BGK relaxation, or the Guo-forced variant
//! (half-force velocity shift plus a post-relaxation source). A
//! [`CollideOp`] names the rule; the drivers are generic over it and
//! monomorphize, so the `O::FORCED` branches fold away at compile time.
//!
//! ## One body, two lane types
//!
//! The arithmetic is written once here, generic over the lane type of
//! `kernels::lanes`, in one association order:
//!
//! * moment sums `ρ = Σf`, `m = Σ f c` (`m_a ← f·c_a + m_a`), then
//!   `u = m/ρ` through one reciprocal (`(m + G/2)/ρ` when forced);
//! * `u² = u_z² + (u_y² + u_x²)` and `u·G = u_z G_z + (u_y G_y + u_x G_x)`,
//!   each term folded into the running sum by a multiply-add;
//! * per velocity `ξ = c_z u_z + (c_y u_y + c_x u_x)`, the equilibrium
//!   polynomial `((1 + ξ/c_s²) + ξ²/(2c_s⁴)) − u²/(2c_s²)`
//!   [`+ ξ(ξ² − 3c_s² u²)/(6c_s⁶)`], `f^eq = (w ρ)·poly`, the BGK relax
//!   `f + ω(f^eq − f)` and the Guo source below.
//!
//! With `Scalar` lanes every multiply-add is a separate multiply and add on
//! plain `f64`s: the reference recipe, and what the scalar rungs, the
//! sparse drivers and every tail compute (a `Scalar<4>` group is four
//! independent copies of the one-cell sequence). With `Avx2<true>` lanes each multiply-add is
//! one fused instruction (`Simd`/`Fused` rungs, AVX2 AA steps).
//!
//! `collide_group` is the one cell body of every in-place traversal: the
//! split collide below ([`collide_cells`]), both AA steps, the sparse tiles
//! and the fused pass over its gathered tile. [`OpConsts`] is the
//! per-invocation hoist of the per-velocity constants every driver shares.
//!
//! ## The Guo source, hoisted
//!
//! `S_i = (1 − ω/2) w_i [ (c_i−u)/c_s² + (c_i·u) c_i/c_s⁴ ] · G` expands to
//! `S_i = sa_i − sb_i (u·G) + sc_i ξ_i` with `ξ_i = c_i·u` and per-velocity
//! constants `sa_i = p_i (c_i·G)/c_s²`, `sb_i = p_i/c_s²`,
//! `sc_i = p_i (c_i·G)/c_s⁴`, `p_i = (1 − ω/2) w_i`. Only `u·G` and `ξ_i`
//! vary per cell — and `ξ_i` is already computed for the equilibrium — so
//! the forced path costs two extra multiply-adds per (cell, velocity).

use std::marker::PhantomData;

use crate::boundary::{BoundarySpec, SectionMask};
use crate::field::DistField;
use crate::index::Dim3;
use crate::kernels::lanes::{self, LaneKernel, Lanes, Scalar};
use crate::kernels::{KernelCtx, MAX_Q};

/// A per-cell collide rule, threaded through every kernel driver.
///
/// Implementations carry only the rule's parameters (e.g. the force
/// density); the drivers do the sweeping. `FORCED` is an associated const
/// so the plain instantiation monomorphizes to branch-free unforced code.
pub trait CollideOp: Copy + Send + Sync {
    /// Whether this rule applies a body force (compile-time: `false`
    /// instantiations compile to the plain BGK update).
    const FORCED: bool;

    /// The force density `G` (zero for plain BGK).
    fn g(&self) -> [f64; 3];
}

/// Plain BGK relaxation — the rule of the periodic ladder kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlainBgk;

impl CollideOp for PlainBgk {
    const FORCED: bool = false;

    #[inline(always)]
    fn g(&self) -> [f64; 3] {
        [0.0; 3]
    }
}

/// Guo-forced BGK: half-force velocity shift `u = (Σ f c + G/2)/ρ`, BGK
/// relaxation toward `f^eq(ρ, u)`, and the second-order source `S_i` added
/// post-relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuoForced {
    /// Force density `G` (lattice units).
    pub g: [f64; 3],
}

impl CollideOp for GuoForced {
    const FORCED: bool = true;

    #[inline(always)]
    fn g(&self) -> [f64; 3] {
        self.g
    }
}

/// Per-invocation hoisted constants shared by every collide driver: the
/// equilibrium-constant stack cache plus (when forced) the Guo source
/// coefficients. Built once per kernel call, outside the cell loops.
#[derive(Debug, Clone)]
pub struct OpConsts {
    /// `[cx, cy, cz, w]` per velocity — the dense stack row the hot loops
    /// read instead of chasing the two `EqConsts` heap vectors.
    pub cw: [[f64; 4]; MAX_Q],
    /// Opposite-velocity index per velocity (the bounce-back permutation
    /// the boundary-aware drivers apply to wall rows and masked cells).
    pub opp: [usize; MAX_Q],
    /// The force density `G`.
    pub g: [f64; 3],
    /// `G/2` — the Guo velocity-shift numerator term.
    pub half_g: [f64; 3],
    /// Source coefficient `sa_i = (1 − ω/2) w_i (c_i·G)/c_s²`.
    pub sa: [f64; MAX_Q],
    /// Source coefficient `sb_i = (1 − ω/2) w_i/c_s²` (multiplies `u·G`).
    pub sb: [f64; MAX_Q],
    /// Source coefficient `sc_i = (1 − ω/2) w_i (c_i·G)/c_s⁴` (multiplies
    /// `ξ_i`).
    pub sc: [f64; MAX_Q],
}

impl OpConsts {
    /// Hoist the constants for `op` under `ctx`.
    pub fn new<O: CollideOp>(ctx: &KernelCtx, op: &O) -> Self {
        let k = &ctx.consts;
        let q = ctx.lat.q();
        let mut cw = [[0.0f64; 4]; MAX_Q];
        for (i, slot) in cw.iter_mut().enumerate().take(q) {
            *slot = [k.c[i][0], k.c[i][1], k.c[i][2], k.w[i]];
        }
        let mut opp = [0usize; MAX_Q];
        for (i, o) in opp.iter_mut().enumerate().take(q) {
            *o = ctx.lat.opposite(i);
        }
        let g = op.g();
        let mut sa = [0.0f64; MAX_Q];
        let mut sb = [0.0f64; MAX_Q];
        let mut sc = [0.0f64; MAX_Q];
        if O::FORCED {
            let pref = 1.0 - 0.5 * ctx.omega;
            let inv_cs4 = k.inv_cs2 * k.inv_cs2;
            for i in 0..q {
                let cg = cw[i][0] * g[0] + cw[i][1] * g[1] + cw[i][2] * g[2];
                let p = pref * k.w[i];
                sa[i] = p * cg * k.inv_cs2;
                sb[i] = p * k.inv_cs2;
                sc[i] = p * cg * inv_cs4;
            }
        }
        Self {
            cw,
            opp,
            g,
            half_g: [0.5 * g[0], 0.5 * g[1], 0.5 * g[2]],
            sa,
            sb,
            sc,
        }
    }
}

/// Monomorphize a block over the force vector: `g = 0` binds the operator
/// to [`PlainBgk`] (compiling to the branch-free unforced kernels), any
/// other `g` to [`GuoForced`]. The single place the zero-force fast-path
/// rule lives — every public `g`-taking entry point routes through it.
macro_rules! with_op {
    ($g:expr, |$op:ident| $body:expr) => {{
        let g = $g;
        if g == [0.0; 3] {
            let $op = $crate::kernels::op::PlainBgk;
            $body
        } else {
            let $op = $crate::kernels::op::GuoForced { g };
            $body
        }
    }};
}
pub(crate) use with_op;

/// Advance `zs` to the next fluid z-run of row `y` and return its bounds,
/// or `None` when the row is exhausted. With no mask the whole row is one
/// run. Shared by every boundary-aware driver (scalar body, AVX2 collide),
/// so the run boundaries cannot drift between the kernel classes.
#[inline]
pub(crate) fn next_fluid_run(
    mask: Option<&SectionMask>,
    y: usize,
    nz: usize,
    zs: &mut usize,
) -> Option<(usize, usize)> {
    if *zs >= nz {
        return None;
    }
    match mask {
        None => {
            // Honour the cursor even without a mask, so a caller starting
            // mid-row gets the remainder of the row, never cells it (or
            // someone else) already swept.
            let lo = *zs;
            *zs = nz;
            Some((lo, nz))
        }
        Some(m) => {
            while *zs < nz && m.is_solid(y, *zs) {
                *zs += 1;
            }
            if *zs == nz {
                return None;
            }
            let lo = *zs;
            while *zs < nz && !m.is_solid(y, *zs) {
                *zs += 1;
            }
            Some((lo, *zs))
        }
    }
}

/// Serial boundary-aware collide over planes `x ∈ [x_lo, x_hi)`: the rule
/// `op` applied to every fluid cell of `bounds` (wall rows and masked cells
/// untouched), with `Scalar` lanes — the reference recipe. With periodic
/// `bounds` and [`PlainBgk`] this is bitwise the CF/LoBr line-blocked
/// collide.
pub fn collide_cells<O: CollideOp>(
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    op: O,
    bounds: &BoundarySpec,
) {
    collide_field(ctx, f, x_lo, x_hi, op, bounds, false);
}

/// [`collide_cells`] with the lane type chosen by `simd` (AVX2+FMA when
/// asked for and available).
pub(crate) fn collide_field<O: CollideOp>(
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
        "collide x-range [{x_lo}, {x_hi}) exceeds nx {}",
        d.nx
    );
    let slab_len = f.slab_stride();
    let ptr = f.as_mut_ptr();
    let oc = OpConsts::new(ctx, &op);
    // SAFETY: exclusive &mut access to the whole field; the x-range is
    // checked above.
    unsafe { collide_cells_raw::<O>(ptr, slab_len, ctx, &oc, bounds, d, x_lo, x_hi, simd) }
}

/// The boundary-aware in-place collide against a raw base pointer, so the
/// rayon drivers can run it per disjoint x-chunk.
///
/// # Safety
/// `base_ptr` must point to `q·slab_len` initialised doubles laid out as
/// consecutive velocity slabs of a field with allocated dims `d`, with
/// `x_hi ≤ d.nx`; the caller must guarantee exclusive access to the
/// x-planes `[x_lo, x_hi)`.
pub(crate) unsafe fn collide_cells_raw<O: CollideOp>(
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
            lanes::dispatch::<_, true>(&Collide::<true, O>(s, PhantomData), simd);
        } else {
            lanes::dispatch::<_, true>(&Collide::<false, O>(s, PhantomData), simd);
        }
    }
}

/// An in-place sweep over the x-planes `[x_lo, x_hi)` of a field behind a
/// raw base pointer (`q` velocity slabs of `slab_len` doubles, allocated
/// dims `d`): everything a traversal needs besides its rule and lanes.
#[derive(Clone, Copy)]
pub(crate) struct Sweep<'a> {
    pub(crate) base_ptr: *mut f64,
    pub(crate) slab_len: usize,
    pub(crate) ctx: &'a KernelCtx,
    pub(crate) oc: &'a OpConsts,
    pub(crate) bounds: &'a BoundarySpec,
    pub(crate) d: Dim3,
    pub(crate) x_lo: usize,
    pub(crate) x_hi: usize,
}

impl Sweep<'_> {
    /// Doubles in the field (`q · slab_len`).
    pub(crate) fn total(&self) -> usize {
        self.ctx.lat.q() * self.slab_len
    }
}

/// The in-place collide traversal: every fluid z-run of every fluid row,
/// one `collide_group` per lane group.
struct Collide<'a, const THIRD: bool, O>(Sweep<'a>, PhantomData<O>);

impl<const THIRD: bool, O: CollideOp> LaneKernel for Collide<'_, THIRD, O> {
    #[inline(always)]
    unsafe fn run<L: Lanes>(&self) {
        let s = self.0;
        let d = s.d;
        let kc = CellKernel::<L, THIRD, O>::new(s.ctx, s.oc);
        let mask = s.bounds.mask();
        for x in s.x_lo..s.x_hi {
            for y in s.bounds.fluid_y(d.ny) {
                // SAFETY: the row start is inside every slab (x < nx).
                let row = unsafe { s.base_ptr.add(d.idx(x, y, 0)) };
                let mut zs = 0usize;
                while let Some((lo, hi)) = next_fluid_run(mask, y, d.nz, &mut zs) {
                    // SAFETY: [lo, hi) ⊆ [0, nz) of a row this caller owns.
                    unsafe { kc.collide_row::<false>(row, s.slab_len, lo, hi) };
                }
            }
        }
    }
}

/// The per-invocation constants of the cell arithmetic, broadcast to `L`,
/// plus the [`Scalar`] copy that finishes each run's tail.
pub(crate) struct CellKernel<'a, L, const THIRD: bool, O> {
    /// The hoisted per-velocity constants.
    pub(crate) oc: &'a OpConsts,
    /// Velocity count.
    pub(crate) q: usize,
    /// The constants in lane type `L`.
    pub(crate) k: Coeffs<L>,
    /// The constants in [`Scalar`] lanes, for tails.
    pub(crate) tail: Coeffs<Scalar>,
    op: PhantomData<O>,
}

/// The scalar constants of the per-cell arithmetic in one lane type.
pub(crate) struct Coeffs<L> {
    one: L,
    omega: L,
    inv_cs2: L,
    inv_2cs4: L,
    inv_2cs2: L,
    inv_6cs6: L,
    three_cs2: L,
    half_g: [L; 3],
    g: [L; 3],
}

impl<L: Lanes> Coeffs<L> {
    #[inline(always)]
    fn new(ctx: &KernelCtx, oc: &OpConsts) -> Self {
        let k = &ctx.consts;
        Self {
            one: L::splat(1.0),
            omega: L::splat(ctx.omega),
            inv_cs2: L::splat(k.inv_cs2),
            inv_2cs4: L::splat(k.inv_2cs4),
            inv_2cs2: L::splat(k.inv_2cs2),
            inv_6cs6: L::splat(k.inv_6cs6),
            three_cs2: L::splat(3.0 * k.cs2),
            half_g: oc.half_g.map(L::splat),
            g: oc.g.map(L::splat),
        }
    }

    /// ρ, u, u² and u·G of one lane group from its moment sums
    /// `[Σf, Σf·cx, Σf·cy, Σf·cz]` (Guo half-force shift when forced).
    #[inline(always)]
    fn macroscopic<O: CollideOp>(&self, s: [L; 4]) -> Macro<L> {
        let inv = self.one.div(s[0]);
        let (ux, uy, uz, ug);
        if O::FORCED {
            ux = s[1].add(self.half_g[0]).mul(inv);
            uy = s[2].add(self.half_g[1]).mul(inv);
            uz = s[3].add(self.half_g[2]).mul(inv);
            ug = uz.mul_add(self.g[2], uy.mul_add(self.g[1], ux.mul(self.g[0])));
        } else {
            ux = s[1].mul(inv);
            uy = s[2].mul(inv);
            uz = s[3].mul(inv);
            ug = L::splat(0.0);
        }
        let u2 = uz.mul_add(uz, uy.mul_add(uy, ux.mul(ux)));
        Macro {
            rho: s[0],
            ux,
            uy,
            uz,
            u2,
            ug,
        }
    }

    /// Post-collision `t_i` of arrival `fv` of velocity `i` under `m`: BGK
    /// relaxation toward the 2nd/3rd-order equilibrium, plus the Guo source
    /// when forced.
    #[inline(always)]
    fn relax<const THIRD: bool, O: CollideOp>(
        &self,
        oc: &OpConsts,
        i: usize,
        m: &Macro<L>,
        fv: L,
    ) -> L {
        let c = oc.cw[i].map(L::splat);
        let xi = c[2].mul_add(m.uz, c[1].mul_add(m.uy, c[0].mul(m.ux)));
        let mut poly = xi.mul_add(self.inv_cs2, self.one);
        poly = xi.mul(xi).mul_add(self.inv_2cs4, poly);
        poly = m.u2.neg_mul_add(self.inv_2cs2, poly);
        if THIRD {
            let t = self.three_cs2.neg_mul_add(m.u2, xi.mul(xi));
            poly = xi.mul(t).mul_add(self.inv_6cs6, poly);
        }
        let feq = c[3].mul(m.rho).mul(poly);
        let out = self.omega.mul_add(feq.sub(fv), fv);
        if O::FORCED {
            // S_i = sa_i − sb_i (u·G) + sc_i ξ_i.
            let s = L::splat(oc.sb[i]).neg_mul_add(m.ug, L::splat(oc.sa[i]));
            out.add(L::splat(oc.sc[i]).mul_add(xi, s))
        } else {
            out
        }
    }
}

/// Add arrival `fv` of velocity row `c = [cx, cy, cz, w]` to the moment
/// sums `[Σf, Σf·cx, Σf·cy, Σf·cz]`.
#[inline(always)]
fn accumulate<L: Lanes>(s: &mut [L; 4], fv: L, c: &[f64; 4]) {
    s[0] = s[0].add(fv);
    s[1] = fv.mul_add(L::splat(c[0]), s[1]);
    s[2] = fv.mul_add(L::splat(c[1]), s[2]);
    s[3] = fv.mul_add(L::splat(c[2]), s[3]);
}

/// The macroscopic state of one lane group.
struct Macro<L> {
    rho: L,
    ux: L,
    uy: L,
    uz: L,
    u2: L,
    ug: L,
}

/// Where one lane group's populations live: `load(i)` reads the arrivals
/// of velocity `i`, `store(i, v)` writes `v` back to that same location.
pub(crate) trait Slots<L> {
    /// # Safety
    /// The implementor's addressing contract.
    unsafe fn load(&self, i: usize) -> L;
    /// # Safety
    /// The implementor's addressing contract.
    unsafe fn store(&self, i: usize, v: L);
}

/// Lane group `p[i·stride ..][..N]` of consecutive velocity slabs.
pub(crate) struct Rows {
    pub(crate) p: *mut f64,
    pub(crate) stride: usize,
}

impl<L: Lanes> Slots<L> for Rows {
    #[inline(always)]
    unsafe fn load(&self, i: usize) -> L {
        // SAFETY: forwarded to the constructor's contract.
        unsafe { L::load(self.p.add(i * self.stride)) }
    }
    #[inline(always)]
    unsafe fn store(&self, i: usize, v: L) {
        // SAFETY: as for `load`.
        unsafe { v.store(self.p.add(i * self.stride)) }
    }
}

impl<'a, L: Lanes, const THIRD: bool, O: CollideOp> CellKernel<'a, L, THIRD, O> {
    #[inline(always)]
    pub(crate) fn new(ctx: &KernelCtx, oc: &'a OpConsts) -> Self {
        Self {
            oc,
            q: ctx.lat.q(),
            k: Coeffs::new(ctx, oc),
            tail: Coeffs::new(ctx, oc),
            op: PhantomData,
        }
    }

    /// Collide the cells `[lo, hi)` of a span: whole `L` groups, then a
    /// [`Scalar`] tail; `at(z)` addresses the group starting at cell `z`.
    ///
    /// # Safety
    /// The slots `at(z)` addresses for `z ∈ [lo, hi)` must be valid and
    /// owned by the caller.
    #[inline(always)]
    pub(crate) unsafe fn collide_span<const SWAP: bool, S>(
        &self,
        lo: usize,
        hi: usize,
        at: impl Fn(usize) -> S,
    ) where
        S: Slots<L> + Slots<Scalar>,
    {
        let mid = lo + (hi - lo) / L::N * L::N;
        let mut z = lo;
        // SAFETY: every group stays inside [lo, hi).
        unsafe {
            while z < mid {
                collide_group::<L, THIRD, SWAP, O, _>(&self.k, self.oc, self.q, &at(z));
                z += L::N;
            }
            while z < hi {
                collide_group::<Scalar, THIRD, SWAP, O, _>(&self.tail, self.oc, self.q, &at(z));
                z += 1;
            }
        }
    }

    /// [`Self::collide_span`] over the cells `[lo, hi)` of one field row
    /// (`row` points at z = 0 of slab 0).
    ///
    /// # Safety
    /// `row[i·slab_len + z]` must be valid for all `i < q`, `z < hi`, and
    /// owned by the caller.
    #[inline(always)]
    pub(crate) unsafe fn collide_row<const SWAP: bool>(
        &self,
        row: *mut f64,
        slab_len: usize,
        lo: usize,
        hi: usize,
    ) {
        let at = |z| Rows {
            p: row.wrapping_add(z),
            stride: slab_len,
        };
        // SAFETY: forwarded contract.
        unsafe { self.collide_span::<SWAP, _>(lo, hi, at) }
    }
}

/// Collide one lane group — the one cell body of every traversal (split
/// collide, fused tile, AA even and odd, sparse tiles): moment sums in
/// registers over all `q` arrivals, then the relax of every velocity, `t_i`
/// stored back to its own slot. With `SWAP` (the AA cross-store) `t_i` goes
/// where `a_opp(i)` was read instead, so the relax runs in velocity pairs
/// `(i, opp(i))`, both loads before both stores.
///
/// # Safety
/// `s`'s addressing contract for every `i < q`; the slots are owned by the
/// caller.
#[inline(always)]
pub(crate) unsafe fn collide_group<L, const THIRD: bool, const SWAP: bool, O, S>(
    k: &Coeffs<L>,
    oc: &OpConsts,
    q: usize,
    s: &S,
) where
    L: Lanes,
    O: CollideOp,
    S: Slots<L>,
{
    // SAFETY: forwarded contract.
    unsafe {
        let mut sums = [L::splat(0.0); 4];
        for i in 0..q {
            accumulate(&mut sums, s.load(i), &oc.cw[i]);
        }
        let m = k.macroscopic::<O>(sums);
        if !SWAP {
            for i in 0..q {
                s.store(i, k.relax::<THIRD, O>(oc, i, &m, s.load(i)));
            }
            return;
        }
        for i in 0..q {
            let o = oc.opp[i];
            if o < i {
                continue; // pair already done
            }
            let fi = s.load(i);
            if o == i {
                s.store(i, k.relax::<THIRD, O>(oc, i, &m, fi));
                continue;
            }
            let fo = s.load(o);
            let ti = k.relax::<THIRD, O>(oc, i, &m, fi);
            let to = k.relax::<THIRD, O>(oc, o, &m, fo);
            s.store(o, ti);
            s.store(i, to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{ChannelWalls, SectionMask};
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

    fn random_field(q: usize, dims: Dim3, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, 0).unwrap();
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
    fn plain_op_is_bitwise_the_cf_collide() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(4, 5, 130); // straddles two z-blocks
            let mut a = random_field(c.lat.q(), dims, 31);
            let mut b = a.clone();
            crate::kernels::dh::collide(&c, &mut a, 0, dims.nx);
            collide_cells(&c, &mut b, 0, dims.nx, PlainBgk, &BoundarySpec::periodic());
            assert_eq!(a.max_abs_diff_owned(&b), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn guo_with_zero_force_is_bitwise_plain() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 6, 9);
        let bounds = BoundarySpec::periodic().with_walls(ChannelWalls::no_slip(1));
        let mut a = random_field(c.lat.q(), dims, 7);
        let mut b = a.clone();
        collide_cells(&c, &mut a, 0, dims.nx, PlainBgk, &bounds);
        collide_cells(&c, &mut b, 0, dims.nx, GuoForced { g: [0.0; 3] }, &bounds);
        assert_eq!(a.max_abs_diff_owned(&b), 0.0);
    }

    #[test]
    fn fluid_runs_respect_mask_and_walls() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 6, 5);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(SectionMask::from_fn(6, 5, |_y, z| z == 2));
        let mut f = random_field(c.lat.q(), dims, 23);
        let before = f.clone();
        collide_cells(
            &c,
            &mut f,
            0,
            dims.nx,
            GuoForced {
                g: [1e-4, 0.0, 0.0],
            },
            &bounds,
        );
        let d = f.alloc_dims();
        for i in 0..c.lat.q() {
            for x in 0..dims.nx {
                for z in 0..dims.nz {
                    for y in [0usize, 5] {
                        let lin = d.idx(x, y, z);
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "wall row");
                    }
                    let lin = d.idx(x, 3, z);
                    if z == 2 {
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "masked");
                    }
                }
            }
        }
        assert!(f.max_abs_diff_owned(&before) > 0.0, "fluid must collide");
    }

    #[test]
    fn source_coefficients_reproduce_guo_source() {
        // sa − sb(u·G) + sc·ξ must equal guo_source_i to rounding.
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let g = [3e-4, -2e-4, 1e-4];
            let oc = OpConsts::new(&c, &GuoForced { g });
            let u = [0.05, -0.02, 0.03];
            let ug = u[0] * g[0] + u[1] * g[1] + u[2] * g[2];
            for i in 0..c.lat.q() {
                let cf = oc.cw[i];
                let xi = cf[0] * u[0] + cf[1] * u[1] + cf[2] * u[2];
                let s = oc.sa[i] - oc.sb[i] * ug + oc.sc[i] * xi;
                let want = crate::collision::guo_source_i(&c.lat, i, u, g, c.omega);
                assert!(
                    (s - want).abs() < 1e-18 + 1e-12 * want.abs(),
                    "{kind:?} i={i}: {s} vs {want}"
                );
            }
        }
    }
}
