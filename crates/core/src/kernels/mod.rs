//! The optimization ladder of stream/collide kernels (paper §V, Fig. 8).
//!
//! Each rung of the paper's cumulative optimization study maps to a concrete
//! kernel variant here (the two communication rungs change the *schedule*,
//! not the compute kernel, and live in `lbm-sim`):
//!
//! | Rung    | Paper §V               | Compute kernel                      | Comm schedule (lbm-sim) |
//! |---------|------------------------|-------------------------------------|-------------------------|
//! | `Orig`  | naive implementation   | [`naive`] — branchy wrap, divisions | blocking, every step    |
//! | `Gc`    | ghost cells (V-A)      | [`ghost`] — branch-free via tables  | blocking, end of step   |
//! | `Dh`    | data handling (V-B)    | [`dh`] — slab-order stream, line-blocked collide, reciprocals | blocking, end of step |
//! | `Cf`    | compiler opts (V-C)    | [`cf`] — bounds-check-elided, force-inlined (the Rust analogue of O5/IPA) | blocking, end of step |
//! | `LoBr`  | loop/branch restr. (V-D)| [`lobr`] — region-split loops, hoisted index arithmetic | blocking, end of step |
//! | `NbC`   | nonblocking comm (V-E) | [`lobr`]                            | nonblocking             |
//! | `GcC`   | ghost-collide (V-F)    | [`lobr`]                            | overlapped (Fig. 7)     |
//! | `Simd`  | SIMD (V-G)             | [`simd`] — the [`op`] collide on `Avx2<true>` lanes | overlapped (Fig. 7) |
//! | `Fused` | §VII future work       | [`fused_simd`] — the [`fused`] single pass on `Avx2<true>` lanes | overlapped (Fig. 7) |
//!
//! The `Simd` and `Fused` rows have no entry points of their own: the
//! dispatchers below pick the lane type from the rung's kernel class and
//! call the one traversal with it.
//!
//! The `Fused` rung goes past the paper's ladder: it implements the
//! conclusion's "reduce the memory accesses per lattice update" direction by
//! merging the two sweeps into one pass (`2·Q·8` bytes/cell instead of the
//! split pipeline's `4·Q·8`), with the same SIMD vectorization and the same
//! overlapped communication schedule as the `Simd` rung. Split `stream`/
//! `collide` calls at this level fall back to the `Simd`-rung kernels; the
//! single-pass path is reached through [`stream_collide`].
//!
//! All variants compute the *same* stream and BGK update; the naive pair is
//! the semantic oracle (property-tested against [`reference`]); the optimized
//! pairs must agree within floating-point reassociation tolerance.
//!
//! From the scenario collide up, each traversal is written **once**: one
//! body, two lane types. [`op`] holds the per-cell arithmetic and the cell
//! body every in-place traversal shares; each traversal (split collide in
//! [`op`], fused pass in [`fused`], AA even/odd in [`aa`], sparse tile in
//! [`sparse`]) is generic over the lane type of `lanes` — `Scalar`, the
//! reference recipe, or `Avx2<true>` (fused multiply-adds) at the `Simd`
//! and `Fused` rungs, with a `Scalar` tail. `lanes` is the only code here
//! that touches `std::arch`, and holds the one AVX2+FMA entry point and the
//! one runtime check ([`simd::simd_available`]).
//!
//! Orthogonal to the ladder, the **storage dimension**
//! ([`crate::field::StorageMode`]) selects how the populations are
//! resident: the two-grid double buffer every rung above runs on, or the
//! AA-pattern single array of [`aa`] (in-place even/odd steps, half the
//! resident memory, `2·Q·8` model traffic). The AA dispatchers below
//! ([`aa_even_scenario`], [`aa_odd_scenario`] and their `_par` forms) map
//! the rung's kernel class onto the AA drivers: scalar classes run them on
//! `Scalar` lanes, `Simd`/`Fused` on `Avx2<true>` lanes.

pub mod aa;
pub mod cf;
pub mod dh;
pub mod forced;
pub mod fused;
pub mod fused_simd;
pub mod ghost;
pub(crate) mod lanes;
pub mod lobr;
pub mod naive;
pub mod op;
pub mod par;
pub mod reference;
pub mod simd;
pub mod sparse;

pub use op::{CollideOp, GuoForced, PlainBgk};

use crate::boundary::BoundarySpec;
use crate::collision::Bgk;
use crate::equilibrium::{EqConsts, EqOrder};
use crate::field::DistField;
use crate::index::WrapTable;
use crate::lattice::{Lattice, LatticeKind};

/// Largest velocity count across supported lattices (stack-buffer bound).
pub const MAX_Q: usize = 39;

/// The cumulative optimization levels of the paper's Fig. 8 x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// Naive implementation (paper Fig. 2-4).
    Orig,
    /// + ghost cells (§V-A).
    Gc,
    /// + data handling: loop order, temporaries, reciprocals (§V-B).
    Dh,
    /// + compiler-optimization analogue: bounds-check elision, inlining (§V-C).
    Cf,
    /// + loop restructuring and branch reduction (§V-D).
    LoBr,
    /// + nonblocking communication (§V-E; schedule change only).
    NbC,
    /// + separate ghost-cell collide overlap (§V-F; schedule change only).
    GcC,
    /// + SIMD vectorization (§V-G).
    Simd,
    /// + fused single-pass stream+collide (§VII future work): halves
    ///   the memory traffic per lattice update.
    Fused,
}

impl OptLevel {
    /// The ladder in paper order, extended by the fused top rung.
    pub const ALL: [OptLevel; 9] = [
        OptLevel::Orig,
        OptLevel::Gc,
        OptLevel::Dh,
        OptLevel::Cf,
        OptLevel::LoBr,
        OptLevel::NbC,
        OptLevel::GcC,
        OptLevel::Simd,
        OptLevel::Fused,
    ];

    /// Label as used on the paper's Fig. 8 axis.
    pub const fn name(self) -> &'static str {
        match self {
            OptLevel::Orig => "Orig",
            OptLevel::Gc => "GC",
            OptLevel::Dh => "DH",
            OptLevel::Cf => "CF",
            OptLevel::LoBr => "LoBr",
            OptLevel::NbC => "NB-C",
            OptLevel::GcC => "GC_C",
            OptLevel::Simd => "SIMD",
            OptLevel::Fused => "Fused",
        }
    }

    /// Parse a Fig. 8 label (case-insensitive, `-`/`_` ignored).
    pub fn parse(s: &str) -> Option<Self> {
        let t: String = s
            .trim()
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match t.as_str() {
            "orig" => OptLevel::Orig,
            "gc" => OptLevel::Gc,
            "dh" => OptLevel::Dh,
            "cf" => OptLevel::Cf,
            "lobr" => OptLevel::LoBr,
            "nbc" => OptLevel::NbC,
            "gcc" => OptLevel::GcC,
            "simd" => OptLevel::Simd,
            "fused" => OptLevel::Fused,
            _ => return None,
        })
    }

    /// Which compute-kernel implementation this rung runs (the NB-C and GC-C
    /// rungs reuse the LoBr kernels).
    pub const fn kernel_class(self) -> KernelClass {
        match self {
            OptLevel::Orig => KernelClass::Naive,
            OptLevel::Gc => KernelClass::Ghost,
            OptLevel::Dh => KernelClass::Dh,
            OptLevel::Cf => KernelClass::Cf,
            OptLevel::LoBr | OptLevel::NbC | OptLevel::GcC => KernelClass::LoBr,
            OptLevel::Simd => KernelClass::Simd,
            OptLevel::Fused => KernelClass::Fused,
        }
    }
}

/// Distinct compute-kernel implementations behind the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Branchy per-cell loops, division-form equilibrium.
    Naive,
    /// Branch-free wrap via index tables, naive collide.
    Ghost,
    /// Slab-ordered stream, line-blocked two-pass collide, reciprocals.
    Dh,
    /// Dh with bounds checks elided and helpers force-inlined.
    Cf,
    /// Cf with region-split loops and hoisted index arithmetic.
    LoBr,
    /// LoBr stream with an AVX2+FMA vectorized collide (scalar fallback).
    Simd,
    /// Single-pass fused stream+collide, AVX2+FMA with scalar fallback.
    /// Split `stream`/`collide` calls at this level run the `Simd` kernels.
    Fused,
}

/// Everything a kernel invocation needs besides the fields themselves.
#[derive(Debug, Clone)]
pub struct KernelCtx {
    /// The discrete velocity model.
    pub lat: Lattice,
    /// Precomputed equilibrium constants (reciprocal form).
    pub consts: EqConsts,
    /// Equilibrium truncation order.
    pub order: EqOrder,
    /// BGK relaxation rate ω.
    pub omega: f64,
}

impl KernelCtx {
    /// Build a context for `kind` with truncation `order` and collision `bgk`.
    pub fn new(kind: LatticeKind, order: EqOrder, bgk: Bgk) -> Self {
        let lat = Lattice::new(kind);
        let consts = EqConsts::new(&lat);
        Self {
            lat,
            consts,
            order,
            omega: bgk.omega(),
        }
    }

    /// Whether the third-order equilibrium term is active.
    #[inline]
    pub fn third_order(&self) -> bool {
        self.order == EqOrder::Third
    }
}

/// Periodic wrap tables for the y and z axes, one per velocity-component
/// offset in `-3..=3` (indexed by `c + 3`). Built once per field shape.
#[derive(Debug, Clone)]
pub struct StreamTables {
    /// y-axis tables.
    pub y: Vec<WrapTable>,
    /// z-axis tables.
    pub z: Vec<WrapTable>,
}

impl StreamTables {
    /// Build tables for a field with `ny`×`nz` cross-section.
    pub fn new(ny: usize, nz: usize) -> Self {
        let y = (-3..=3).map(|c| WrapTable::new(ny, c)).collect();
        let z = (-3..=3).map(|c| WrapTable::new(nz, c)).collect();
        Self { y, z }
    }

    /// Table for y-offset `c`.
    #[inline(always)]
    pub fn y_for(&self, c: i32) -> &WrapTable {
        &self.y[(c + 3) as usize]
    }

    /// Table for z-offset `c`.
    #[inline(always)]
    pub fn z_for(&self, c: i32) -> &WrapTable {
        &self.z[(c + 3) as usize]
    }
}

/// Pull-stream `dst[x] ← src[x−c]` for allocation-local planes
/// `x ∈ [x_lo, x_hi)`, selecting the variant for `level`.
///
/// For every level above `Orig` the caller must guarantee that
/// `src` is valid on `[x_lo − k, x_hi + k)` (halo filled); `Orig`
/// additionally tolerates halo-free single-rank fields by wrapping x.
pub fn stream(
    level: OptLevel,
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
) {
    debug_assert!(x_hi <= dst.alloc_dims().nx);
    match level.kernel_class() {
        KernelClass::Naive => naive::stream(ctx, src, dst, x_lo, x_hi),
        KernelClass::Ghost => ghost::stream(ctx, tables, src, dst, x_lo, x_hi),
        KernelClass::Dh => dh::stream(ctx, tables, src, dst, x_lo, x_hi),
        KernelClass::Cf | KernelClass::Simd | KernelClass::Fused => {
            cf::stream(ctx, tables, src, dst, x_lo, x_hi)
        }
        KernelClass::LoBr => lobr::stream(ctx, tables, src, dst, x_lo, x_hi),
    }
}

/// In-place BGK collide over planes `x ∈ [x_lo, x_hi)`, selecting the variant
/// for `level`.
pub fn collide(level: OptLevel, ctx: &KernelCtx, f: &mut DistField, x_lo: usize, x_hi: usize) {
    debug_assert!(x_hi <= f.alloc_dims().nx);
    match level.kernel_class() {
        KernelClass::Naive | KernelClass::Ghost => naive::collide(ctx, f, x_lo, x_hi),
        KernelClass::Dh => dh::collide(ctx, f, x_lo, x_hi),
        KernelClass::Cf => cf::collide(ctx, f, x_lo, x_hi),
        KernelClass::LoBr => lobr::collide(ctx, f, x_lo, x_hi),
        KernelClass::Simd | KernelClass::Fused => {
            let periodic = BoundarySpec::periodic();
            op::collide_field(ctx, f, x_lo, x_hi, PlainBgk, &periodic, true);
        }
    }
}

/// One full lattice update `dst ← collide(pull(src))` over planes
/// `x ∈ [x_lo, x_hi)`, selecting the variant for `level`.
///
/// The `Fused` rung runs the single-pass kernel (`2·Q·8` bytes/cell,
/// AVX2+FMA when available); every other rung performs its split
/// stream-then-collide pair into `dst` (`4·Q·8` bytes/cell). Halo contract
/// as for [`stream`]: `src` must be valid on `[x_lo − k, x_hi + k)`.
pub fn stream_collide(
    level: OptLevel,
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
) {
    if level.kernel_class() == KernelClass::Fused {
        let periodic = BoundarySpec::periodic();
        fused::stream_collide_field(ctx, tables, src, dst, x_lo, x_hi, PlainBgk, &periodic, true);
    } else {
        stream(level, ctx, tables, src, dst, x_lo, x_hi);
        collide(level, ctx, dst, x_lo, x_hi);
    }
}

/// Scenario collide at `level`'s kernel class: BGK with optional Guo
/// forcing `g` over the fluid cells of `bounds` (wall rows and masked
/// cells untouched), in place over planes `x ∈ [x_lo, x_hi)`.
///
/// Every class runs the one in-place collide of [`op`]: on scalar lanes
/// below `Simd`, on AVX2+FMA lanes at `Simd`/`Fused` (runtime-detected,
/// scalar fallback). With `g = 0` every class monomorphizes to the plain
/// fluid-row-restricted BGK update.
pub fn collide_scenario(
    level: OptLevel,
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| op::collide_field(
        ctx,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

/// Rayon-parallel [`collide_scenario`]: disjoint x-plane chunks, each
/// running the identical per-class kernel — bit-identical to serial.
pub fn collide_scenario_par(
    level: OptLevel,
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| par::collide_cells_par(
        ctx,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

/// Scenario fused stream+collide: one single pass computing
/// `dst ← boundary+collide(pull(src))` — fluid cells collided (with Guo
/// forcing `g` when nonzero), wall rows and masked cells transformed from
/// their gathered arrivals. AVX2+FMA when available, scalar fallback; halo
/// contract as for [`stream_collide`].
#[allow(clippy::too_many_arguments)]
pub fn stream_collide_scenario(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| fused::stream_collide_field(
        ctx, tables, src, dst, x_lo, x_hi, rule, bounds, true
    ));
}

/// Rayon-parallel [`stream_collide_scenario`] (disjoint destination
/// x-chunks, bit-identical to serial).
#[allow(clippy::too_many_arguments)]
pub fn stream_collide_scenario_par(
    ctx: &KernelCtx,
    tables: &StreamTables,
    src: &DistField,
    dst: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| par::stream_collide_cells_par(
        ctx, tables, src, dst, x_lo, x_hi, rule, bounds
    ));
}

/// Whether `level`'s kernel class runs its traversals with AVX2+FMA lanes
/// (`Simd` and above; when the host has them).
const fn use_simd(level: OptLevel) -> bool {
    matches!(level.kernel_class(), KernelClass::Simd | KernelClass::Fused)
}

/// AA-pattern **even** step at `level`'s kernel class: in-place
/// read-local/write-local collide (rule `g` on fluid cells, wall/mask
/// transforms in place) over planes `x ∈ [x_lo, x_hi)`. See
/// [`aa::even_cells`].
pub fn aa_even_scenario(
    level: OptLevel,
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| aa::even_cells(
        ctx,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

/// Rayon-parallel [`aa_even_scenario`] (disjoint x-plane chunks,
/// bit-identical to serial).
pub fn aa_even_scenario_par(
    level: OptLevel,
    ctx: &KernelCtx,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| par::aa_even_cells_par(
        ctx,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

/// AA-pattern **odd** step at `level`'s kernel class: gather-swapped,
/// collide/transform, scatter-swapped, over writer planes
/// `x ∈ [x_lo, x_hi)` (requires `k` planes of margin). See
/// [`aa::odd_cells`].
#[allow(clippy::too_many_arguments)]
pub fn aa_odd_scenario(
    level: OptLevel,
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| aa::odd_cells(
        ctx,
        tables,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

/// AA-pattern **odd** step at `level`'s kernel class with the x-shift
/// wrapped inside `[x_lo, x_hi)` — the single-rank periodic sweep, which
/// needs no halo fill and no ghost writer planes. See
/// [`aa::odd_cells_periodic`].
#[allow(clippy::too_many_arguments)]
pub fn aa_odd_scenario_periodic(
    level: OptLevel,
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| aa::odd_cells_periodic(
        ctx,
        tables,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

/// Rayon-parallel [`aa_odd_scenario`]: writer cells are chunked by x-plane;
/// each writer owns exactly its own Q slots (the AA bijection), so chunked
/// execution is conflict-free and bit-identical to serial.
#[allow(clippy::too_many_arguments)]
pub fn aa_odd_scenario_par(
    level: OptLevel,
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| par::aa_odd_cells_par(
        ctx,
        tables,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

/// Rayon-parallel [`aa_odd_scenario_periodic`] (see
/// [`par::aa_odd_cells_periodic_par`]; bit-identical to serial).
#[allow(clippy::too_many_arguments)]
pub fn aa_odd_scenario_periodic_par(
    level: OptLevel,
    ctx: &KernelCtx,
    tables: &StreamTables,
    f: &mut DistField,
    x_lo: usize,
    x_hi: usize,
    g: [f64; 3],
    bounds: &BoundarySpec,
) {
    op::with_op!(g, |rule| par::aa_odd_cells_periodic_par(
        ctx,
        tables,
        f,
        x_lo,
        x_hi,
        rule,
        bounds,
        use_simd(level)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_and_names() {
        let names: Vec<_> = OptLevel::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            ["Orig", "GC", "DH", "CF", "LoBr", "NB-C", "GC_C", "SIMD", "Fused"]
        );
        // Cumulative: strictly ordered.
        for w in OptLevel::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn parse_round_trips() {
        for l in OptLevel::ALL {
            assert_eq!(OptLevel::parse(l.name()), Some(l), "{}", l.name());
        }
        assert_eq!(OptLevel::parse("nb-c"), Some(OptLevel::NbC));
        assert_eq!(OptLevel::parse("gc_c"), Some(OptLevel::GcC));
        assert_eq!(OptLevel::parse("FUSED"), Some(OptLevel::Fused));
        assert_eq!(OptLevel::parse("bogus"), None);
    }

    #[test]
    fn comm_rungs_reuse_lobr_kernels() {
        assert_eq!(OptLevel::NbC.kernel_class(), KernelClass::LoBr);
        assert_eq!(OptLevel::GcC.kernel_class(), KernelClass::LoBr);
        assert_eq!(OptLevel::LoBr.kernel_class(), KernelClass::LoBr);
        assert_eq!(OptLevel::Fused.kernel_class(), KernelClass::Fused);
        assert!(OptLevel::Simd < OptLevel::Fused, "Fused is the top rung");
    }

    #[test]
    fn stream_tables_cover_all_offsets() {
        let t = StreamTables::new(6, 9);
        for c in -3i32..=3 {
            assert_eq!(t.y_for(c).len(), 6);
            assert_eq!(t.z_for(c).len(), 9);
            assert_eq!(t.y_for(c).src(0), crate::index::wrap(0, -c, 6));
        }
    }
}
