//! Property-based tests for the kernel ladder: every optimization rung must
//! compute the same stream permutation and the same BGK update as the naive
//! oracle, for arbitrary fields, shapes and x-range splits.

use proptest::prelude::*;

use lbm_core::boundary::{BoundarySpec, ChannelWalls, SectionMask, WallKind};
use lbm_core::collision::Bgk;
use lbm_core::equilibrium::EqOrder;
use lbm_core::field::DistField;
use lbm_core::index::Dim3;
use lbm_core::kernels::{self, KernelCtx, OptLevel, StreamTables};
use lbm_core::lattice::LatticeKind;

fn ctx_for(kind: LatticeKind, tau: f64) -> KernelCtx {
    let order = if kind == LatticeKind::D3Q39 {
        EqOrder::Third
    } else {
        EqOrder::Second
    };
    KernelCtx::new(kind, order, Bgk::new(tau).unwrap())
}

/// Deterministic pseudo-random positive field from a seed.
fn seeded_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
    let mut f = DistField::new(q, dims, halo).unwrap();
    let mut state = seed | 1;
    for v in f.as_mut_slice() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = 0.01 + (state % 2048) as f64 / 2500.0;
    }
    f
}

fn arb_kind() -> impl Strategy<Value = LatticeKind> {
    prop_oneof![
        Just(LatticeKind::D3Q15),
        Just(LatticeKind::D3Q19),
        Just(LatticeKind::D3Q27),
        Just(LatticeKind::D3Q39),
    ]
}

fn arb_order() -> impl Strategy<Value = EqOrder> {
    prop_oneof![Just(EqOrder::Second), Just(EqOrder::Third)]
}

fn arb_wall() -> impl Strategy<Value = WallKind> {
    prop_oneof![
        Just(WallKind::BounceBack),
        Just(WallKind::Moving {
            u: [0.04, 0.0, -0.02],
            rho: 1.0
        }),
        Just(WallKind::Diffuse { u: [0.0; 3] }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// All stream variants produce bitwise-identical owned regions.
    #[test]
    fn stream_variants_agree_bitwise(
        kind in arb_kind(),
        nx in 1usize..6,
        ny in 7usize..12,
        nz in 7usize..12,
        seed in any::<u64>(),
    ) {
        let ctx = ctx_for(kind, 0.9);
        let k = ctx.lat.reach();
        let dims = Dim3::new(nx, ny, nz);
        let src = seeded_field(ctx.lat.q(), dims, k, seed);
        let tables = StreamTables::new(ny, nz);
        let mut base: Option<DistField> = None;
        for level in [OptLevel::Gc, OptLevel::Dh, OptLevel::Cf, OptLevel::LoBr, OptLevel::Simd] {
            let mut out = DistField::new(ctx.lat.q(), dims, k).unwrap();
            kernels::stream(level, &ctx, &tables, &src, &mut out, k, k + nx);
            match &base {
                None => base = Some(out),
                Some(b) => prop_assert_eq!(
                    b.max_abs_diff_owned(&out), 0.0,
                    "{:?} level {:?}", kind, level
                ),
            }
        }
    }

    /// All collide variants agree with the naive oracle within
    /// reassociation/FMA tolerance, and conserve mass and momentum.
    #[test]
    fn collide_variants_agree_and_conserve(
        kind in arb_kind(),
        nx in 1usize..5,
        ny in 2usize..6,
        nz in 2usize..70,
        tau in 0.55f64..2.0,
        seed in any::<u64>(),
    ) {
        let ctx = ctx_for(kind, tau);
        let dims = Dim3::new(nx, ny, nz);
        let orig = seeded_field(ctx.lat.q(), dims, 0, seed);

        let mut oracle = orig.clone();
        kernels::collide(OptLevel::Orig, &ctx, &mut oracle, 0, nx);

        // Mass / momentum conservation of the oracle itself.
        let pre_mass = orig.owned_mass();
        let post_mass = oracle.owned_mass();
        prop_assert!((pre_mass - post_mass).abs() < 1e-9 * pre_mass.abs());

        for level in [OptLevel::Dh, OptLevel::Cf, OptLevel::LoBr, OptLevel::Simd] {
            let mut out = orig.clone();
            kernels::collide(level, &ctx, &mut out, 0, nx);
            let diff = oracle.max_abs_diff_owned(&out);
            prop_assert!(diff < 1e-12, "{:?} level {:?}: diff={}", kind, level, diff);
        }
    }

    /// Collide over [0,nx) equals collide over any split [0,s) ∪ [s,nx) —
    /// the invariant the deep-halo region schedule depends on.
    #[test]
    fn collide_is_split_invariant(
        kind in arb_kind(),
        nx in 2usize..7,
        split in 1usize..6,
        nz in 3usize..40,
        seed in any::<u64>(),
    ) {
        let split = split.min(nx - 1);
        let ctx = ctx_for(kind, 0.8);
        let dims = Dim3::new(nx, 4, nz);
        let orig = seeded_field(ctx.lat.q(), dims, 0, seed);
        for level in [OptLevel::Orig, OptLevel::Dh, OptLevel::LoBr, OptLevel::Simd] {
            let mut whole = orig.clone();
            kernels::collide(level, &ctx, &mut whole, 0, nx);
            let mut parts = orig.clone();
            kernels::collide(level, &ctx, &mut parts, 0, split);
            kernels::collide(level, &ctx, &mut parts, split, nx);
            prop_assert_eq!(whole.max_abs_diff_owned(&parts), 0.0, "{:?} {:?}", kind, level);
        }
    }

    /// The fused single-pass kernels (scalar, SIMD, rayon-parallel) agree
    /// with the split stream-then-collide reference within FP-reassociation
    /// tolerance, across all four lattices and both equilibrium orders.
    #[test]
    fn fused_variants_match_split_reference(
        kind in arb_kind(),
        order in arb_order(),
        nx in 1usize..5,
        ny in 7usize..11,
        nz in 7usize..40,
        tau in 0.55f64..2.0,
        seed in any::<u64>(),
    ) {
        let ctx = KernelCtx::new(kind, order, lbm_core::collision::Bgk::new(tau).unwrap());
        let k = ctx.lat.reach();
        let dims = Dim3::new(nx, ny, nz);
        let src = seeded_field(ctx.lat.q(), dims, k, seed);
        let tables = StreamTables::new(ny, nz);

        // Split reference: DH stream followed by DH collide.
        let mut split = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream(OptLevel::Dh, &ctx, &tables, &src, &mut split, k, k + nx);
        kernels::collide(OptLevel::Dh, &ctx, &mut split, k, k + nx);

        // Scalar fused is reassociation-identical to the split pair.
        let mut scalar = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::fused::stream_collide(&ctx, &tables, &src, &mut scalar, k, k + nx);
        prop_assert_eq!(
            split.max_abs_diff_owned(&scalar), 0.0,
            "{:?}/{:?} scalar fused", kind, order
        );

        // SIMD fused differs only by FMA re-rounding.
        let mut vec = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream_collide(OptLevel::Fused, &ctx, &tables, &src, &mut vec, k, k + nx);
        let diff = split.max_abs_diff_owned(&vec);
        prop_assert!(diff < 1e-12, "{:?}/{:?} simd fused: diff={}", kind, order, diff);

        // The parallel driver is bitwise-identical to its serial kernel.
        let mut par = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::par::stream_collide_par(&ctx, &tables, &src, &mut par, k, k + nx);
        prop_assert_eq!(
            vec.max_abs_diff_owned(&par), 0.0,
            "{:?}/{:?} parallel fused", kind, order
        );
    }

    /// Fused over [lo,hi) equals fused over any split of the range — the
    /// invariant the distributed overlap schedule (borders first, interior
    /// later) depends on.
    #[test]
    fn fused_is_x_split_invariant(
        kind in arb_kind(),
        nx in 2usize..7,
        split in 1usize..6,
        nz in 7usize..40,
        seed in any::<u64>(),
    ) {
        let split = split.min(nx - 1);
        let ctx = ctx_for(kind, 0.8);
        let k = ctx.lat.reach();
        let dims = Dim3::new(nx, 8, nz);
        let src = seeded_field(ctx.lat.q(), dims, k, seed);
        let tables = StreamTables::new(8, nz);
        let mut whole = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream_collide(OptLevel::Fused, &ctx, &tables, &src, &mut whole, k, k + nx);
        let mut parts = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream_collide(OptLevel::Fused, &ctx, &tables, &src, &mut parts, k, k + split);
        kernels::stream_collide(
            OptLevel::Fused, &ctx, &tables, &src, &mut parts, k + split, k + nx,
        );
        prop_assert_eq!(whole.max_abs_diff_owned(&parts), 0.0, "{:?}", kind);
    }

    /// The forced/walled scenario kernels — scalar cell-operator body, AVX2
    /// split collide, scalar fused single pass, SIMD fused single pass, and
    /// both rayon drivers — agree with the split scenario reference
    /// (stream → boundary apply → scalar forced collide) across all four
    /// lattices, both equilibrium orders, every wall kind and an optional
    /// mask: bitwise for the scalar paths and serial≡rayon, within FMA
    /// re-rounding for the vectorized ones.
    #[test]
    fn forced_variants_match_split_scenario_reference(
        kind in arb_kind(),
        order in arb_order(),
        low in arb_wall(),
        high in arb_wall(),
        masked in any::<bool>(),
        nx in 1usize..5,
        ny_extra in 1usize..5,
        nz in 8usize..24,
        gx in -1e-4f64..1e-4,
        gz in -1e-4f64..1e-4,
        tau in 0.55f64..2.0,
        seed in any::<u64>(),
    ) {
        let ctx = KernelCtx::new(kind, order, Bgk::new(tau).unwrap());
        let k = ctx.lat.reach();
        let ny = 2 * k + 1 + ny_extra;
        let dims = Dim3::new(nx, ny, nz);
        let mut bounds = BoundarySpec::periodic().with_walls(ChannelWalls { low, high, layers: k });
        if masked {
            // A thick solid z-slab carved out of the fluid rows.
            bounds = bounds.with_mask(SectionMask::from_fn(ny, nz, |_y, z| z >= nz - 4));
        }
        let g = [gx, 0.0, gz];
        let src = seeded_field(ctx.lat.q(), dims, k, seed);
        let tables = StreamTables::new(ny, nz);

        // Split scenario reference: rung stream, boundary transform, scalar
        // forced collide (the Orig…LoBr scenario pipeline).
        let mut split = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream(OptLevel::Dh, &ctx, &tables, &src, &mut split, k, k + nx);
        bounds.apply(&ctx, &mut split, k, k + nx);
        kernels::forced::collide_forced(&ctx, &mut split, k, k + nx, g, &bounds);

        // Scalar fused scenario pass is bitwise the split pipeline.
        let mut fused_scalar = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::fused::stream_collide_cells(
            &ctx, &tables, &src, &mut fused_scalar, k, k + nx,
            kernels::GuoForced { g }, &bounds,
        );
        prop_assert_eq!(
            split.max_abs_diff_owned(&fused_scalar), 0.0,
            "{:?}/{:?} scalar fused scenario", kind, order
        );

        // SIMD fused scenario differs only by FMA re-rounding.
        let mut fused_vec = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream_collide_scenario(
            &ctx, &tables, &src, &mut fused_vec, k, k + nx, g, &bounds,
        );
        let diff = split.max_abs_diff_owned(&fused_vec);
        prop_assert!(diff < 1e-12, "{:?}/{:?} simd fused scenario: diff={}", kind, order, diff);

        // SIMD split collide (the Simd rung's scenario path) likewise.
        let mut simd_split = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream(OptLevel::Simd, &ctx, &tables, &src, &mut simd_split, k, k + nx);
        bounds.apply(&ctx, &mut simd_split, k, k + nx);
        kernels::collide_scenario(OptLevel::Simd, &ctx, &mut simd_split, k, k + nx, g, &bounds);
        let diff = split.max_abs_diff_owned(&simd_split);
        prop_assert!(diff < 1e-12, "{:?}/{:?} simd split scenario: diff={}", kind, order, diff);

        // The rayon drivers are bitwise identical to their serial kernels,
        // at both kernel classes and for the fused scenario pass.
        let mut par_scalar = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream(OptLevel::Dh, &ctx, &tables, &src, &mut par_scalar, k, k + nx);
        bounds.apply(&ctx, &mut par_scalar, k, k + nx);
        kernels::forced::collide_forced_par(&ctx, &mut par_scalar, k, k + nx, g, &bounds);
        prop_assert_eq!(
            split.max_abs_diff_owned(&par_scalar), 0.0,
            "{:?}/{:?} rayon scalar scenario", kind, order
        );

        let mut par_simd = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream(OptLevel::Simd, &ctx, &tables, &src, &mut par_simd, k, k + nx);
        bounds.apply(&ctx, &mut par_simd, k, k + nx);
        kernels::collide_scenario_par(OptLevel::Simd, &ctx, &mut par_simd, k, k + nx, g, &bounds);
        prop_assert_eq!(
            simd_split.max_abs_diff_owned(&par_simd), 0.0,
            "{:?}/{:?} rayon simd scenario", kind, order
        );

        let mut par_fused = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream_collide_scenario_par(
            &ctx, &tables, &src, &mut par_fused, k, k + nx, g, &bounds,
        );
        prop_assert_eq!(
            fused_vec.max_abs_diff_owned(&par_fused), 0.0,
            "{:?}/{:?} rayon fused scenario", kind, order
        );
    }

    /// Scenario fused over [lo,hi) equals scenario fused over any split of
    /// the range — the invariant the distributed border-first overlap
    /// schedule depends on for walled/forced flows.
    #[test]
    fn forced_fused_is_x_split_invariant(
        kind in arb_kind(),
        nx in 2usize..7,
        split in 1usize..6,
        nz in 8usize..24,
        seed in any::<u64>(),
    ) {
        let split = split.min(nx - 1);
        let ctx = ctx_for(kind, 0.8);
        let k = ctx.lat.reach();
        let ny = 2 * k + 4;
        let dims = Dim3::new(nx, ny, nz);
        let bounds = BoundarySpec::periodic().with_walls(ChannelWalls::no_slip(k));
        let g = [2e-5, 0.0, -1e-5];
        let src = seeded_field(ctx.lat.q(), dims, k, seed);
        let tables = StreamTables::new(ny, nz);
        let mut whole = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream_collide_scenario(&ctx, &tables, &src, &mut whole, k, k + nx, g, &bounds);
        let mut parts = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream_collide_scenario(&ctx, &tables, &src, &mut parts, k, k + split, g, &bounds);
        kernels::stream_collide_scenario(
            &ctx, &tables, &src, &mut parts, k + split, k + nx, g, &bounds,
        );
        prop_assert_eq!(whole.max_abs_diff_owned(&parts), 0.0, "{:?}", kind);
    }

    /// Streaming then streaming with every velocity reversed is the identity
    /// (pull with c then pull with −c undoes the permutation).
    #[test]
    fn stream_roundtrip_via_opposites(
        kind in arb_kind(),
        n in 7usize..10,
        seed in any::<u64>(),
    ) {
        let ctx = ctx_for(kind, 0.9);
        let dims = Dim3::cube(n);
        let f0 = seeded_field(ctx.lat.q(), dims, 0, seed);
        // Forward stream via the reference push (periodic, halo-free)…
        let mut fwd = DistField::new(ctx.lat.q(), dims, 0).unwrap();
        lbm_core::kernels::reference::stream_push_periodic(&ctx, &f0, &mut fwd);
        // …then push each population along the *opposite* velocity by
        // copying slab i into slab opp(i), streaming, and swapping back.
        let mut swapped = DistField::new(ctx.lat.q(), dims, 0).unwrap();
        for i in 0..ctx.lat.q() {
            let o = ctx.lat.opposite(i);
            let src = fwd.slab(i).to_vec();
            swapped.slab_mut(o).copy_from_slice(&src);
        }
        let mut back = DistField::new(ctx.lat.q(), dims, 0).unwrap();
        lbm_core::kernels::reference::stream_push_periodic(&ctx, &swapped, &mut back);
        for i in 0..ctx.lat.q() {
            let o = ctx.lat.opposite(i);
            prop_assert_eq!(back.slab(o), f0.slab(i), "{:?} slab {}", kind, i);
        }
    }

    /// Mass is exactly conserved by streaming for every variant (it is a
    /// permutation of each slab).
    #[test]
    fn stream_conserves_slab_multisets(
        kind in arb_kind(),
        nx in 1usize..4,
        seed in any::<u64>(),
    ) {
        let ctx = ctx_for(kind, 1.2);
        let k = ctx.lat.reach();
        let dims = Dim3::new(nx, 8, 9);
        let src = seeded_field(ctx.lat.q(), dims, k, seed);
        let tables = StreamTables::new(8, 9);
        let mut out = DistField::new(ctx.lat.q(), dims, k).unwrap();
        kernels::stream(OptLevel::LoBr, &ctx, &tables, &src, &mut out, k, k + nx);
        // Owned mass of dst equals the mass of the source region it pulled
        // from only in the aggregate-periodic case; here we check the weaker
        // but exact property that every output value exists in the source.
        for i in 0..ctx.lat.q() {
            let s = src.slab(i);
            let d = out.slab(i);
            let dims_a = out.alloc_dims();
            for x in out.owned_x() {
                for yz in 0..dims_a.plane() {
                    let v = d[dims_a.idx(x, 0, 0) + yz];
                    prop_assert!(s.contains(&v), "{:?}: value {} not from source", kind, v);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AA-pattern storage: the in-place even/odd pair must be the exact
// (slot-swapped / streamed) image of the two-grid pipeline for arbitrary
// fields, lattices, wall kinds, masks and forces — the kernel-level half of
// the `aa ≡ two_grid` parity contract (the multi-step distributed half
// lives in `tests/aa_storage.rs`).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The AA even step is the slot-swapped image of the two-grid cell rule
    /// (fluid collide + boundary transform): bitwise for the scalar tile,
    /// within FMA re-rounding for the AVX2 tile, and the rayon driver is
    /// bitwise its serial kernel.
    #[test]
    fn aa_even_step_is_the_swapped_two_grid_cell_rule(
        kind in arb_kind(),
        order in arb_order(),
        low in arb_wall(),
        high in arb_wall(),
        masked in any::<bool>(),
        nx in 1usize..5,
        ny_extra in 1usize..5,
        nz in 8usize..24,
        gx in -1e-4f64..1e-4,
        gz in -1e-4f64..1e-4,
        tau in 0.55f64..2.0,
        seed in any::<u64>(),
    ) {
        let ctx = KernelCtx::new(kind, order, Bgk::new(tau).unwrap());
        let k = ctx.lat.reach();
        let ny = 2 * k + 1 + ny_extra;
        let dims = Dim3::new(nx, ny, nz);
        let mut bounds = BoundarySpec::periodic().with_walls(ChannelWalls { low, high, layers: k });
        if masked {
            bounds = bounds.with_mask(SectionMask::from_fn(ny, nz, |_y, z| z >= nz - 4));
        }
        let g = [gx, 0.0, gz];
        let a0 = seeded_field(ctx.lat.q(), dims, 0, seed);

        // Two-grid cell rule on the same arrivals: collide the fluid cells,
        // then boundary-transform the solid ones (disjoint regions).
        let mut reference = a0.clone();
        kernels::collide_scenario(OptLevel::LoBr, &ctx, &mut reference, 0, nx, g, &bounds);
        bounds.apply(&ctx, &mut reference, 0, nx);

        // Scalar even step: expected value of slot m is reference[opp(m)].
        let mut aa_scalar = a0.clone();
        kernels::aa_even_scenario(OptLevel::LoBr, &ctx, &mut aa_scalar, 0, nx, g, &bounds);
        let da = aa_scalar.alloc_dims();
        for m in 0..ctx.lat.q() {
            let o = ctx.lat.opposite(m);
            for lin in 0..da.len() {
                prop_assert_eq!(
                    aa_scalar.slab(m)[lin], reference.slab(o)[lin],
                    "{:?}/{:?} slot {} lin {}", kind, order, m, lin
                );
            }
        }

        // AVX2 even step within FMA re-rounding of the scalar one.
        let mut aa_vec = a0.clone();
        kernels::aa_even_scenario(OptLevel::Fused, &ctx, &mut aa_vec, 0, nx, g, &bounds);
        let diff = aa_scalar.max_abs_diff_owned(&aa_vec);
        prop_assert!(diff < 1e-12, "{:?}/{:?} avx2 even: {}", kind, order, diff);

        // Rayon drivers bitwise-identical to serial, both classes.
        let mut aa_par = a0.clone();
        kernels::aa_even_scenario_par(OptLevel::LoBr, &ctx, &mut aa_par, 0, nx, g, &bounds);
        prop_assert_eq!(aa_scalar.max_abs_diff_owned(&aa_par), 0.0);
        let mut aa_par_vec = a0.clone();
        kernels::aa_even_scenario_par(OptLevel::Fused, &ctx, &mut aa_par_vec, 0, nx, g, &bounds);
        prop_assert_eq!(aa_vec.max_abs_diff_owned(&aa_par_vec), 0.0);
    }

    /// The AA odd step is the pull-stream of the boundary-aware fused pass
    /// applied to the unswapped field: bitwise for the scalar tile, within
    /// FMA re-rounding for the AVX2 tile, rayon bitwise serial.
    #[test]
    fn aa_odd_step_is_the_streamed_two_grid_pass(
        kind in arb_kind(),
        order in arb_order(),
        low in arb_wall(),
        high in arb_wall(),
        masked in any::<bool>(),
        nx in 1usize..5,
        ny_extra in 1usize..5,
        nz in 8usize..24,
        gx in -1e-4f64..1e-4,
        gz in -1e-4f64..1e-4,
        tau in 0.55f64..2.0,
        seed in any::<u64>(),
    ) {
        let ctx = KernelCtx::new(kind, order, Bgk::new(tau).unwrap());
        let k = ctx.lat.reach();
        let ny = 2 * k + 1 + ny_extra;
        let dims = Dim3::new(nx, ny, nz);
        let mut bounds = BoundarySpec::periodic().with_walls(ChannelWalls { low, high, layers: k });
        if masked {
            bounds = bounds.with_mask(SectionMask::from_fn(ny, nz, |_y, z| z >= nz - 4));
        }
        let g = [gx, 0.0, gz];
        let tables = StreamTables::new(ny, nz);
        // Post-even AA state: swapped storage with 2k halo planes so the
        // odd writers [k, alloc−k) have gather margin.
        let b = seeded_field(ctx.lat.q(), dims, 2 * k, seed);
        let alloc_nx = b.alloc_dims().nx;

        // Unswap to the natural two-grid representation.
        let mut n = b.clone();
        for i in 0..ctx.lat.q() {
            let o = ctx.lat.opposite(i);
            n.slab_mut(i).copy_from_slice(b.slab(o));
        }

        // Two-grid: fused scenario pass, then a pure pull-stream.
        let mut fused_out = DistField::new(ctx.lat.q(), dims, 2 * k).unwrap();
        kernels::fused::stream_collide_cells(
            &ctx, &tables, &n, &mut fused_out, k, alloc_nx - k,
            kernels::GuoForced { g }, &bounds,
        );
        let mut expect = DistField::new(ctx.lat.q(), dims, 2 * k).unwrap();
        kernels::stream(OptLevel::Dh, &ctx, &tables, &fused_out, &mut expect, 2 * k, alloc_nx - 2 * k);

        // AA odd step in place.
        let mut aa_scalar = b.clone();
        kernels::aa_odd_scenario(
            OptLevel::LoBr, &ctx, &tables, &mut aa_scalar, k, alloc_nx - k, g, &bounds,
        );
        // Central planes [2k, alloc−2k) are complete — compare those.
        let d = aa_scalar.alloc_dims();
        for i in 0..ctx.lat.q() {
            for x in 2 * k..alloc_nx - 2 * k {
                let base = d.idx(x, 0, 0);
                for p in 0..d.plane() {
                    prop_assert_eq!(
                        aa_scalar.slab(i)[base + p], expect.slab(i)[base + p],
                        "{:?}/{:?} slab {} x {} p {}", kind, order, i, x, p
                    );
                }
            }
        }

        // AVX2 odd step within FMA re-rounding.
        let mut aa_vec = b.clone();
        kernels::aa_odd_scenario(
            OptLevel::Fused, &ctx, &tables, &mut aa_vec, k, alloc_nx - k, g, &bounds,
        );
        let diff = aa_scalar.max_abs_diff_owned(&aa_vec);
        prop_assert!(diff < 1e-12, "{:?}/{:?} avx2 odd: {}", kind, order, diff);

        // Rayon drivers bitwise-identical to serial.
        let mut aa_par = b.clone();
        kernels::aa_odd_scenario_par(
            OptLevel::LoBr, &ctx, &tables, &mut aa_par, k, alloc_nx - k, g, &bounds,
        );
        prop_assert_eq!(aa_scalar.max_abs_diff_owned(&aa_par), 0.0);
        let mut aa_par_vec = b.clone();
        kernels::aa_odd_scenario_par(
            OptLevel::Fused, &ctx, &tables, &mut aa_par_vec, k, alloc_nx - k, g, &bounds,
        );
        prop_assert_eq!(aa_vec.max_abs_diff_owned(&aa_par_vec), 0.0);
    }
}

// ---------------------------------------------------------------------------
// The AA periodic x-wrap is scheduling-only: the wrap sweep must be
// bitwise-identical to the margin sweep over periodically filled ghosts —
// for arbitrary lattices, wall kinds, masks, forces, fields.
// ---------------------------------------------------------------------------

use lbm_core::kernels::aa;
use lbm_core::kernels::GuoForced;

/// First allocation index (if any) where two fields differ in bits — the
/// whole-allocation bitwise oracle (halo slots included, unlike
/// `max_abs_diff_owned`).
fn first_bit_mismatch(a: &DistField, b: &DistField) -> Option<usize> {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The periodic wrap sweep is bitwise the margin sweep over periodically
    /// filled ghost planes (the decomposed single-rank path it replaced),
    /// and the rayon periodic driver is bitwise its serial kernel — across
    /// lattices, wall kinds, masks, forces and both kernel classes.
    #[test]
    fn aa_periodic_wrap_matches_margin_bitwise(
        kind in arb_kind(),
        order in arb_order(),
        low in arb_wall(),
        high in arb_wall(),
        masked in any::<bool>(),
        simd in any::<bool>(),
        nx in 1usize..5,
        ny_extra in 1usize..5,
        nz in 8usize..24,
        gx in -1e-4f64..1e-4,
        tau in 0.55f64..2.0,
        seed in any::<u64>(),
    ) {
        let ctx = KernelCtx::new(kind, order, Bgk::new(tau).unwrap());
        let q = ctx.lat.q();
        let k = ctx.lat.reach();
        let h = 2 * k;
        let ny = 2 * k + 1 + ny_extra;
        let dims = Dim3::new(nx, ny, nz);
        let mut bounds = BoundarySpec::periodic().with_walls(ChannelWalls { low, high, layers: k });
        if masked {
            bounds = bounds.with_mask(SectionMask::from_fn(ny, nz, |_y, z| z >= nz - 4));
        }
        let op = GuoForced { g: [gx, 0.0, -0.5 * gx] };
        let tables = StreamTables::new(ny, nz);
        let m0 = seeded_field(q, dims, h, seed);
        let da = m0.alloc_dims();
        let plane = ny * nz;

        // Periodic sweep on the halo-free image of the same state.
        let mut p = DistField::new(q, dims, 0).unwrap();
        let dp = p.alloc_dims();
        for i in 0..q {
            for x in 0..nx {
                let s = da.idx(x + h, 0, 0);
                let t = dp.idx(x, 0, 0);
                p.slab_mut(i)[t..t + plane].copy_from_slice(&m0.slab(i)[s..s + plane]);
            }
        }
        aa::odd_cells_periodic(&ctx, &tables, &mut p, 0, nx, op, &bounds, simd);

        // Rayon periodic driver bitwise serial.
        let mut p_par = DistField::new(q, dims, 0).unwrap();
        for i in 0..q {
            p_par.slab_mut(i).copy_from_slice({
                // Rebuild the pre-sweep image (p was updated in place).
                &{
                    let mut tmp = vec![0.0f64; p.slab(i).len()];
                    for x in 0..nx {
                        let s = da.idx(x + h, 0, 0);
                        let t = dp.idx(x, 0, 0);
                        tmp[t..t + plane].copy_from_slice(&m0.slab(i)[s..s + plane]);
                    }
                    tmp
                }
            });
        }
        kernels::par::aa_odd_cells_periodic_par(
            &ctx, &tables, &mut p_par, 0, nx, op, &bounds, simd,
        );
        prop_assert_eq!(
            first_bit_mismatch(&p, &p_par), None,
            "{:?}/{:?} rayon periodic simd={}", kind, order, simd
        );

        // Margin sweep with periodically filled ghosts, writers extended k
        // planes into them, exactly as the decomposed solver runs it. Each
        // ghost plane is filled from the pristine owned plane of its
        // periodic image (valid for any nx, including nx < 2k).
        let mut m = m0.clone();
        for i in 0..q {
            for dst in (0..h).chain(h + nx..h + nx + h) {
                let xo = (dst as isize - h as isize).rem_euclid(nx as isize) as usize;
                let s = da.idx(h + xo, 0, 0);
                let row: Vec<f64> = m0.slab(i)[s..s + plane].to_vec();
                let t = da.idx(dst, 0, 0);
                m.slab_mut(i)[t..t + plane].copy_from_slice(&row);
            }
        }
        aa::odd_cells(&ctx, &tables, &mut m, h - k, h + nx + k, op, &bounds, simd);

        // Owned planes must agree bitwise.
        for i in 0..q {
            for x in 0..nx {
                let sp = dp.idx(x, 0, 0);
                let sm = da.idx(x + h, 0, 0);
                for off in 0..plane {
                    prop_assert_eq!(
                        p.slab(i)[sp + off].to_bits(), m.slab(i)[sm + off].to_bits(),
                        "{:?}/{:?} slab {} x {} off {} simd={}", kind, order, i, x, off, simd
                    );
                }
            }
        }
    }
}
