//! Vectorized fused stream+collide — the `Fused` rung's AVX2+FMA path.
//!
//! Same single-pass data flow as [`crate::kernels::fused`] (`2·Q·8`
//! bytes/cell: one read and one write per velocity), with the moment
//! accumulation, reciprocal, equilibrium polynomial and relaxation performed
//! on 4-wide `f64` z-lanes over the gathered tile — the same vectorization
//! the paper hand-coded for the collide function (§V-G), applied to the
//! kernel shape its conclusion (§VII) asks for.
//!
//! There is no separate vector body and no entry point here:
//! [`crate::kernels::stream_collide`] at the `Fused` rung,
//! [`crate::kernels::stream_collide_scenario`] and the rayon drivers of
//! [`crate::kernels::par`] run the one fused traversal of
//! [`crate::kernels::fused`] with the `Avx2<true>` lane type of
//! `kernels::lanes` — the same per-cell arithmetic as every other driver,
//! each `a·b + c` fused, the last `blk % 4` cells of a tile block finished
//! by the `Scalar` instantiation. Wall rows, masked cells, the rotate-copy
//! gather and its prefetch are the traversal's, unchanged. Without
//! AVX2+FMA the rung runs `Scalar` throughout, so the crate stays portable.
//! This module holds the rung's tests.

#[cfg(test)]
mod tests {
    use crate::boundary::{BoundarySpec, ChannelWalls, SectionMask};
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::field::DistField;
    use crate::index::Dim3;
    use crate::kernels::op::{CollideOp, GuoForced, PlainBgk};
    use crate::kernels::{dh, fused, KernelCtx, OptLevel, StreamTables};
    use crate::lattice::LatticeKind;

    /// The `Fused` rung's plain periodic pass.
    fn stream_collide(
        ctx: &KernelCtx,
        tables: &StreamTables,
        src: &DistField,
        dst: &mut DistField,
        x_lo: usize,
        x_hi: usize,
    ) {
        let periodic = BoundarySpec::periodic();
        stream_collide_cells(ctx, tables, src, dst, x_lo, x_hi, PlainBgk, &periodic);
    }

    /// The `Fused` rung's boundary-aware pass under `op`.
    #[allow(clippy::too_many_arguments)]
    fn stream_collide_cells<O: CollideOp>(
        ctx: &KernelCtx,
        tables: &StreamTables,
        src: &DistField,
        dst: &mut DistField,
        x_lo: usize,
        x_hi: usize,
        op: O,
        bounds: &BoundarySpec,
    ) {
        fused::stream_collide_field(ctx, tables, src, dst, x_lo, x_hi, op, bounds, true);
    }

    fn ctx(kind: LatticeKind, order: EqOrder) -> KernelCtx {
        KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
    }

    fn random_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, halo).unwrap();
        let mut s = seed | 1;
        for v in f.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = 0.03 + (s % 811) as f64 / 1100.0;
        }
        f
    }

    #[test]
    fn fused_simd_matches_split_within_fma_tolerance() {
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q27, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let c = ctx(kind, order);
            let k = c.lat.reach();
            // nz = 13 forces both a tile boundary path and a scalar tail.
            let dims = Dim3::new(5, 7, 13);
            let src = random_field(c.lat.q(), dims, k, 91);
            let tables = StreamTables::new(dims.ny, dims.nz);

            let mut split = DistField::new(c.lat.q(), dims, k).unwrap();
            dh::stream(&c, &tables, &src, &mut split, k, k + dims.nx);
            crate::kernels::collide(OptLevel::Dh, &c, &mut split, k, k + dims.nx);

            let mut fused = DistField::new(c.lat.q(), dims, k).unwrap();
            stream_collide(&c, &tables, &src, &mut fused, k, k + dims.nx);

            let diff = split.max_abs_diff_owned(&fused);
            // FMA re-rounding only: a few ulps of O(1) values.
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn fused_simd_matches_fused_scalar_closely() {
        let c = ctx(LatticeKind::D3Q39, EqOrder::Third);
        let k = c.lat.reach();
        let dims = Dim3::new(4, 7, 37);
        let src = random_field(c.lat.q(), dims, k, 17);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut a = DistField::new(c.lat.q(), dims, k).unwrap();
        let mut b = DistField::new(c.lat.q(), dims, k).unwrap();
        fused::stream_collide(&c, &tables, &src, &mut a, k, k + dims.nx);
        stream_collide(&c, &tables, &src, &mut b, k, k + dims.nx);
        assert!(a.max_abs_diff_owned(&b) < 1e-13);
    }

    #[test]
    fn fused_simd_scenario_matches_fused_scalar_scenario_closely() {
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let c = ctx(kind, order);
            let k = c.lat.reach();
            let dims = Dim3::new(4, 9, 13);
            let bounds = BoundarySpec::periodic()
                .with_walls(ChannelWalls::no_slip(k))
                .with_mask(SectionMask::from_fn(9, 13, |_y, z| z >= 10));
            let op = GuoForced {
                g: [4e-5, 0.0, -1e-5],
            };
            let src = random_field(c.lat.q(), dims, k, 39);
            let tables = StreamTables::new(dims.ny, dims.nz);
            let mut a = DistField::new(c.lat.q(), dims, k).unwrap();
            let mut b = DistField::new(c.lat.q(), dims, k).unwrap();
            fused::stream_collide_cells(&c, &tables, &src, &mut a, k, k + dims.nx, op, &bounds);
            stream_collide_cells(&c, &tables, &src, &mut b, k, k + dims.nx, op, &bounds);
            let diff = a.max_abs_diff_owned(&b);
            assert!(diff < 1e-13, "{kind:?}: {diff}");
            // Wall rows and masked cells are pure copies/transforms of the
            // same gathered arrivals: bitwise equal even under FMA.
            let d = a.alloc_dims();
            for i in 0..c.lat.q() {
                for x in k..k + dims.nx {
                    for z in 0..dims.nz {
                        for y in (0..k).chain(9 - k..9) {
                            let lin = d.idx(x, y, z);
                            assert_eq!(a.slab(i)[lin], b.slab(i)[lin], "wall row");
                        }
                        if z >= 10 {
                            let lin = d.idx(x, 4, z);
                            assert_eq!(a.slab(i)[lin], b.slab(i)[lin], "masked");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_simd_respects_x_range() {
        let c = ctx(LatticeKind::D3Q19, EqOrder::Second);
        let dims = Dim3::new(8, 7, 9);
        let src = random_field(c.lat.q(), dims, 1, 3);
        let tables = StreamTables::new(dims.ny, dims.nz);
        let mut dst = DistField::new(c.lat.q(), dims, 1).unwrap();
        let before = dst.clone();
        stream_collide(&c, &tables, &src, &mut dst, 3, 5);
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
    fn split_simd_collide_is_bitwise_the_simd_fused_pass() {
        // One AVX2 recipe: on whole lane groups (nz % 4 == 0, no mask) the
        // `Simd` rung's split stream + collide and the `Fused` rung's single
        // pass run the identical per-lane operation sequence.
        if !crate::kernels::simd::simd_available() {
            return;
        }
        for (kind, order) in [
            (LatticeKind::D3Q19, EqOrder::Second),
            (LatticeKind::D3Q39, EqOrder::Third),
        ] {
            let c = ctx(kind, order);
            let k = c.lat.reach();
            for nz in [12, 128] {
                let dims = Dim3::new(4, 7, nz);
                let src = random_field(c.lat.q(), dims, k, 29);
                let tables = StreamTables::new(dims.ny, dims.nz);
                let bounds = BoundarySpec::periodic();
                for g in [[0.0; 3], [3e-5, -1e-5, 2e-5]] {
                    let mut split = DistField::new(c.lat.q(), dims, k).unwrap();
                    dh::stream(&c, &tables, &src, &mut split, k, k + dims.nx);
                    crate::kernels::collide_scenario(
                        OptLevel::Simd,
                        &c,
                        &mut split,
                        k,
                        k + dims.nx,
                        g,
                        &bounds,
                    );
                    let mut fused = DistField::new(c.lat.q(), dims, k).unwrap();
                    crate::kernels::stream_collide_scenario(
                        &c,
                        &tables,
                        &src,
                        &mut fused,
                        k,
                        k + dims.nx,
                        g,
                        &bounds,
                    );
                    assert_eq!(
                        split.max_abs_diff_owned(&fused),
                        0.0,
                        "{kind:?} nz={nz} g={g:?}"
                    );
                }
            }
        }
    }
}
