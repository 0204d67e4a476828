//! `SIMD` — explicit short-vector collide (paper §V-G).
//!
//! The paper hand-coded double-hummer intrinsics (BG/P) and QPX quad-word
//! operations (BG/Q) for the collide function, on 16-byte-aligned data. The
//! host analogue is AVX2+FMA over 4-wide `f64` lanes: four consecutive
//! z-cells are collided at once — moment accumulation, one vector reciprocal,
//! equilibrium polynomial, and relaxation all in vector registers with fused
//! multiply-adds (the same `fpmadd` idea the paper invokes).
//!
//! There is no separate vector body and no collide entry point here:
//! [`crate::kernels::collide`] and [`crate::kernels::collide_scenario`] at
//! this rung run the one in-place collide traversal of
//! [`crate::kernels::op`] with the `Avx2<true>` lane type of
//! `kernels::lanes` instead of `Scalar`: the same per-cell
//! arithmetic in the same association order, each `a·b + c` fused. Each
//! fluid z-run is swept four cells at a time, and the last `len % 4` cells
//! run the `Scalar` instantiation. Without AVX2+FMA the rung runs `Scalar`
//! throughout, so the crate stays portable (the benchmark harness reports
//! when that fallback was taken). Streaming is already a memcpy exercise
//! after LoBr, so this rung reuses the CF/LoBr stream.

use crate::kernels::lanes;

/// True when the vectorized path is available on this CPU (AVX2 and FMA).
pub fn simd_available() -> bool {
    lanes::simd_available()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{BoundarySpec, ChannelWalls, SectionMask};
    use crate::collision::Bgk;
    use crate::equilibrium::EqOrder;
    use crate::field::DistField;
    use crate::index::Dim3;
    use crate::kernels::dh;
    use crate::kernels::op::{self, CollideOp, GuoForced};
    use crate::kernels::{KernelCtx, OptLevel};
    use crate::lattice::LatticeKind;

    fn ctx(kind: LatticeKind) -> KernelCtx {
        let order = if kind == LatticeKind::D3Q39 {
            EqOrder::Third
        } else {
            EqOrder::Second
        };
        KernelCtx::new(kind, order, Bgk::new(0.85).unwrap())
    }

    /// The `Simd` rung's plain periodic collide.
    fn collide(ctx: &KernelCtx, f: &mut DistField, x_lo: usize, x_hi: usize) {
        crate::kernels::collide(OptLevel::Simd, ctx, f, x_lo, x_hi);
    }

    /// The `Simd` rung's boundary-aware collide under `op`.
    fn collide_cells<O: CollideOp>(
        ctx: &KernelCtx,
        f: &mut DistField,
        x_lo: usize,
        x_hi: usize,
        op: O,
        bounds: &BoundarySpec,
    ) {
        op::collide_field(ctx, f, x_lo, x_hi, op, bounds, true);
    }

    fn random_field(q: usize, dims: Dim3, seed: u64) -> DistField {
        let mut f = DistField::new(q, dims, 0).unwrap();
        let mut state = seed | 1;
        for v in f.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = 0.04 + (state % 769) as f64 / 1300.0;
        }
        f
    }

    #[test]
    fn simd_collide_matches_dh_within_fma_tolerance() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            // nz = 11 forces a 3-cell scalar tail.
            let dims = Dim3::new(4, 3, 11);
            let mut a = random_field(c.lat.q(), dims, 71);
            let mut b = a.clone();
            dh::collide(&c, &mut a, 0, dims.nx);
            collide(&c, &mut b, 0, dims.nx);
            let diff = a.max_abs_diff_owned(&b);
            // FMA re-rounding only: differences are a few ulps of O(1) values.
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn simd_collide_conserves_mass_exactly_enough() {
        let c = ctx(LatticeKind::D3Q39);
        let dims = Dim3::new(3, 3, 16);
        let mut f = random_field(c.lat.q(), dims, 5);
        let before = f.owned_mass();
        collide(&c, &mut f, 0, dims.nx);
        let after = f.owned_mass();
        assert!(
            (before - after).abs() < 1e-10 * before.abs(),
            "{before} vs {after}"
        );
    }

    #[test]
    fn forced_simd_matches_forced_scalar_within_fma_tolerance() {
        for kind in [LatticeKind::D3Q19, LatticeKind::D3Q39] {
            let c = ctx(kind);
            let dims = Dim3::new(3, 8, 11); // scalar tail + walls
            let bounds = BoundarySpec::periodic()
                .with_walls(ChannelWalls::no_slip(3))
                .with_mask(SectionMask::from_fn(8, 11, |_y, z| z == 5));
            let op = GuoForced {
                g: [4e-5, 0.0, -2e-5],
            };
            let mut a = random_field(c.lat.q(), dims, 77);
            let mut b = a.clone();
            op::collide_cells(&c, &mut a, 0, dims.nx, op, &bounds);
            collide_cells(&c, &mut b, 0, dims.nx, op, &bounds);
            let diff = a.max_abs_diff_owned(&b);
            assert!(diff < 1e-13, "{kind:?}: {diff}");
        }
    }

    #[test]
    fn forced_simd_skips_walls_and_mask() {
        let c = ctx(LatticeKind::D3Q19);
        let dims = Dim3::new(3, 6, 9);
        let bounds = BoundarySpec::periodic()
            .with_walls(ChannelWalls::no_slip(1))
            .with_mask(SectionMask::from_fn(6, 9, |_y, z| z == 4));
        let mut f = random_field(c.lat.q(), dims, 13);
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
                    let lin = d.idx(x, 2, z);
                    if z == 4 {
                        assert_eq!(f.slab(i)[lin], before.slab(i)[lin], "masked");
                    }
                }
            }
        }
        assert!(f.max_abs_diff_owned(&before) > 0.0, "fluid must collide");
    }

    #[test]
    fn availability_probe_is_stable() {
        assert_eq!(simd_available(), simd_available());
    }
}
