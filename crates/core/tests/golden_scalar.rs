//! Golden hashes of the scalar reference recipe.
//!
//! The parity tests elsewhere compare drivers against each other, so a change
//! to the per-cell arithmetic made everywhere at once would pass them. This
//! test pins the raw bits instead: a few steps of every scalar driver (and of
//! both sparse drivers, whose AVX2 form is bitwise the scalar one) on fixed
//! inputs, hashed with FNV-1a and compared against recorded constants.

use lbm_core::boundary::{BoundarySpec, ChannelWalls, SectionMask, WallKind};
use lbm_core::collision::Bgk;
use lbm_core::equilibrium::EqOrder;
use lbm_core::field::DistField;
use lbm_core::geometry::{Geometry, SparseTiles};
use lbm_core::index::Dim3;
use lbm_core::kernels::op::{self, CollideOp, GuoForced, PlainBgk};
use lbm_core::kernels::sparse::{self, GatherTable, SparseField};
use lbm_core::kernels::{aa, fused, KernelCtx, StreamTables};
use lbm_core::lattice::LatticeKind;

const FORCE: [f64; 3] = [2e-5, -1e-5, 5e-6];

fn fnv1a(words: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn ctx_for(kind: LatticeKind) -> KernelCtx {
    let order = if kind == LatticeKind::D3Q39 {
        EqOrder::Third
    } else {
        EqOrder::Second
    };
    KernelCtx::new(kind, order, Bgk::new(0.8).unwrap())
}

fn seeded_field(q: usize, dims: Dim3, halo: usize, seed: u64) -> DistField {
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

/// Walls on both channel sides (one moving, so the AA steps transform
/// them) and a masked z-column, on a box whose nz leaves a 4-lane tail.
fn bounds_for(k: usize, ny: usize, nz: usize) -> BoundarySpec {
    BoundarySpec::periodic()
        .with_walls(ChannelWalls {
            low: WallKind::BounceBack,
            high: WallKind::Moving {
                u: [0.03, 0.0, -0.01],
                rho: 1.0,
            },
            layers: k,
        })
        .with_mask(SectionMask::from_fn(ny, nz, |y, z| z == 5 && y % 2 == 0))
}

/// Hashes of the dense scalar drivers: in-place collide, fused, AA pairs
/// (margin and periodic).
fn dense_hashes<O: CollideOp>(kind: LatticeKind, op: O) -> [u64; 4] {
    let ctx = ctx_for(kind);
    let q = ctx.lat.q();
    let k = ctx.lat.reach();
    let dims = Dim3::new(3, 2 * k + 5, 13);
    let bounds = bounds_for(k, dims.ny, dims.nz);
    let tables = StreamTables::new(dims.ny, dims.nz);

    let mut f = seeded_field(q, dims, 0, 101);
    for _ in 0..3 {
        op::collide_cells(&ctx, &mut f, 0, dims.nx, op, &bounds);
    }
    let collide = fnv1a(f.as_slice());

    let mut src = seeded_field(q, dims, k, 202);
    let mut dst = seeded_field(q, dims, k, 303);
    for _ in 0..3 {
        fused::stream_collide_cells(&ctx, &tables, &src, &mut dst, k, k + dims.nx, op, &bounds);
        std::mem::swap(&mut src, &mut dst);
    }
    let fused = fnv1a(src.as_slice());

    let mut a = seeded_field(q, dims, 2 * k, 404);
    let nx = a.alloc_dims().nx;
    for _ in 0..2 {
        aa::even_cells(&ctx, &mut a, 2 * k, 2 * k + dims.nx, op, &bounds, false);
        aa::odd_cells(&ctx, &tables, &mut a, k, nx - k, op, &bounds, false);
    }
    let aa_margin = fnv1a(a.as_slice());

    let mut p = seeded_field(q, dims, 0, 505);
    for _ in 0..2 {
        aa::even_cells(&ctx, &mut p, 0, dims.nx, op, &bounds, false);
        aa::odd_cells_periodic(&ctx, &tables, &mut p, 0, dims.nx, op, &bounds, false);
    }
    let aa_periodic = fnv1a(p.as_slice());

    [collide, fused, aa_margin, aa_periodic]
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

/// Hashes of the sparse two-grid and AA drivers on a seeded porous bed.
fn sparse_hashes(kind: LatticeKind, g: [f64; 3], simd: bool) -> [u64; 2] {
    let ctx = ctx_for(kind);
    let q = ctx.lat.q();
    let d = Dim3::new(16, 16, 16);
    let geom = Geometry::porous(d, 2.5, 0.3, 7).unwrap();
    let tiles = SparseTiles::build_serial(&geom).unwrap();
    let gt = GatherTable::new(&ctx.lat);

    let mut src = SparseField::new(q, tiles.tile_count()).unwrap();
    let mut dst = SparseField::new(q, tiles.tile_count()).unwrap();
    sparse::init_equilibrium(&ctx, &tiles, &gt, &mut src, d, smooth_state(d));
    for _ in 0..3 {
        sparse::step(&ctx, &tiles, &gt, &src, &mut dst, g, simd);
        std::mem::swap(&mut src, &mut dst);
    }
    let two_grid = fnv1a(src.as_slice());

    let mut f = SparseField::new(q, tiles.tile_count()).unwrap();
    sparse::init_equilibrium_aa(&ctx, &tiles, &mut f, d, smooth_state(d));
    for _ in 0..2 {
        sparse::aa_even_step(&ctx, &tiles, &mut f, g, simd);
        sparse::aa_odd_step(&ctx, &tiles, &gt, &mut f, g, simd);
    }
    [two_grid, fnv1a(f.as_slice())]
}

/// `(lattice, forced)` → [collide, fused, AA margin, AA periodic, sparse,
/// sparse AA]. A change to the scalar recipe (association order, fused
/// multiply-adds) moves these; re-record them only on purpose.
const GOLDEN: [(LatticeKind, bool, [u64; 6]); 4] = [
    (
        LatticeKind::D3Q19,
        false,
        [
            0x3b99a25d35bf9147,
            0xb5ce1d56a0607960,
            0x1c7154ab04b98031,
            0x7614e8d7f7da98b0,
            0x76cfc17d16c93593,
            0x9d8ad503feb96de3,
        ],
    ),
    (
        LatticeKind::D3Q19,
        true,
        [
            0xd3124339d0a25ddc,
            0xc7ffc6656acc4baa,
            0x745f9faa50583a4d,
            0x6edf7d9b38e8b99f,
            0xd2ed5f14705e84b5,
            0xb8d5ace9d2ee2511,
        ],
    ),
    (
        LatticeKind::D3Q39,
        false,
        [
            0x9c584ac47f27c777,
            0xbb5c01d28393e155,
            0x7c05f25bf5a93702,
            0x8001149520b77338,
            0x962ef555cc7d11d2,
            0xf8bceda4785c430e,
        ],
    ),
    (
        LatticeKind::D3Q39,
        true,
        [
            0xe351d3ec4aeaaa23,
            0x0da86dc8dee920f1,
            0xee1520ce2d235852,
            0x01805467c374fdf3,
            0x7ee0b118e1ecb7e0,
            0xecd6c9da0167c5db,
        ],
    ),
];

#[test]
fn scalar_drivers_reproduce_the_recorded_bits() {
    let mut failures = Vec::new();
    for (kind, forced, want) in GOLDEN {
        let dense = if forced {
            dense_hashes(kind, GuoForced { g: FORCE })
        } else {
            dense_hashes(kind, PlainBgk)
        };
        let g = if forced { FORCE } else { [0.0; 3] };
        for simd in [false, true] {
            let sp = sparse_hashes(kind, g, simd);
            let got = [dense[0], dense[1], dense[2], dense[3], sp[0], sp[1]];
            println!("{kind:?} forced={forced} simd={simd}: {got:#018x?}");
            if got != want {
                failures.push(format!("{kind:?} forced={forced} simd={simd}"));
            }
        }
    }
    assert!(failures.is_empty(), "recipe changed: {failures:?}");
}
