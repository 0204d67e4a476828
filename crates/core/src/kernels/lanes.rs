//! Lane types: the one place the kernels touch `std::arch`.
//!
//! Every collide traversal is written once, generic over a [`Lanes`] type,
//! and instantiated with two lane types:
//!
//! * [`Scalar`] — `W` plain `f64` lanes; `mul_add` is the unfused
//!   `a·b + c`. This is the reference recipe: every lane computes exactly
//!   the one-cell scalar sequence. The scalar path runs `Scalar<4>` groups
//!   (the same group shape as AVX2), and `Scalar<1>` finishes every run's
//!   tail, vector or not.
//! * [`Avx2`] — four `f64` lanes in a `__m256d`. With `FMA = true`,
//!   `mul_add` is one fused multiply-add (the dense `Simd`/`Fused` rungs and
//!   the AA drivers). With `FMA = false` it stays a multiply then an add, so
//!   every lane repeats the scalar recipe bit for bit (the sparse drivers).
//!
//! A traversal implements [`LaneKernel`]; [`dispatch`] runs it with
//! `Avx2<FMA>` when asked to and the host has AVX2+FMA, and with
//! `Scalar<4>` otherwise. The `Avx2` instantiation runs inside [`run_avx2`], the only
//! `#[target_feature]` function: every lane method and every traversal is
//! `#[inline(always)]`, so the whole traversal is compiled with AVX2+FMA
//! enabled and the intrinsics inline to single instructions.
//!
//! [`prefetch_span`] is the traversals' one software-prefetch primitive
//! (baseline SSE, so it needs no feature check).

/// A group of `N` consecutive `f64` lanes.
pub(crate) trait Lanes: Copy {
    /// Lanes per group.
    const N: usize;

    /// Load `N` doubles from `p` (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for `N` reads.
    unsafe fn load(p: *const f64) -> Self;

    /// Store the `N` lanes to `p` (unaligned).
    ///
    /// # Safety
    /// `p` must be valid for `N` writes.
    unsafe fn store(self, p: *mut f64);

    /// Every lane set to `x`.
    fn splat(x: f64) -> Self;

    /// `self + b`.
    fn add(self, b: Self) -> Self;

    /// `self − b`.
    fn sub(self, b: Self) -> Self;

    /// `self · b`.
    fn mul(self, b: Self) -> Self;

    /// `self / b`.
    fn div(self, b: Self) -> Self;

    /// `self · b + c` (fused only for `Avx2<true>`).
    fn mul_add(self, b: Self, c: Self) -> Self;

    /// `c − self · b` (fused only for `Avx2<true>`).
    fn neg_mul_add(self, b: Self, c: Self) -> Self;

    /// Lane `l` from `set` where bit `l` of `bits` is 1, else from `clear`.
    fn blend(bits: u64, set: Self, clear: Self) -> Self;
}

/// `W` plain `f64` lanes: the reference recipe, each lane computing
/// exactly the scalar operation sequence (Rust never contracts `a·b + c`).
/// Traversals run `Scalar<4>` groups, whose independent lanes the compiler
/// packs into SSE2 registers (a one-cell group runs about half as fast),
/// and finish every run with `Scalar<1>` tails.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scalar<const W: usize = 1>([f64; W]);

impl<const W: usize> Scalar<W> {
    #[inline(always)]
    fn zip(self, b: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self(std::array::from_fn(|l| f(self.0[l], b.0[l])))
    }
}

impl<const W: usize> Lanes for Scalar<W> {
    const N: usize = W;

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: forwarded contract.
        Self(unsafe { p.cast::<[f64; W]>().read_unaligned() })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: forwarded contract.
        unsafe { p.cast::<[f64; W]>().write_unaligned(self.0) }
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self([x; W])
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        self.zip(b, |x, y| x + y)
    }
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        self.zip(b, |x, y| x - y)
    }
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        self.zip(b, |x, y| x * y)
    }
    #[inline(always)]
    fn div(self, b: Self) -> Self {
        self.zip(b, |x, y| x / y)
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        self.mul(b).add(c)
    }
    #[inline(always)]
    fn neg_mul_add(self, b: Self, c: Self) -> Self {
        c.sub(self.mul(b))
    }
    #[inline(always)]
    fn blend(bits: u64, set: Self, clear: Self) -> Self {
        Self(std::array::from_fn(|l| {
            if bits >> l & 1 != 0 {
                set.0[l]
            } else {
                clear.0[l]
            }
        }))
    }
}

/// Four `f64` lanes; `FMA` selects fused or separate multiply-add.
///
/// The type is private to this module, so outside it values exist only
/// inside [`run_avx2`], whose caller has checked [`simd_available`]; that
/// is what makes the intrinsic calls in the methods sound.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
struct Avx2<const FMA: bool>(std::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl<const FMA: bool> Lanes for Avx2<FMA> {
    const N: usize = 4;

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: AVX2 per the type's invariant; `p` per the contract.
        Self(unsafe { std::arch::x86_64::_mm256_loadu_pd(p) })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: as for `load`.
        unsafe { std::arch::x86_64::_mm256_storeu_pd(p, self.0) }
    }
    #[inline(always)]
    fn splat(x: f64) -> Self {
        // SAFETY: AVX2 per the type's invariant (as for every method below).
        Self(unsafe { std::arch::x86_64::_mm256_set1_pd(x) })
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        Self(unsafe { std::arch::x86_64::_mm256_add_pd(self.0, b.0) })
    }
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        Self(unsafe { std::arch::x86_64::_mm256_sub_pd(self.0, b.0) })
    }
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        Self(unsafe { std::arch::x86_64::_mm256_mul_pd(self.0, b.0) })
    }
    #[inline(always)]
    fn div(self, b: Self) -> Self {
        Self(unsafe { std::arch::x86_64::_mm256_div_pd(self.0, b.0) })
    }
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        if FMA {
            Self(unsafe { std::arch::x86_64::_mm256_fmadd_pd(self.0, b.0, c.0) })
        } else {
            self.mul(b).add(c)
        }
    }
    #[inline(always)]
    fn neg_mul_add(self, b: Self, c: Self) -> Self {
        if FMA {
            Self(unsafe { std::arch::x86_64::_mm256_fnmadd_pd(self.0, b.0, c.0) })
        } else {
            c.sub(self.mul(b))
        }
    }
    #[inline(always)]
    fn blend(bits: u64, set: Self, clear: Self) -> Self {
        use std::arch::x86_64::{_mm256_blendv_pd, _mm256_setr_pd};
        let lane = |l: u64| -> f64 {
            if bits & (1 << l) != 0 {
                -0.0 // sign bit set: take `set`
            } else {
                0.0
            }
        };
        unsafe {
            let mask = _mm256_setr_pd(lane(0), lane(1), lane(2), lane(3));
            Self(_mm256_blendv_pd(clear.0, set.0, mask))
        }
    }
}

/// Hint `base[lo..hi]` into L1, one touch per 64-byte line. Never faults:
/// the addresses are only hints, so `[lo, hi)` need not be in bounds.
#[inline(always)]
pub(crate) fn prefetch_span(base: *const f64, lo: usize, hi: usize) {
    let mut p = lo;
    while p < hi {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: PREFETCHT0 is baseline SSE and architecturally a hint.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(p).cast::<i8>());
        }
        p += 8;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = base;
}

/// Whether this CPU runs the [`Avx2`] lanes (AVX2 and FMA), checked once.
pub(crate) fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A kernel traversal written once over the lane type.
pub(crate) trait LaneKernel {
    /// Run the traversal with lane type `L`. Implementations must be
    /// `#[inline(always)]` so that the `Avx2` instantiation is compiled
    /// inside [`run_avx2`].
    ///
    /// # Safety
    /// The implementor's layout and exclusivity contract.
    unsafe fn run<L: Lanes>(&self);
}

/// Run `kernel` with `Avx2<FMA>` lanes when `simd` is asked for and the
/// host has AVX2+FMA, else with `Scalar<4>` lanes.
///
/// # Safety
/// The kernel's own contract.
#[inline]
pub(crate) unsafe fn dispatch<K: LaneKernel, const FMA: bool>(kernel: &K, simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd && simd_available() {
        // SAFETY: AVX2+FMA checked above; kernel contract forwarded.
        unsafe { run_avx2::<K, FMA>(kernel) };
        return;
    }
    let _ = simd;
    // SAFETY: forwarded contract.
    unsafe { kernel.run::<Scalar<4>>() }
}

/// The AVX2+FMA entry point of every traversal.
///
/// # Safety
/// The host must support AVX2 and FMA; the kernel's own contract holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: LaneKernel, const FMA: bool>(kernel: &K) {
    // SAFETY: forwarded contract.
    unsafe { kernel.run::<Avx2<FMA>>() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `[a·b + c, c − a·b]` in lane type `L` to `out`.
    struct Probe {
        out: *mut f64,
        abc: [f64; 3],
    }

    impl LaneKernel for Probe {
        #[inline(always)]
        unsafe fn run<L: Lanes>(&self) {
            let [a, b, c] = self.abc.map(L::splat);
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` holds N ≤ 4 doubles; `out` holds two.
            unsafe {
                a.mul_add(b, c).store(lanes.as_mut_ptr());
                *self.out = lanes[0];
                a.neg_mul_add(b, c).store(lanes.as_mut_ptr());
                *self.out.add(1) = lanes[0];
            }
        }
    }

    fn run_probe<const FMA: bool>(simd: bool, abc: [f64; 3]) -> [f64; 2] {
        let mut out = [0.0; 2];
        let probe = Probe {
            out: out.as_mut_ptr(),
            abc,
        };
        // SAFETY: the probe writes only `out`.
        unsafe { dispatch::<_, FMA>(&probe, simd) };
        out
    }

    #[test]
    fn unfused_lanes_repeat_the_scalar_recipe_and_fused_lanes_round_once() {
        // a·b is inexact, so the fused and unfused results differ.
        let [a, b, c] = [1.0 + f64::EPSILON, 1.0 - f64::EPSILON, -1.0];
        let scalar = [a * b + c, c - a * b];
        assert_eq!(run_probe::<true>(false, [a, b, c]), scalar);
        assert_eq!(run_probe::<false>(true, [a, b, c]), scalar);
        if simd_available() {
            let fused = run_probe::<true>(true, [a, b, c]);
            assert_eq!(fused, [a.mul_add(b, c), (-a).mul_add(b, c)]);
            assert_ne!(fused, scalar);
        }
    }

    #[test]
    fn blend_takes_set_lanes_by_bit() {
        assert_eq!(Scalar::blend(1, Scalar([2.0]), Scalar([3.0])).0, [2.0]);
        assert_eq!(Scalar::blend(0, Scalar([2.0]), Scalar([3.0])).0, [3.0]);
        let v = Scalar::<4>::blend(0b0101, Scalar::splat(1.0), Scalar::splat(-1.0));
        assert_eq!(v.0, [1.0, -1.0, 1.0, -1.0]);
        #[cfg(target_arch = "x86_64")]
        if simd_available() {
            let v = Avx2::<true>::blend(0b0101, Avx2::splat(1.0), Avx2::splat(-1.0));
            let mut out = [0.0; 4];
            // SAFETY: AVX2 checked above; four doubles of output.
            unsafe { v.store(out.as_mut_ptr()) };
            assert_eq!(out, [1.0, -1.0, 1.0, -1.0]);
        }
    }
}
