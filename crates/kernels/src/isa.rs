//! Instruction-set levels the host bodies of kernels 1 to 6 and of the
//! matrix-free force are cloned for.
//!
//! Each zone body is one `#[inline(always)]` function; [`isa_clones!`]
//! re-compiles exactly that body under `#[target_feature]` with wider
//! vectors (the idiom of `blast_la::stream`). None of the levels enables
//! `fma` and the bodies never call `mul_add`, so every level rounds each
//! product and each sum separately and produces the same bits — which is
//! why the level is simply `blast_la::simd::level`'s: one detection and one
//! `BLAST_SIMD` cap per process for every clone of the workspace, with
//! nothing of its own to tune or override.

/// A level this host was *detected* to support: the only constructors are
/// [`Isa::detect`] and [`Isa::available`], which read it off
/// `blast_la::simd::level` — at least 1 only on an `avx2` host, 2 only on
/// an `avx512f` one — and that is what makes calling the matching
/// `#[target_feature]` clone sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    /// The baseline build of the body (SSE2 on x86-64).
    Scalar,
    Avx2,
    Avx512,
}

/// Indexed by `blast_la::simd::level` (0 / 1 / 2), narrowest first.
const LEVELS: [Level; 3] = [Level::Scalar, Level::Avx2, Level::Avx512];

impl Isa {
    /// The level every clone runs at in this process.
    pub(crate) fn detect() -> Isa {
        Isa(LEVELS[usize::from(blast_la::simd::level())])
    }

    /// Every level up to [`Isa::detect`]'s, baseline first (the
    /// clone-vs-scalar tests walk this).
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Isa> {
        LEVELS[..=usize::from(blast_la::simd::level())].iter().copied().map(Isa).collect()
    }

    /// Whether this is the detected-`avx2` level.
    pub(crate) fn is_avx2(self) -> bool {
        self.0 == Level::Avx2
    }

    /// Whether this is the detected-`avx512f` level.
    pub(crate) fn is_avx512(self) -> bool {
        self.0 == Level::Avx512
    }
}

/// Seeded values in [-1, 1) with exact `0.0` and `-0.0` entries mixed in —
/// inputs on which skipping a zero table entry, or starting an accumulator
/// anywhere but `+0.0`, would show in a sign bit (clone-vs-scalar tests).
#[cfg(test)]
pub(crate) fn signed_zero_mix(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (s >> 33) % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
            }
        })
        .collect()
}

/// The bit patterns of `v`, for whole-buffer bitwise comparisons (`-0.0`
/// and NaN payloads included) in the clone-vs-reference tests.
#[cfg(test)]
pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Defines `fn $name<const D: usize>(isa: Isa, args..)`, which runs the
/// `#[inline(always)]` body `$body::<D>` as compiled for `isa`.
///
/// With `lanes` before the body's name the body is `$body::<D, W>` and
/// works on groups of `W` quadrature points (`crate::point`) or `d x d`
/// products (`crate::k56`), one SIMD lane each: `W` = 4 / 8 / 16 at baseline / `avx2` / `avx512f`,
/// two vectors of the level's width. Per-point results do not depend on
/// `W`, so the width is not a parameter of anything either.
macro_rules! isa_clones {
    ($(#[$doc:meta])* fn $name:ident = lanes $body:ident($($arg:ident : $ty:ty),* $(,)?)) => {
        $crate::isa::isa_clones! {
            @emit $(#[$doc])* fn $name = $body [D, 4] [D, 8] [D, 16] ($($arg: $ty),*)
        }
    };
    ($(#[$doc:meta])* fn $name:ident = $body:ident($($arg:ident : $ty:ty),* $(,)?)) => {
        $crate::isa::isa_clones! {
            @emit $(#[$doc])* fn $name = $body [D] [D] [D] ($($arg: $ty),*)
        }
    };
    (@emit $(#[$doc:meta])* fn $name:ident = $body:ident
        [$($base:tt)*] [$($avx2:tt)*] [$($avx512:tt)*] ($($arg:ident : $ty:ty),*)) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        fn $name<const D: usize>(isa: $crate::isa::Isa, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2<const D: usize>($($arg: $ty),*) {
                    $body::<$($avx2)*>($($arg),*)
                }
                #[target_feature(enable = "avx512f")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx512<const D: usize>($($arg: $ty),*) {
                    $body::<$($avx512)*>($($arg),*)
                }
                if isa.is_avx512() {
                    // SAFETY: an `Isa` at this level only exists when
                    // `blast_la::simd::level` is 2, which it is only after
                    // its one detection found `avx512f`.
                    return unsafe { avx512::<D>($($arg),*) };
                }
                if isa.is_avx2() {
                    // SAFETY: as above, for level 1 and `avx2`.
                    return unsafe { avx2::<D>($($arg),*) };
                }
            }
            $body::<$($base)*>($($arg),*)
        }
    };
}
pub(crate) use isa_clones;
