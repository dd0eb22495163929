//! The one SIMD level of the workspace, and the one way a `blast-la` kernel
//! body is cloned for it. [`crate::tile`], [`crate::tensor`],
//! [`crate::stream`], [`crate::gram`], [`crate::points`] and
//! [`crate::blockdiag`] are the clients here; `blast_kernels::isa` reads the
//! same [`level`] for its FMA-free clones.
//!
//! A kernel is a plain safe `#[inline(always)]` body; `fma_clones!`
//! re-compiles it under `#[target_feature]` with wider vectors and emits
//! the function that picks a clone by [`level`]. Every clone runs the same
//! arithmetic: a multiply-add is always the one fused rounding of `fmadd`,
//! so vector width is throughput only and every level, on every host, gives
//! the same bits. At level 0 on x86-64 the fused step has no `fma`
//! instruction to lower to and is a libm call, which is slower but exact.
//! The one body with no portable build, `tile::gemm`'s zmm register tile,
//! is compiled by `avx512_clone!` for level 2 only; it runs the same chain.

/// `detected` lowered by the `BLAST_SIMD` value `cap`: a decimal level caps,
/// anything else (unset, not a number, negative) leaves `detected` alone,
/// and no value raises it — the hardware is always the ceiling.
fn capped(detected: u8, cap: Option<&str>) -> u8 {
    cap.and_then(|v| v.trim().parse::<u8>().ok()).map_or(detected, |cap| cap.min(detected))
}

/// The level the clones run at, detected once per process: 2 with `fma`,
/// `avx2`, `avx512f` and `avx512vl`, 1 with `fma` and `avx2`, else 0 (the
/// baseline build of the bodies). So level 1 or more implies `avx2`, and
/// level 2 implies `avx512f`. `BLAST_SIMD=0|1|2` caps it, for diagnostics
/// and for running the narrower clones' tests on a wider host.
/// `blast_kernels` runs its (FMA-free) clones at this level too, so the cap
/// holds for every clone in the process.
#[inline]
pub fn level() -> u8 {
    static LEVEL: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let detected = {
            let avx2 = std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("avx2");
            if avx2
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                2
            } else if avx2 {
                1
            } else {
                0
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let detected = 0;
        capped(detected, std::env::var("BLAST_SIMD").ok().as_deref())
    })
}

/// The one multiply-add step of every clone: `acc + a*b` with a single
/// rounding. Inside a clone whose `target_feature` includes `fma` it is one
/// instruction; in the baseline build it is libm's correctly rounded `fma`.
#[inline(always)]
pub(crate) fn fmadd(acc: f64, a: f64, b: f64) -> f64 {
    a.mul_add(b, acc)
}

/// `fn name<consts..> = body(args..) -> ret` defines `name`, which runs the
/// `#[inline(always)]` `body::<consts..>` as compiled for [`level`]: the
/// `avx512f,avx512vl,fma` clone at 2, the `avx2,fma` clone at 1, the
/// baseline build at 0.
///
/// `fn name<consts..>(level) = body(args..) -> ret` takes the level as a
/// leading `level: u8` argument instead, so a test can run every clone up
/// to [`level`] in one process; the caller passes at most [`level`].
macro_rules! fma_clones {
    (@at $(#[$doc:meta])* fn $name:ident $(<$($g:ident : $gt:ty),+>)?
        [$($lp:ident)?] ($lv:expr) =
        $body:ident($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        $(#[$doc])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        fn $name $(<$(const $g: $gt),+>)? ($($lp: u8,)? $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: a safe body; the caller checks the features.
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2 $(<$(const $g: $gt),+>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body $(::<$($g),+>)? ($($arg),*)
                }
                // SAFETY: a safe body; the caller checks the features.
                #[target_feature(enable = "avx512f,avx512vl,fma")]
                unsafe fn avx512 $(<$(const $g: $gt),+>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body $(::<$($g),+>)? ($($arg),*)
                }
                match $lv {
                    0 => {}
                    // SAFETY: `level()` is at least 1 only after
                    // `is_x86_feature_detected!` reported `fma` and `avx2`;
                    // the cap can only lower it, and a caller-given level
                    // is at most `level()`.
                    1 => return unsafe { avx2 $(::<$($g),+>)? ($($arg),*) },
                    // SAFETY: and 2 only after it reported `avx512f` and
                    // `avx512vl` as well.
                    _ => return unsafe { avx512 $(::<$($g),+>)? ($($arg),*) },
                }
            }
            $body $(::<$($g),+>)? ($($arg),*)
        }
    };
    ($(#[$doc:meta])* fn $name:ident $(<$($g:ident : $gt:ty),+>)? ($level:ident) =
        $body:ident($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        $crate::simd::fma_clones!(@at $(#[$doc])* fn $name $(<$($g: $gt),+>)? [$level] ($level) =
            $body($($arg: $ty),*) $(-> $ret)?);
    };
    ($(#[$doc:meta])* fn $name:ident $(<$($g:ident : $gt:ty),+>)? =
        $body:ident($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        $crate::simd::fma_clones!(@at $(#[$doc])* fn $name $(<$($g: $gt),+>)? [] ($crate::simd::level()) =
            $body($($arg: $ty),*) $(-> $ret)?);
    };
}
pub(crate) use fma_clones;

/// `fn name<consts..> = body(args..)` defines `name(args..) -> bool`: at
/// [`level`] 2 it runs the `#[inline(always)] unsafe` `body::<consts..>`
/// compiled for `avx512f,avx512vl,fma` and returns `true`; below 2 it runs
/// nothing and returns `false`, and the caller takes its portable path. The
/// body's one obligation on its caller is those three features: it checks
/// its own arguments. The sibling of [`fma_clones!`] for a body written in
/// `core::arch` intrinsics, which have no portable build.
macro_rules! avx512_clone {
    ($(#[$doc:meta])* fn $name:ident $(<$($g:ident : $gt:ty),+>)? =
        $($body:ident)::+ ($($arg:ident : $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        fn $name $(<$(const $g: $gt),+>)? ($($arg: $ty),*) -> bool {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: the body's contract is the features enabled here,
                // which the caller checks.
                #[target_feature(enable = "avx512f,avx512vl,fma")]
                unsafe fn avx512 $(<$(const $g: $gt),+>)? ($($arg: $ty),*) {
                    // SAFETY: this function runs with the body's features.
                    unsafe { $($body)::+ $(::<$($g),+>)? ($($arg),*) }
                }
                if $crate::simd::level() >= 2 {
                    // SAFETY: `level()` is 2 only after
                    // `is_x86_feature_detected!` reported `fma`, `avx2`,
                    // `avx512f` and `avx512vl`; the cap can only lower it.
                    unsafe { avx512 $(::<$($g),+>)? ($($arg),*) };
                    return true;
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = ($(&$arg,)*);
            false
        }
    };
}
pub(crate) use avx512_clone;

#[cfg(test)]
mod tests {
    use super::capped;

    #[test]
    fn the_cap_lowers_the_level_and_nothing_else() {
        assert_eq!(capped(2, None), 2, "no variable");
        assert_eq!(capped(2, Some("0")), 0);
        assert_eq!(capped(2, Some(" 1 ")), 1, "surrounding blanks are trimmed");
        assert_eq!(capped(1, Some("2")), 1, "a cap above the detected level does not raise it");
        assert_eq!(capped(2, Some("avx2")), 2, "not a number: ignored");
        assert_eq!(capped(2, Some("-1")), 2, "negative: ignored");
    }
}
