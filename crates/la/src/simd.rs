//! The one SIMD level of `blast-la`, and the one way a kernel body is cloned
//! for it. [`crate::tile`] and [`crate::stream`] are the only clients.
//!
//! A kernel is a plain safe `#[inline(always)]` body whose first const
//! parameter is `FMA`; [`fma_clones!`] re-compiles it under
//! `#[target_feature]` with wider vectors and `FMA = true`, and emits the
//! function that picks a clone by [`level`]. Vector width is throughput
//! only; `FMA` is the one semantic difference between the clones
//! ([`fmadd`]), so a process runs in exactly one of two regimes
//! ([`fma_active`]): bitwise-equal to the scalar references, or
//! ULP-bounded-close to them.

/// `detected` lowered by the `BLAST_SIMD` value `cap`: a decimal level caps,
/// anything else (unset, not a number, negative) leaves `detected` alone,
/// and no value raises it — the hardware is always the ceiling.
fn capped(detected: u8, cap: Option<&str>) -> u8 {
    cap.and_then(|v| v.trim().parse::<u8>().ok()).map_or(detected, |cap| cap.min(detected))
}

/// The level the clones run at, detected once per process: 2 with `fma`,
/// `avx512f` and `avx512vl`, 1 with `fma` and `avx2`, else 0 (the baseline
/// build of the bodies, `FMA = false`). `BLAST_SIMD=0|1|2` caps it, for
/// diagnostics and for running the scalar regime's tests on an FMA host.
#[inline]
pub(crate) fn level() -> u8 {
    static LEVEL: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let detected = {
            let fma = std::arch::is_x86_feature_detected!("fma");
            if fma
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                2
            } else if fma && std::arch::is_x86_feature_detected!("avx2") {
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

/// Whether the fused-multiply-add clones are in use in this process — i.e.
/// whether `tile` and `stream` results are ULP-close to their scalar
/// references (`dense::naive`, `stream::reference`) instead of bitwise
/// identical.
pub fn fma_active() -> bool {
    level() >= 1
}

/// The one scalar update both regimes are built from: `acc + a*b` with two
/// roundings (the reference semantics), or a single fused rounding. `FMA`
/// is `true` only inside the clones whose `target_feature` includes `fma`,
/// so `mul_add` never lowers to a libm call.
#[inline(always)]
pub(crate) fn fmadd<const FMA: bool>(acc: f64, a: f64, b: f64) -> f64 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// `fn name<consts..> = body(args..) -> ret` defines `name`, which runs the
/// `#[inline(always)]` `body::<FMA, consts..>` as compiled for [`level`]:
/// the `avx512f,avx512vl,fma` clone at 2, the `avx2,fma` clone at 1 (both
/// `FMA = true`), the baseline build with `FMA = false` at 0.
macro_rules! fma_clones {
    ($(#[$doc:meta])* fn $name:ident $(<$($g:ident : $gt:ty),+>)? =
        $body:ident($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        $(#[$doc])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        fn $name $(<$(const $g: $gt),+>)? ($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2 $(<$(const $g: $gt),+>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body::<true $($(, $g)+)?>($($arg),*)
                }
                #[target_feature(enable = "avx512f,avx512vl,fma")]
                unsafe fn avx512 $(<$(const $g: $gt),+>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body::<true $($(, $g)+)?>($($arg),*)
                }
                // SAFETY (both calls): `level()` is at least 1 only after
                // `is_x86_feature_detected!` reported `fma` and `avx2`, and 2
                // only after it reported `avx512f` and `avx512vl` as well;
                // the cap can only lower it.
                match $crate::simd::level() {
                    0 => {}
                    1 => return unsafe { avx2 $(::<$($g),+>)? ($($arg),*) },
                    _ => return unsafe { avx512 $(::<$($g),+>)? ($($arg),*) },
                }
            }
            $body::<false $($(, $g)+)?>($($arg),*)
        }
    };
}
pub(crate) use fma_clones;

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
