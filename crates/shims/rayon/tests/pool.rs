//! The pool through the public surface: bitwise width-invariance of every
//! terminal operation on explicit pools, and the behaviour of the handle —
//! `install` nesting, panics, two callers on one pool, an oversubscribed
//! width, the default-pool shim.

use rayon::prelude::*;
use rayon::Pool;

#[test]
fn par_chunks_exact_mut_matches_serial() {
    let mut v = vec![0.0f64; 8];
    v.par_chunks_exact_mut(2).enumerate().for_each(|(i, c)| {
        c[0] = i as f64;
        c[1] = -(i as f64);
    });
    assert_eq!(v, vec![0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]);
}

#[test]
fn zip_and_marker_traits_compose() {
    fn takes_indexed<I: rayon::IndexedParallelIterator>(it: I) -> usize {
        it.count()
    }
    let mut a = [1, 2, 3, 4];
    let mut b = [10, 20];
    let n = takes_indexed(a.par_chunks_exact_mut(2).zip(b.par_iter_mut()));
    assert_eq!(n, 2);
}

#[test]
fn for_each_covers_every_item_at_8_threads() {
    let mut v = vec![0usize; 10_000];
    Pool::new(8).install(|| {
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * i);
    });
    for (i, &x) in v.iter().enumerate() {
        assert_eq!(x, i * i);
    }
}

#[test]
fn kernel_shaped_chain_matches_serial_reference() {
    // Same chain shape as kernels::k1 — two zips plus enumerate.
    let stride = 3;
    let n = 1000;
    let run = |threads: usize| {
        let mut adj = vec![0.0f64; n * stride];
        let mut det = vec![0.0f64; n];
        let mut hmin = vec![0.0f64; n];
        Pool::new(threads).install(|| {
            adj.par_chunks_exact_mut(stride)
                .zip(det.par_iter_mut())
                .zip(hmin.par_iter_mut())
                .enumerate()
                .for_each(|(p, ((adj_p, det_p), hmin_p))| {
                    for (k, a) in adj_p.iter_mut().enumerate() {
                        *a = (p * stride + k) as f64 * 0.5;
                    }
                    *det_p = 1.0 / (p + 1) as f64;
                    *hmin_p = (p as f64).sqrt();
                });
        });
        (adj, det, hmin)
    };
    let serial = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(serial, run(threads), "{threads} threads");
    }
}

/// Magnitudes spread over ~12 decades so any regrouping of the
/// additions changes the rounding.
fn spread(n: usize) -> Vec<f64> {
    (0..n).map(|i| (1.0 + i as f64).powi(3) * if i % 2 == 0 { 1e-6 } else { 1e6 }).collect()
}

#[test]
fn sum_is_bitwise_identical_across_thread_counts() {
    // The equality below holds only if the block grid is
    // thread-count independent.
    let v = spread(4096);
    let sums: Vec<u64> = [1usize, 2, 3, 8]
        .iter()
        .map(|&t| Pool::new(t).install(|| v.par_iter().map(|x| x * 1.000000119).sum::<f64>()))
        .map(f64::to_bits)
        .collect();
    assert!(sums.windows(2).all(|w| w[0] == w[1]), "sums differ across thread counts: {sums:?}");
}

#[test]
fn reduce_is_bitwise_identical_across_thread_counts() {
    let v: Vec<f64> = (0..999).map(|i| (i as f64).sin() * 10f64.powi(i % 9)).collect();
    let reduce = || v.par_iter().map(|x| *x).reduce(|| 0.0, |a, b| a + b);
    let r1 = Pool::new(1).install(reduce);
    for threads in [2, 3, 8] {
        assert_eq!(r1.to_bits(), Pool::new(threads).install(reduce).to_bits(), "{threads} threads");
    }
}

#[test]
fn zip_truncates_to_shorter_side() {
    let a = [1.0f64; 7];
    let mut b = vec![0.0f64; 5];
    b.par_iter_mut().zip(a.par_iter()).for_each(|(y, x)| *y = *x);
    assert_eq!(b, vec![1.0; 5]);
}

#[test]
fn nested_parallelism_runs_serially_without_deadlock() {
    let mut outer = vec![0usize; 64];
    let pool = Pool::new(4);
    pool.install(|| {
        outer.par_iter_mut().enumerate().for_each(|(i, x)| {
            let inner: usize = (0..100usize).into_par_iter().map(|j| i + j).sum();
            *x = inner;
        });
    });
    for (i, &x) in outer.iter().enumerate() {
        assert_eq!(x, 100 * i + 4950);
    }
    assert_eq!(pool.stats().parallel_calls, 1, "the inner calls ran serially");
}

#[test]
fn a_panicking_block_resumes_on_the_caller_and_the_pool_survives() {
    let pool = Pool::new(4);
    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut v = vec![0u8; 256];
        pool.install(|| {
            v.par_iter_mut().enumerate().for_each(|(i, _)| {
                if i == 137 {
                    panic!("boom at {i}");
                }
            });
        });
    }));
    let payload = got.expect_err("worker panic must resume on the caller");
    assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom at 137"));
    let sum: usize = pool.install(|| (0..1000usize).into_par_iter().sum());
    assert_eq!(sum, 499_500, "the next call on the same pool runs");
    assert_eq!(pool.stats().parallel_calls, 2);
}

#[test]
fn install_nests_and_restores() {
    let (outer, inner) = (Pool::new(3), Pool::new(5));
    let ambient = rayon::current_num_threads();
    let sweep = || (0..640usize).into_par_iter().map(|i| i as f64).sum::<f64>();
    outer.install(|| {
        assert_eq!(rayon::current_num_threads(), 3);
        sweep();
        inner.install(|| {
            assert_eq!(rayon::current_num_threads(), 5);
            sweep();
            sweep();
            assert_eq!(rayon::pool_stats(), inner.stats());
        });
        assert_eq!(rayon::current_num_threads(), 3);
        assert_eq!(rayon::pool_stats(), outer.stats());
    });
    assert_eq!(rayon::current_num_threads(), ambient);
    assert_eq!((outer.stats().parallel_calls, inner.stats().parallel_calls), (1, 2));
    assert_eq!(inner.stats().blocks_executed, 128);
    // An unwinding closure restores the previous pool as well.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| outer.install(|| panic!("out"))));
    assert!(unwound.is_err());
    assert_eq!(rayon::current_num_threads(), ambient);
}

#[test]
fn default_pool_follows_the_override() {
    // The only test that touches the process-wide override; the
    // others can at most run one call at another default width.
    rayon::set_active_threads(3);
    assert_eq!(rayon::current_num_threads(), 3);
    let before = rayon::pool_stats();
    let n = (0..1000usize).into_par_iter().count();
    assert_eq!(n, 1000);
    assert!(rayon::pool_stats().parallel_calls > before.parallel_calls);
    Pool::new(2).install(|| assert_eq!(rayon::current_num_threads(), 2));
    rayon::set_active_threads(0);
    assert!(rayon::current_num_threads() >= 1);
}

#[test]
fn oversubscribed_pool_beats_spawn_per_call() {
    // Width 8 on a machine with fewer cores: workers park at once and
    // the caller waits only for those that entered the call. The two sides
    // run in alternating rounds, each side first in every other round, and
    // their medians are compared, so a burst of machine load lands on both.
    const WIDTH: usize = 8;
    const ROUNDS: usize = 9;
    const POOLED_CALLS: usize = 550;
    const SPAWNED_CALLS: usize = 22;
    let mut v = vec![0usize; 512];
    let pool = Pool::new(WIDTH);
    let pooled = |v: &mut [usize]| {
        pool.install(|| {
            for _ in 0..POOLED_CALLS {
                v.par_iter_mut().for_each(|x| *x += 1);
            }
        })
    };
    // What the pool replaced: scoped threads spawned on every call, at most
    // `WIDTH - 1` at a time.
    let spawned = |v: &mut [usize]| {
        for _ in 0..SPAWNED_CALLS {
            std::thread::scope(|s| {
                let mut parts = v.chunks_mut(512 / WIDTH);
                let mine = parts.next();
                for part in parts {
                    s.spawn(move || part.iter_mut().for_each(|x| *x += 1));
                }
                mine.into_iter().flatten().for_each(|x| *x += 1);
            });
        }
    };
    let mut per_call = [Vec::new(), Vec::new()];
    for round in 0..ROUNDS {
        for side in [round % 2, 1 - round % 2] {
            let t0 = std::time::Instant::now();
            let calls = if side == 0 {
                pooled(&mut v);
                POOLED_CALLS
            } else {
                spawned(&mut v);
                SPAWNED_CALLS
            };
            per_call[side].push(t0.elapsed().as_secs_f64() / calls as f64);
        }
    }
    assert!(v.iter().all(|&x| x == ROUNDS * (POOLED_CALLS + SPAWNED_CALLS)));
    assert_eq!(pool.stats().parallel_calls, (ROUNDS * POOLED_CALLS) as u64);
    let [pooled, spawned] = per_call.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[ROUNDS / 2]
    });
    assert!(
        pooled <= spawned,
        "median {:.1} us per pooled call, {:.1} us per spawn-per-call call",
        pooled * 1e6,
        spawned * 1e6
    );
}

#[test]
fn two_threads_share_one_pool() {
    // One call at a time: whichever thread finds the pool taken walks
    // the grid itself, and gets the same bits.
    let v = spread(4096);
    let sum = || v.par_iter().map(|x| x * 1.000000119).sum::<f64>().to_bits();
    let serial = Pool::new(1).install(sum);
    let pool = Pool::new(3);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                pool.install(|| {
                    start.wait();
                    for _ in 0..2_000 {
                        assert_eq!(sum(), serial);
                    }
                })
            });
        }
    });
    let calls = pool.stats().parallel_calls;
    assert!((1..=4_000).contains(&calls), "{calls} pooled calls of 4000");
}

#[test]
fn producer_into_iter_yields_what_for_each_sees() {
    // What `blast_la::stream::walk` rests on: walking a producer on the
    // caller (`Producer::into_iter`) hands out the items the pool's
    // `for_each` does, in index order — for the zip of a mutable and a
    // shared chunking and for an `enumerate` over it. Each item stamps its
    // `y` chunk with what it was handed: index, `x` chunk, chunk length.
    use rayon::Producer;
    let x: Vec<f64> = (0..1000u32).map(f64::from).collect();
    let stamp = |b: usize, yv: &mut [f64], xv: &[f64]| {
        let tag = 1e4 * b as f64 + 1e6 * xv.len() as f64;
        yv.iter_mut().zip(xv).for_each(|(y, &xi)| *y = xi + tag);
    };
    let mut ys = [(); 4].map(|()| vec![0.0f64; 1000]);
    let [zip_pool, zip_walk, enum_pool, enum_walk] = &mut ys;
    let pool = Pool::new(2);
    pool.install(|| {
        let zip = zip_pool.par_chunks_mut(16).zip(x.par_chunks(16));
        zip.for_each(|(yv, xv)| stamp(0, yv, xv));
        let enumerated = enum_pool.par_chunks_mut(16).zip(x.par_chunks(16)).enumerate();
        enumerated.for_each(|(b, (yv, xv))| stamp(b, yv, xv));
    });
    assert_eq!(pool.stats().parallel_calls, 2, "both sweeps ran on the pool");
    let zip = zip_walk.par_chunks_mut(16).zip(x.par_chunks(16));
    Producer::into_iter(zip).for_each(|(yv, xv)| stamp(0, yv, xv));
    let enumerated = enum_walk.par_chunks_mut(16).zip(x.par_chunks(16)).enumerate();
    let mut order = Vec::new();
    Producer::into_iter(enumerated).for_each(|(b, (yv, xv))| {
        order.push((b, xv[0]));
        stamp(b, yv, xv);
    });
    assert_eq!(order, (0..63).map(|b| (b, 16.0 * b as f64)).collect::<Vec<_>>());
    assert_eq!(zip_pool, zip_walk);
    assert_eq!(enum_pool, enum_walk);
    assert_eq!(enum_walk[999], 999.0 + 1e4 * 62.0 + 1e6 * 8.0, "the ragged last block");
}

#[test]
fn ragged_and_empty_inputs() {
    // chunks (non-exact) keeps the ragged tail; exact drops it.
    let v = [1.0f64; 10];
    assert_eq!(v.par_chunks(4).count(), 3);
    assert_eq!(v.par_chunks_exact(4).count(), 2);
    let empty: Vec<f64> = Vec::new();
    assert_eq!(empty.par_iter().count(), 0);
    assert_eq!(empty.par_iter().map(|x| *x).sum::<f64>(), 0.0);
}
