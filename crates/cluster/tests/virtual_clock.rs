//! The rank runtime's clock is virtual: how long a rank body takes in real
//! time never decides a receive. This test sleeps, so it lives outside
//! `src/`, where no file reads the wall clock or sleeps.

use std::time::Duration;

use cluster_sim::run_ranks;

/// A sender that sleeps 200 ms of wall time before sending is not timed out
/// by a receiver whose virtual timeout is 1 ms: while the sender runs, it
/// may still send something that arrives in time, so the receiver waits.
#[test]
fn a_slow_sender_is_never_timed_out() {
    let got = run_ranks(2, |mut c| {
        if c.rank() == 0 {
            std::thread::sleep(Duration::from_millis(200));
            c.send(1, 3, vec![42.0]);
            Ok(vec![])
        } else {
            c.recv_timeout(0, 3, 1e-3)
        }
    });
    assert_eq!(got[1], Ok(vec![42.0]));
}
