//! Regression pin for a lost wakeup in the shard mailbox handshake
//! (DESIGN.md §8): a producer's shard-state load must not be ordered
//! before its mailbox push, or it can read `QUEUED` while the poll it
//! relies on has already drained the mailbox and gone idle, stranding
//! the message. The replay then never quiesces — with 2 workers the
//! OCEAN replay used to stop with most envelopes parked at a barrier
//! whose last arrival was the stranded message.
//!
//! The replay repeats many times because the race needs two workers
//! to interleave at exactly the push; each replay is bounded, so a
//! wedge fails the test on a quiesce timeout instead of hanging it.

use em2_core::decision::AlwaysMigrate;
use em2_placement::{FirstTouch, Placement};
use em2_rt::{run_workload, RtConfig};
use em2_trace::gen::ocean::OceanConfig;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Replays per test run. Without the ordering fix about one replay in
/// 500 wedged on a 2-vCPU host, and 4 of 10 release runs of this test
/// failed (3 of 6 runs of 150 replays, 1 of 4 runs of 300).
/// Unoptimized builds replay ~20× slower and run a short smoke.
const REPLAYS: usize = if cfg!(debug_assertions) { 20 } else { 300 };

/// A healthy replay drains in well under a second.
const QUIESCE_DEADLINE: Duration = Duration::from_secs(20);

/// The quick OCEAN shape (16 threads on 16 shards, 128² grid, 3
/// levels) at 16 solver iterations rather than 2: longer replays meet
/// the race more often per second of test.
#[test]
fn two_worker_ocean_replay_always_quiesces() {
    let w = Arc::new(
        OceanConfig {
            interior: 128,
            threads: 16,
            cores: 16,
            iterations: 16,
            levels: 3,
            ..OceanConfig::default()
        }
        .generate(),
    );
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, 16, 64));
    let mut cfg = RtConfig::eviction_free(16, 16);
    cfg.workers = 2;
    let mut migrations = None;
    for replay in 0..REPLAYS {
        let (tx, rx) = mpsc::channel();
        let (cfg, w, placement) = (cfg.clone(), Arc::clone(&w), Arc::clone(&placement));
        // A wedged replay leaves its thread behind; the failing test
        // ends the process.
        let replayer = std::thread::spawn(move || {
            let report = run_workload(cfg, &w, placement, || Box::new(AlwaysMigrate));
            let _ = tx.send(report.flow.migrations);
        });
        let got = rx.recv_timeout(QUIESCE_DEADLINE).unwrap_or_else(|e| {
            panic!("replay {replay} did not quiesce within {QUIESCE_DEADLINE:?}: {e}")
        });
        replayer.join().expect("replay thread");
        assert_eq!(
            *migrations.get_or_insert(got),
            got,
            "replay {replay} diverged"
        );
    }
}
