//! The executor's own guarantees: worker-count-independent
//! counters, shard scaling far past the host's core count, bounded
//! polling (no busy-wait), stall/retry under fully-pinned guest pools,
//! and the dynamic submission path.

use em2_core::decision::{AlwaysMigrate, Decision, DecisionCtx, DecisionScheme, HistoryPredictor};
use em2_model::{Addr, CoreId};
use em2_placement::{FirstTouch, Placement, Striped};
use em2_rt::{run_workload, Op, RtConfig, RtReport, Runtime, Task, TaskSpec};
use em2_trace::gen::micro;
use proptest::prelude::*;
use std::sync::Arc;

/// The counter tuple E11 asserts on, extracted for comparisons.
fn counters(r: &RtReport) -> (u64, u64, u64, u64, em2_model::Histogram) {
    (
        r.flow.migrations,
        r.flow.remote_reads,
        r.flow.remote_writes,
        r.flow.local_accesses,
        r.run_lengths.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The E11 satellite property: any worker count W ∈ {1, 2, 4, 8}
    /// yields byte-identical counters in the eviction-free
    /// configuration. Determinism comes
    /// from per-thread program order, which multiplexing only
    /// interleaves across threads.
    #[test]
    fn any_worker_count_yields_identical_counters(seed in 0u64..1_000) {
        let w = Arc::new(micro::uniform(8, 8, 300, 128, 0.3, seed));
        let p = Arc::new(FirstTouch::build(&w, 8, 64));
        let run = |workers: usize| {
            let mut cfg = RtConfig::eviction_free(8, 8);
            cfg.workers = workers;
            run_workload(
                cfg,
                &w,
                Arc::clone(&p) as Arc<dyn Placement>,
                || Box::new(HistoryPredictor::new(1.0, 0.5)),
            )
        };
        let reference = run(1);
        prop_assert!(reference.total_ops() > 0);
        for workers in [2usize, 4, 8] {
            let r = run(workers);
            prop_assert_eq!(counters(&r), counters(&reference), "W={} diverged", workers);
        }
    }
}

/// S = 256 shards must run to completion on a single worker — the CI
/// shard-scaling smoke (1-CPU runner), guarding against any
/// thread-explosion regression.
#[test]
fn scaling_smoke_256_shards_single_worker() {
    let w = Arc::new(micro::uniform(32, 256, 200, 1024, 0.3, 17));
    let total = w.total_accesses() as u64;
    let p: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, 256, 64));
    let mut cfg = RtConfig::eviction_free(256, 32);
    cfg.workers = 1;
    let r = run_workload(cfg, &w, p, || Box::new(AlwaysMigrate));
    assert_eq!(r.shards, 256);
    assert_eq!(r.sched.workers, 1);
    assert_eq!(r.total_ops(), total, "every access served exactly once");
}

/// The paper's largest geometry: S = 1024 shards multiplex onto
/// whatever the host offers (1024 OS threads never exist).
#[test]
fn a_thousand_shards_multiplex_onto_the_host() {
    let w = Arc::new(micro::uniform(64, 1024, 100, 2048, 0.3, 23));
    let total = w.total_accesses() as u64;
    let p: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, 1024, 64));
    let r = run_workload(RtConfig::eviction_free(1024, 64), &w, p, || {
        Box::new(AlwaysMigrate)
    });
    assert_eq!(r.shards, 1024);
    assert!(
        r.sched.workers <= std::thread::available_parallelism().map_or(1, |n| n.get()),
        "workers are host-sized, not shard-sized: {:?}",
        r.sched
    );
    assert_eq!(r.total_ops(), total);
}

/// The busy-wait regression pin, idle half: a runtime with no work
/// performs **zero** shard polls and each worker parks at most twice
/// (once at launch, and at most once more on the shutdown wakeup) —
/// the park/unpark seam replaced the old `try_recv` spin loop.
#[test]
fn idle_runtime_performs_no_polls() {
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(4, 64));
    let mut cfg = RtConfig::with_shards(4);
    cfg.workers = 2;
    let rt = Runtime::start(
        cfg,
        "idle",
        placement,
        || Box::new(AlwaysMigrate),
        Vec::new(),
    );
    std::thread::sleep(std::time::Duration::from_millis(50));
    let r = rt.finish();
    assert_eq!(
        r.sched.polls, 0,
        "an idle runtime must not poll: {:?}",
        r.sched
    );
    assert!(
        r.sched.parks <= 2 * r.sched.workers as u64,
        "idle workers park once and sleep: {:?}",
        r.sched
    );
    assert_eq!(r.total_ops(), 0);
}

/// The busy-wait regression pin, loaded half: polls are provoked by
/// messages and requeues only, so their count is bounded by the work
/// actually done — a spin loop would show up as polls growing with
/// wall-clock instead.
#[test]
fn busy_run_poll_count_is_bounded_by_work() {
    let w = Arc::new(micro::uniform(8, 8, 500, 128, 0.3, 31));
    let total = w.total_accesses() as u64;
    let p: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, 8, 64));
    let mut cfg = RtConfig::eviction_free(8, 8);
    cfg.workers = 2;
    let r = run_workload(cfg, &w, p, || Box::new(HistoryPredictor::new(1.0, 0.5)));
    assert_eq!(r.total_ops(), total);
    // Every op generates at most ~3 messages (request + response, or
    // one migration envelope) and every poll is provoked by a message
    // or a requeue, so polls are O(ops). A spin loop would scale with
    // wall-clock instead and blow far past this.
    assert!(
        r.sched.polls <= 4 * total + 1_000,
        "poll count must track work, not time: {} polls for {} ops",
        r.sched.polls,
        total
    );
}

/// Migrate to shard 0, remote-access everything else: a scheme built
/// to pin guests at shard 0 mid-remote-access.
struct MigrateToZero;
impl DecisionScheme for MigrateToZero {
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        if ctx.home.index() == 0 {
            Decision::Migrate
        } else {
            Decision::Remote
        }
    }
    fn name(&self) -> String {
        "migrate-to-zero".into()
    }
}

/// A probe that synchronizes at a barrier (so every probe is seeded
/// before any proceeds), migrates to shard 0 (its first address is
/// homed there), then does a remote access from shard 0 — pinning its
/// guest slot — and retires.
struct PinProbe {
    hot: Addr,
    far: Addr,
    step: u8,
}
impl Task for PinProbe {
    fn resume(&mut self, _reply: Option<u64>) -> Op {
        self.step += 1;
        match self.step {
            1 => Op::Barrier(0),
            2 => Op::Read(self.hot),
            3 => Op::Read(self.far),
            _ => Op::Done,
        }
    }
    fn context_bytes(&self) -> Vec<u8> {
        vec![self.step]
    }
}

/// Stall/retry with every guest slot pinned while shards share one
/// worker: later guest arrivals must stall (not deadlock, not evict a
/// pinned context) and admit in arrival order once the resident
/// retires.
#[test]
fn pinned_guest_pool_stalls_and_recovers_on_one_worker() {
    let shards = 4;
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(shards, 64));
    // Striped with 64-byte lines: line 0 → shard 0, line 3 → shard 3.
    let hot = Addr(0);
    let far = Addr(3 * 64);
    let mut cfg = RtConfig::with_shards(shards);
    cfg.workers = 1;
    cfg.guest_contexts = 1;
    cfg.quantum = 1;
    let tasks: Vec<TaskSpec> = (1..shards)
        .map(|i| {
            TaskSpec::new(
                Box::new(PinProbe { hot, far, step: 0 }) as Box<dyn Task>,
                CoreId::from(i),
            )
        })
        .collect();
    let r = em2_rt::run_tasks(
        cfg,
        "pin-probe",
        tasks,
        placement,
        || Box::new(MigrateToZero),
        vec![3],
    );
    // Each probe migrates once (the shard-0 arrival access) and does
    // one remote read while pinned at shard 0. The barrier guarantees
    // all three converge on shard 0's single guest slot together, so
    // at least one arrival lands while the resident is pinned.
    assert_eq!(r.flow.migrations, 3);
    assert_eq!(r.flow.remote_reads, 3);
    assert_eq!(r.total_ops(), 6, "all accesses served despite stalls");
    assert!(
        r.flow.stalled_arrivals >= 1,
        "with one pinned guest slot a later arrival must stall: {r}"
    );
}

/// A write-then-read probe used by the dynamic-submission test.
struct WriteRead {
    addr: Addr,
    value: u64,
    step: u8,
}
impl Task for WriteRead {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        self.step += 1;
        match self.step {
            1 => Op::Write(self.addr, self.value),
            2 => Op::Read(self.addr),
            _ => {
                assert_eq!(reply, Some(self.value), "read-your-writes violated");
                Op::Done
            }
        }
    }
    fn context_bytes(&self) -> Vec<u8> {
        let mut b = self.addr.0.to_le_bytes().to_vec();
        b.extend_from_slice(&self.value.to_le_bytes());
        b.push(self.step);
        b
    }
}

/// Tasks submitted while the runtime is already running (the serving
/// path): two waves, all verified, per-task latency samples recorded.
#[test]
fn dynamic_submission_serves_two_waves() {
    let shards = 4;
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(shards, 64));
    let mut rt = Runtime::start(
        RtConfig::with_shards(shards),
        "dynamic",
        placement,
        || Box::new(AlwaysMigrate),
        Vec::new(),
    );
    let submit_wave = |rt: &mut Runtime, wave: u64| {
        for i in 0..8u64 {
            rt.submit(TaskSpec::new(
                Box::new(WriteRead {
                    addr: Addr((wave * 8 + i) * 64),
                    value: 0xbeef + wave * 100 + i,
                    step: 0,
                }) as Box<dyn Task>,
                CoreId::from((i % shards as u64) as usize),
            ));
        }
    };
    submit_wave(&mut rt, 0);
    std::thread::sleep(std::time::Duration::from_millis(10));
    submit_wave(&mut rt, 1);
    let r = rt.finish();
    assert_eq!(r.total_ops(), 32, "16 tasks x (write + read)");
    assert_eq!(r.task_latency_ns.len(), 16, "one latency sample per task");
    assert!(r.latency_quantile(0.5).is_some());
    assert!(
        r.latency_quantile(0.5) <= r.latency_quantile(0.99),
        "sorted quantiles are monotone"
    );
    assert!(r.heap_words >= 16);
}
