//! Runtime assembly: configuration, launch, submission, and the
//! report.

use crate::exec::{worker_loop, Sched};
use crate::shard::{Envelope, Msg, ShardCore, Shared};
use crate::task::{Task, TaskRegistry, TraceTask};
use crate::wire::{WireError, WireMsg};
use em2_core::decision::DecisionScheme;
use em2_core::stats::FlowCounts;
use em2_core::RUN_BINS;
use em2_engine::{barrier_quotas, AtomicBarriers};
use em2_model::{CoreId, CostModel, Histogram, ThreadId};
use em2_placement::Placement;
use em2_trace::Workload;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Cross-process egress, implemented by the transport layer
/// (`em2-net`). The runtime calls these from shard workers; every
/// implementation must be cheap and non-blocking where possible (a
/// blocked socket write back-pressures the sending shard, which is the
/// intended flow control).
pub trait NodeLink: Send + Sync {
    /// Ship an inter-shard message to `to_shard` (a global id owned by
    /// another node). `retries` is how many times ownership movement
    /// has already re-routed the message — 0 for a fresh send; the
    /// carried frame count when the runtime re-forwards a delivery
    /// that raced an outbound handoff, so the transport's per-frame
    /// bounce budget survives the detour through this node.
    fn forward(&self, to_shard: usize, retries: u32, msg: WireMsg);

    /// Ship a batch of inter-shard messages, each addressed to its own
    /// global shard id. Semantically identical to calling
    /// [`NodeLink::forward`] once per element in order with a fresh
    /// re-route budget; implementations may exploit the batch to
    /// enqueue contiguously and take one wakeup per peer (the runtime
    /// hands a whole mailbox batch's remote-access replies over in one
    /// call).
    fn forward_many(&self, msgs: Vec<(usize, WireMsg)>) {
        for (to, msg) in msgs {
            self.forward(to, 0, msg);
        }
    }

    /// A task on this node arrived at global barrier `k` and parked;
    /// report the arrival to the cluster's barrier coordinator.
    fn barrier_arrive(&self, k: usize);

    /// A task retired on this node (cluster-global completion
    /// accounting).
    fn task_retired(&self);

    /// This node's runtime handle closed admission after submitting
    /// `submitted` tasks. When every node has closed and every
    /// submitted task has retired, the coordinator declares quiesce.
    fn node_closed(&self, submitted: u64);
}

/// This runtime's place in a multi-process cluster: the epoch-versioned
/// ownership directory it routes by, its node id in that directory, how
/// barriers complete, and the link that carries everything leaving the
/// process.
pub struct NodeRole {
    /// Epoch-versioned per-shard ownership map. The transport layer
    /// holds the **same** `Arc` (it flips owners during live handoffs
    /// and installs coordinator epoch broadcasts), so routing decisions
    /// on the send and receive paths always agree.
    pub directory: Arc<crate::directory::ShardDirectory>,
    /// This runtime's node id in the directory. A node may start
    /// owning zero shards (a joining member) and be assigned shards by
    /// live handoff later.
    pub node_id: u32,
    /// `true` in multi-node clusters: barrier arrivals forward to the
    /// coordinator and releases fan back over the wire. `false` for a
    /// single-node cluster, which completes barriers locally —
    /// bit-exact with the non-clustered runtime.
    pub clustered_barriers: bool,
    /// The transport seam.
    pub link: Arc<dyn NodeLink>,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RtConfig {
    /// Number of shards (the machine's "cores"). Shards are state
    /// machines, not threads: any count instantiable by memory runs on
    /// any host.
    pub shards: usize,
    /// Executor worker threads; `0` = auto (the `EM2_RT_WORKERS`
    /// environment variable if set, else the host's available
    /// parallelism), capped at the shard count.
    pub workers: usize,
    /// Guest contexts per shard (besides reserved natives). With fewer
    /// guests than visiting tasks, arrivals evict — set this to the
    /// task count for the eviction-free configuration whose counters
    /// are bit-comparable to the simulator's.
    pub guest_contexts: usize,
    /// Cost model consulted by decision schemes (distances, context
    /// size); the runtime does not simulate its latencies.
    pub cost: CostModel,
    /// Consecutive local accesses a task may run before co-resident
    /// contexts get the shard (scheduling fairness only; decisions and
    /// counters do not depend on it).
    pub quantum: usize,
    /// Run-length histogram bins ([`em2_core::RUN_BINS`] for
    /// simulator-comparable histograms).
    pub run_bins: u64,
    /// Observability plane (`em2-obs`). `None` resolves from the
    /// environment (`EM2_OBS` and friends) at start; tests and
    /// benchmarks that must not depend on ambient env vars pass
    /// [`em2_obs::ObsConfig::on`] / [`em2_obs::ObsConfig::off`]
    /// explicitly. Strictly timing-plane: no obs state ever feeds the
    /// deterministic counters, and every report and agreement digest
    /// is byte-identical whether this is on or off.
    pub obs: Option<em2_obs::ObsConfig>,
}

impl RtConfig {
    /// A runtime with `shards` shards and defaults mirroring
    /// [`em2_core::machine::MachineConfig`] (2 guest contexts).
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0);
        RtConfig {
            shards,
            workers: 0,
            guest_contexts: 2,
            cost: CostModel::builder().cores(shards).build(),
            quantum: 256,
            run_bins: RUN_BINS,
            obs: None,
        }
    }

    /// The cross-validation configuration: guest pools sized so no
    /// eviction can occur with `tasks` tasks, making every counter a
    /// pure function of per-thread program order (DESIGN.md §7) —
    /// bit-comparable to a simulator run with the same
    /// `guest_contexts`, at **any** worker count.
    pub fn eviction_free(shards: usize, tasks: usize) -> Self {
        RtConfig {
            guest_contexts: tasks.max(1),
            ..RtConfig::with_shards(shards)
        }
    }

    fn resolved_workers(&self) -> usize {
        let requested = if self.workers > 0 {
            self.workers
        } else {
            em2_model::env::parse::<usize>("EM2_RT_WORKERS")
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        };
        requested.min(self.shards).max(1)
    }
}

/// One task to launch: the continuation plus its native shard.
pub struct TaskSpec {
    /// The continuation; [`Runtime::submit`] assigns it the next
    /// [`ThreadId`].
    pub task: Box<dyn Task>,
    /// The shard whose reserved native context belongs to this task.
    pub native: CoreId,
    /// Latency epoch: `None` stamps the submission instant; open-loop
    /// injectors pass the request's *intended* arrival time so queueing
    /// delay from a late injector still counts (no coordinated
    /// omission).
    pub arrival: Option<Instant>,
}

impl TaskSpec {
    /// A task native to `native`, stamped at submission time.
    pub fn new(task: Box<dyn Task>, native: CoreId) -> Self {
        TaskSpec {
            task,
            native,
            arrival: None,
        }
    }
}

/// Scheduling telemetry from one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Executor worker threads that drove the shards.
    pub workers: usize,
    /// Shard polls across all workers. Every poll is provoked by a
    /// message or a requeue — an idle runtime performs none (the
    /// no-busy-wait regression test pins this).
    pub polls: u64,
    /// Shards taken from another worker's run queue.
    pub steals: u64,
    /// Times a worker parked on the sleep condvar.
    pub parks: u64,
}

/// Everything a runtime run produces. Field-compatible with the
/// simulator's [`em2_core::stats::SimReport`] counters where the
/// semantics carry over; wall-clock throughput replaces simulated
/// cycles (the runtime has no cycle model — see DESIGN.md §7).
#[derive(Clone, Debug)]
pub struct RtReport {
    /// Workload name.
    pub workload: String,
    /// Decision-scheme name.
    pub scheme: String,
    /// Shard count.
    pub shards: usize,
    /// The Figure-1/3 flow counters, measured by execution. One unit
    /// caveat: `stalled_arrivals` counts each arrival that had to wait
    /// *once*, while the simulator counts every failed retry poll
    /// (scaling with its `stall_retry` interval) — don't compare that
    /// field across machines.
    pub flow: FlowCounts,
    /// Run-length histogram (Figure-2 semantics, same binning as the
    /// simulator; per-shard slices merged bin-wise at quiesce).
    pub run_lengths: Histogram,
    /// Serialized context bytes shipped by migrations and evictions.
    pub context_bytes_sent: u64,
    /// Distinct words materialized across all shard heaps.
    pub heap_words: u64,
    /// End-to-end wall-clock of the run (launch to last retirement).
    pub wall: Duration,
    /// Scheduling telemetry.
    pub sched: SchedStats,
    /// Per-task latency samples in nanoseconds (submission — or the
    /// injector-declared arrival instant — to retirement), sorted
    /// ascending. One sample per task, so trace replays with a handful
    /// of long tasks carry a handful of samples, while a serving
    /// workload with one task per request yields a latency
    /// distribution ([`RtReport::latency_quantile`]).
    pub task_latency_ns: Vec<u64>,
    /// Final timing-plane snapshot (`None` when obs is off). Strictly
    /// observational: nothing in the deterministic counters above is
    /// derived from it, and reports render identically without it.
    pub obs: Option<em2_obs::Snapshot>,
}

impl RtReport {
    /// Memory operations executed (local + migrated + remote).
    pub fn total_ops(&self) -> u64 {
        self.flow.total_accesses()
    }

    /// Memory operations per wall-clock second — the headline
    /// throughput number recorded in `BENCH.json`.
    pub fn ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / s
        }
    }

    /// Task-latency quantile `q` in `[0, 1]` (`None` when no task
    /// retired). `q = 0.5` is the median, `0.99` the p99.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        if self.task_latency_ns.is_empty() {
            return None;
        }
        let n = self.task_latency_ns.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(Duration::from_nanos(self.task_latency_ns[rank - 1]))
    }
}

impl fmt::Display for RtReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[rt {} / {}] {} ops on {} shards / {} workers in {:.3} ms ({:.0} ops/s)",
            self.workload,
            self.scheme,
            self.total_ops(),
            self.shards,
            self.sched.workers,
            self.wall.as_secs_f64() * 1e3,
            self.ops_per_sec()
        )?;
        write!(
            f,
            "  flow: {} local, {} migrations, {} evictions, {} RA-read, {} RA-write; {} context bytes",
            self.flow.local_accesses,
            self.flow.migrations,
            self.flow.evictions,
            self.flow.remote_reads,
            self.flow.remote_writes,
            self.context_bytes_sent
        )
    }
}

/// Broadcast shutdown if the owning thread dies mid-run (a task
/// assertion, an internal invariant), so sibling workers exit their
/// parks instead of waiting forever — the panic then propagates
/// through the join rather than hanging the run.
struct PanicFanout(Arc<Shared>);
impl Drop for PanicFanout {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.initiate_shutdown();
        }
    }
}

/// A live runtime: workers running, accepting task submissions.
///
/// The serving-oriented half of the API: [`Runtime::start`] brings the
/// shard fleet up, [`Runtime::submit`] injects tasks while it runs (an
/// open-loop load generator calls this on its own clock), and
/// [`Runtime::finish`] closes admission, waits for every submitted
/// task to retire, and merges the per-shard counters into the report.
/// [`run_tasks`] wraps the three for batch runs. Dropping a `Runtime`
/// without calling `finish` drains it the same way (minus the report).
pub struct Runtime {
    shared: Option<Arc<Shared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    name: String,
    scheme_name: String,
    make_scheme: Box<dyn FnMut() -> Box<dyn DecisionScheme> + Send>,
    next_thread: u32,
    shards: usize,
    run_bins: u64,
    workers: usize,
    /// Tasks submitted through this handle (reported to the cluster on
    /// close in node mode).
    submitted: u64,
    /// Whether this runtime participates in a cluster (completion is
    /// then link-driven, not live-count-driven).
    node_mode: bool,
    t0: Instant,
    /// The timing-plane registry (`None` when obs is off); exposed
    /// through [`Runtime::obs`] so the transport layer can register
    /// peers and arm the flight recorder.
    obs: Option<Arc<em2_obs::NodeObs>>,
    /// Periodic snapshot exporter, stopped (with a final line) at
    /// shutdown.
    exporter: Option<em2_obs::Exporter>,
}

impl Runtime {
    /// Launch the shard fleet.
    ///
    /// `scheme_factory` is called once per submitted task: each task's
    /// thread gets its own decision-scheme instance, carried in its
    /// envelope (per-thread state — bit-equal to the simulator's
    /// single shared instance, since every shipped scheme keys its
    /// tables per thread; see DESIGN.md §8).
    ///
    /// `barrier_quotas[k]` is the number of arrivals that open global
    /// barrier `k` (use [`em2_engine::barrier_quotas`]; empty when
    /// tasks never emit [`crate::Op::Barrier`]).
    pub fn start(
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
        barrier_quotas: Vec<usize>,
    ) -> Self {
        Runtime::start_inner(
            cfg,
            name,
            placement,
            Box::new(scheme_factory),
            barrier_quotas,
            None,
        )
    }

    /// Launch this process's shards of a multi-process cluster.
    ///
    /// `cfg.shards` is the **cluster-wide** shard count; this runtime
    /// instantiates only `role`'s contiguous range and routes every
    /// message addressed outside it through `role.link`. Inbound
    /// messages are injected by the transport layer through
    /// [`Runtime::remote_inbox`]. Completion is cluster-global:
    /// [`Runtime::finish`] reports closure over the link and waits for
    /// the coordinator's quiesce decision instead of counting local
    /// retirements. `em2-net` wraps all of this; use it rather than
    /// calling this directly.
    pub fn start_node(
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
        barrier_quotas: Vec<usize>,
        role: NodeRole,
    ) -> Self {
        Runtime::start_inner(
            cfg,
            name,
            placement,
            Box::new(scheme_factory),
            barrier_quotas,
            Some(role),
        )
    }

    fn start_inner(
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        mut make_scheme: Box<dyn FnMut() -> Box<dyn DecisionScheme> + Send>,
        barrier_quotas: Vec<usize>,
        role: Option<NodeRole>,
    ) -> Self {
        let shards = cfg.shards;
        assert!(
            placement.cores() <= shards,
            "placement targets more shards than the runtime has"
        );
        assert!(
            cfg.cost.cores() >= shards,
            "cost-model mesh smaller than the shard count"
        );
        let (directory, node_id, clustered_barriers, link) = match &role {
            None => (
                Arc::new(crate::directory::ShardDirectory::single_process(shards)),
                0u32,
                false,
                None,
            ),
            Some(r) => {
                assert_eq!(
                    r.directory.shards(),
                    shards,
                    "ownership directory does not cover the cluster's shards"
                );
                (
                    Arc::clone(&r.directory),
                    r.node_id,
                    r.clustered_barriers,
                    Some(Arc::clone(&r.link)),
                )
            }
        };
        let node_mode = role.is_some();
        let scheme_name = make_scheme().name();

        // The worker pool is sized for the cluster's shard space, not
        // the launch-time owned count (zero is legal in node mode: a
        // joining member acquires shards by live handoff). Ownership
        // is elastic, so a member that joins with one shard may end up
        // polling many after a drain rebalances onto it.
        let workers = cfg.resolved_workers();
        // The timing plane: `None` unless configured (explicitly or via
        // EM2_OBS). Everything below records into it with relaxed
        // atomics; nothing in it feeds the deterministic counters.
        let obs_cfg = cfg.obs.clone().unwrap_or_else(em2_obs::ObsConfig::from_env);
        let obs = obs_cfg
            .enabled
            .then(|| em2_obs::NodeObs::new(obs_cfg, 0, shards, workers));
        let shared = Arc::new(Shared {
            mailboxes: (0..shards).map(|_| crate::shard::Mailbox::new()).collect(),
            cores: (0..shards)
                .map(|g| {
                    Mutex::new(ShardCore::new(
                        g,
                        cfg.guest_contexts,
                        cfg.run_bins,
                        obs.as_ref().map(|o| Arc::clone(o.shard(g))),
                    ))
                })
                .collect(),
            directory,
            node_id,
            total_shards: shards,
            node: link,
            clustered_barriers,
            placement,
            barriers: AtomicBarriers::new(barrier_quotas),
            // One "open" token held by this handle; submissions add to
            // it, retirements subtract, and whoever reaches zero (the
            // last retirement after `finish` drops the token, or
            // `finish` itself on an empty run) initiates shutdown.
            // Node mode ignores it: the quiesce decision is
            // cluster-global and arrives through the link.
            live: AtomicUsize::new(1),
            shutdown: AtomicBool::new(false),
            cost: cfg.cost,
            quantum: cfg.quantum,
            sched: Sched::new(workers),
            obs: obs.clone(),
        });
        let exporter = obs
            .as_ref()
            .and_then(em2_obs::Exporter::start_if_configured);

        let t0 = Instant::now();
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("em2-rt-worker-{w}"))
                    .spawn(move || {
                        let _fanout = PanicFanout(Arc::clone(&shared));
                        worker_loop(&shared, w);
                    })
                    .expect("spawn runtime worker")
            })
            .collect();

        Runtime {
            shared: Some(shared),
            handles,
            name: name.into(),
            scheme_name,
            make_scheme,
            next_thread: 0,
            shards,
            run_bins: cfg.run_bins,
            workers,
            submitted: 0,
            node_mode,
            t0,
            obs,
            exporter,
        }
    }

    /// The timing-plane registry, when observability is on. The
    /// transport layer uses this to register peer handles and wire the
    /// flight recorder to cluster failures; callers may also read
    /// [`em2_obs::NodeObs::snapshot`] live.
    pub fn obs(&self) -> Option<Arc<em2_obs::NodeObs>> {
        self.obs.clone()
    }

    /// The inbound half of the transport seam: a handle the socket
    /// reader threads use to inject decoded messages into the
    /// executor's mailbox/waker machinery, mirror barrier releases,
    /// and apply the cluster's quiesce decision. `registry` rebuilds
    /// migrated-in tasks; `scheme_factory` must match the one the
    /// cluster runs (the factory builds the instance, the wire state
    /// restores its learning).
    ///
    /// Holds only a weak reference to the runtime internals, so an
    /// inbox outliving [`Runtime::finish`] degrades to dropping
    /// messages instead of keeping the runtime alive.
    pub fn remote_inbox(
        &self,
        registry: TaskRegistry,
        scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
    ) -> RemoteInbox {
        RemoteInbox {
            shared: Arc::downgrade(self.shared.as_ref().expect("runtime is live")),
            registry,
            make_scheme: Mutex::new(Box::new(scheme_factory)),
        }
    }

    /// Submit one task; it is seeded at its native shard and starts
    /// immediately. Returns the [`ThreadId`] it runs as (submission
    /// order: 0, 1, 2, …).
    pub fn submit(&mut self, spec: TaskSpec) -> ThreadId {
        let thread = ThreadId(self.next_thread);
        self.submit_as(spec, thread);
        thread
    }

    /// Submit one task under an explicit [`ThreadId`].
    ///
    /// This is the cluster entry point: each node submits the tasks
    /// native to its **launch-time** shard span, under the same global
    /// thread ids a single-process run would assign — ids must be
    /// unique **cluster-wide** (they key guest-context admission and
    /// the learning schemes' tables). The span partition decides *who
    /// submits*; it need not match who currently *owns* — a live
    /// handoff can move a shard away before its node finishes
    /// submitting, in which case the arrival routes over the link to
    /// the current owner like any other in-flight message (the
    /// producer-guarded send makes the race safe). Single-process
    /// callers normally want [`Runtime::submit`]'s automatic
    /// numbering.
    pub fn submit_as(&mut self, spec: TaskSpec, thread: ThreadId) {
        let shared = self.shared.as_ref().expect("runtime is live");
        assert!(
            spec.native.index() < self.shards,
            "native shard out of range"
        );
        self.next_thread = self.next_thread.max(thread.0.saturating_add(1));
        let env = Box::new(Envelope {
            thread,
            native: spec.native,
            task: spec.task,
            scheme: (self.make_scheme)(),
            arrival: spec.arrival.unwrap_or_else(Instant::now),
            pending_op: None,
            pending_reply: None,
            parked_at: None,
            run: None,
            journey: crate::wire::Journey::default(),
        });
        self.submitted += 1;
        if !self.node_mode {
            shared.live.fetch_add(1, Ordering::AcqRel);
        }
        shared.send(spec.native.index(), Msg::Arrive(env));
    }

    /// Close admission, wait for shutdown, and join the workers.
    /// Single-process: drop the open token (the last retirement — or
    /// this call, on an empty run — initiates shutdown). Node mode:
    /// report closure over the link; the cluster coordinator declares
    /// quiesce once every node has closed and every task has retired,
    /// and the transport layer applies it through the inbox. Returns
    /// the first worker panic, if any.
    fn shutdown_and_join(
        &mut self,
    ) -> (Option<Arc<Shared>>, Option<Box<dyn std::any::Any + Send>>) {
        let Some(shared) = self.shared.take() else {
            return (None, None);
        };
        if self.node_mode {
            shared
                .node
                .as_ref()
                .expect("node mode has a link")
                .node_closed(self.submitted);
        } else if shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.initiate_shutdown();
        }
        let mut first_panic = None;
        for h in self.handles.drain(..) {
            if let Err(p) = h.join() {
                first_panic.get_or_insert(p);
            }
        }
        // Stop the exporter after the workers quiesce: its final line
        // then captures the complete run.
        if let Some(exp) = self.exporter.take() {
            exp.finish();
        }
        (Some(shared), first_panic)
    }

    /// Close admission, run to quiescence, and merge the per-shard
    /// counters (in shard order — a deterministic reduction) into the
    /// report.
    pub fn finish(mut self) -> RtReport {
        let (shared, panic) = self.shutdown_and_join();
        let shared = shared.expect("finish consumes the runtime");
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        let wall = self.t0.elapsed();
        if self.obs.is_some() {
            // Fold each core's deferred locals/parks attribution into
            // the matrix before the snapshot reads it (the hot path
            // accrues those two columns in plain single-writer memory;
            // workers have joined, so the locks are uncontended).
            for core in shared.cores.iter() {
                core.lock()
                    .expect("no worker panicked")
                    .flush_attrib_pending();
            }
        }
        let obs_snapshot = self.obs.as_ref().map(|o| o.snapshot());
        // Workers have joined, so only a transport reader mid-inject
        // through a momentarily upgraded inbox Weak can still hold a
        // handle — post-quiesce there is no such message, so the
        // bounded retry only papers over the upgrade/drop window.
        let mut shared = shared;
        let shared = loop {
            match Arc::try_unwrap(shared) {
                Ok(s) => break s,
                Err(still_shared) => {
                    assert!(
                        Arc::weak_count(&still_shared) > 0,
                        "every worker released its Shared handle"
                    );
                    shared = still_shared;
                    std::thread::yield_now();
                }
            }
        };

        let mut flow = FlowCounts::default();
        let mut run_lengths = Histogram::new(self.run_bins);
        let mut context_bytes_sent = 0u64;
        let mut heap_words = 0u64;
        let mut polls = 0u64;
        let mut task_latency_ns: Vec<u64> = Vec::new();
        for core in shared.cores {
            let c = core
                .into_inner()
                .expect("no worker panicked")
                .into_counters();
            flow.merge(&c.flow);
            run_lengths.merge(&c.run_hist);
            context_bytes_sent += c.context_bytes_sent;
            heap_words += c.heap_words;
            polls += c.polls;
            task_latency_ns.extend(c.task_latency_ns);
        }
        task_latency_ns.sort_unstable();
        let steals = shared.sched.steals.load(Ordering::Relaxed);
        let parks = shared.sched.parks.load(Ordering::Relaxed);

        RtReport {
            workload: std::mem::take(&mut self.name),
            scheme: std::mem::take(&mut self.scheme_name),
            shards: self.shards,
            flow,
            run_lengths,
            context_bytes_sent,
            heap_words,
            wall,
            sched: SchedStats {
                workers: self.workers,
                polls,
                steals,
                parks,
            },
            task_latency_ns,
            obs: obs_snapshot,
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // `finish` already took `shared`; otherwise drain like it
        // (waiting for submitted tasks) but swallow the report. Worker
        // panics surface on the next `finish`-less path as aborted
        // joins only if we are already unwinding.
        let _ = self.shutdown_and_join();
    }
}

/// The inbound transport seam (see [`Runtime::remote_inbox`]): socket
/// reader threads call these to hand decoded wire messages to the
/// executor. All methods return whether the runtime was still live —
/// after [`Runtime::finish`] the inbox degrades to a no-op sink, which
/// is correct because a quiesced cluster has no meaningful messages in
/// flight.
pub struct RemoteInbox {
    shared: Weak<Shared>,
    registry: TaskRegistry,
    make_scheme: Mutex<Box<dyn FnMut() -> Box<dyn DecisionScheme> + Send>>,
}

impl RemoteInbox {
    /// Rebuild an envelope from its wire form: the task through the
    /// registry, the decision scheme through the factory + its shipped
    /// learned state.
    fn rebuild_envelope(&self, we: crate::wire::WireEnvelope) -> Result<Box<Envelope>, WireError> {
        let mut scheme = {
            let mut mk = self.make_scheme.lock().expect("scheme factory");
            (*mk)()
        };
        scheme.load_state(&we.scheme_state)?;
        let task = self.registry.build(we.task_kind, &we.task_ctx)?;
        Ok(Box::new(Envelope {
            thread: ThreadId(we.thread),
            native: CoreId(we.native),
            task,
            scheme,
            // Cross-process latency is accounted from arrival on this
            // node (clock domains differ between processes; replay
            // workloads do not use per-task latency).
            arrival: Instant::now(),
            pending_op: we.pending_op.map(crate::wire::WireOp::into_op),
            pending_reply: we.pending_reply,
            parked_at: we.parked_at.map(|k| k as usize),
            run: we.run.map(|(c, len)| (CoreId(c), len)),
            journey: we.journey,
        }))
    }

    /// Inject one inter-shard message addressed to global shard `to`:
    /// rebuild arrivals through the task registry and scheme factory,
    /// then push through the same mailbox/waker path a local sender
    /// uses. Routing is directory-driven: if ownership of `to` flipped
    /// while the message was in flight, `crate::shard::Shared::send`'s
    /// producer-guarded path forwards it over the link instead of
    /// applying it locally — the caller (the transport layer's epoch
    /// fence) is expected to have already bounced clearly-stale
    /// frames. `retries` is the re-route count carried on the frame
    /// (0 for locally originated messages); it rides along on that
    /// re-forward so the transport's bounce budget keeps counting
    /// across the local hop.
    pub fn deliver(&self, to: usize, retries: u32, msg: WireMsg) -> Result<bool, WireError> {
        let Some(shared) = self.shared.upgrade() else {
            return Ok(false);
        };
        let m = match msg {
            WireMsg::Arrive(we) => Msg::Arrive(self.rebuild_envelope(we)?),
            WireMsg::Request {
                addr,
                write,
                reply_shard,
                token,
            } => Msg::Request {
                addr: em2_model::Addr(addr),
                write,
                reply_shard: reply_shard as usize,
                token,
            },
            WireMsg::Response { token, value } => Msg::Response { token, value },
            WireMsg::BarrierRelease { idx } => Msg::BarrierRelease { idx: idx as usize },
        };
        shared.send_routed(to, retries, m);
        Ok(true)
    }

    /// Mirror the coordinator's release of barrier `k`: set the local
    /// released flag (so in-flight arrivals pass through) and wake
    /// every task parked on a **currently owned** shard (the release
    /// fans out to every node, so each shard is woken exactly by its
    /// owner of the moment).
    pub fn release_barrier(&self, k: usize) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            return false;
        };
        shared.barriers.force_release(k);
        for s in shared.directory.owned_shards(shared.node_id) {
            shared.send(s, Msg::BarrierRelease { idx: k });
        }
        true
    }

    /// Freeze locally owned shard `shard` for a live handoff to
    /// `new_owner`: flip the directory owner (new senders route over
    /// the link from here on), wait out producers already inside the
    /// push path, take the core lock (waiting out any in-flight poll),
    /// drain the mailbox backlog, and export the core's transferable
    /// state. Returns `None` if the runtime already shut down.
    ///
    /// After this returns, the shard is empty here and every message
    /// addressed to it — including sends issued by the tail of an
    /// in-flight poll — relays over the link toward the new owner.
    pub fn freeze_shard(&self, shard: usize, new_owner: u32) -> Option<crate::wire::FrozenShard> {
        let shared = self.shared.upgrade()?;
        debug_assert_eq!(
            shared.directory.owner_of(shard),
            shared.node_id,
            "freezing a shard this node does not own"
        );
        shared.directory.set_owner(shard, new_owner);
        let mb = &shared.mailboxes[shard];
        // See `Mailbox::producers`: a producer that saw the old owner
        // completes its push before this count drains, so the mailbox
        // drain below captures it; later senders see the flip and
        // route over the link. The owner store above and this load are
        // both SeqCst — the Dekker pairing with the producer guard in
        // `Shared::send` (see `ShardDirectory::set_owner`); weaker
        // orderings would let a sender slip a message into the mailbox
        // after the drain.
        while mb.producers.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        let mut core = shared.cores[shard].lock().expect("shard core");
        // Holding the core lock makes us the queue's exclusive
        // consumer (polls drain only under this lock).
        let mut mailbox = Vec::new();
        while let Some(m) = mb.queue.pop() {
            mailbox.push(crate::shard::msg_to_wire(m));
        }
        Some(core.export_frozen(mailbox))
    }

    /// Install a frozen shard shipped by its previous owner: restore
    /// the core under its lock, claim ownership in the directory, then
    /// replay the shipped mailbox backlog and schedule the shard.
    /// Returns `Ok(false)` if the runtime already shut down.
    pub fn install_shard(&self, frozen: crate::wire::FrozenShard) -> Result<bool, WireError> {
        let Some(shared) = self.shared.upgrade() else {
            return Ok(false);
        };
        let shard = frozen.shard as usize;
        let mut frozen = frozen;
        let mailbox = std::mem::take(&mut frozen.mailbox);
        {
            let mut core = shared.cores[shard].lock().expect("shard core");
            let mut rebuild = |we: crate::wire::WireEnvelope| self.rebuild_envelope(we);
            core.install_frozen(&shared, frozen, &mut rebuild)?;
        }
        // Claim ownership only after the core is fully restored:
        // concurrent deliveries that pass the directory check from
        // here on find a complete shard.
        shared.directory.set_owner(shard, shared.node_id);
        for msg in mailbox {
            // The backlog had reached its then-home; replaying it here
            // is a fresh route, so the bounce budget restarts at 0.
            self.deliver(shard, 0, msg)?;
        }
        shared.kick(shard);
        Ok(true)
    }

    /// Apply the cluster's quiesce decision: stop the local workers.
    pub fn begin_shutdown(&self) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            return false;
        };
        shared.initiate_shutdown();
        true
    }

    /// A non-blocking census of envelopes still resident on this
    /// node's shards. Shards whose core is currently held by a polling
    /// worker are skipped (counted in `skipped_shards`) — the caller
    /// is a stalled-run watchdog, and a shard that is actively being
    /// polled is by definition not stuck.
    pub fn backlog(&self) -> InboxBacklog {
        let mut b = InboxBacklog::default();
        let Some(shared) = self.shared.upgrade() else {
            return b;
        };
        for core in &shared.cores {
            match core.try_lock() {
                Ok(c) => {
                    let (runnable, parked, awaiting, stalled) = c.census();
                    b.runnable += runnable;
                    b.parked_barrier += parked;
                    b.awaiting_reply += awaiting;
                    b.stalled_admission += stalled;
                }
                Err(_) => b.skipped_shards += 1,
            }
        }
        b
    }
}

/// What [`RemoteInbox::backlog`] saw: envelopes resident per queue
/// class, summed over the shards whose core lock was free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InboxBacklog {
    /// Runnable envelopes waiting for a poll.
    pub runnable: usize,
    /// Envelopes parked at an unreleased barrier.
    pub parked_barrier: usize,
    /// Envelopes pinned awaiting a remote reply.
    pub awaiting_reply: usize,
    /// Guest arrivals stalled on context admission.
    pub stalled_admission: usize,
    /// Shards skipped because a worker held their core.
    pub skipped_shards: usize,
}

impl InboxBacklog {
    /// Total envelopes counted across every class.
    pub fn total(&self) -> usize {
        self.runnable + self.parked_barrier + self.awaiting_reply + self.stalled_admission
    }
}

/// Launch `tasks` on `cfg.shards` shards and run to completion.
///
/// `scheme_factory` builds one decision-scheme instance per task (see
/// [`Runtime::start`]). `barrier_quotas[k]` is the number of arrivals
/// that open global barrier `k`. Task `i` runs as [`ThreadId`] `i`.
pub fn run_tasks(
    cfg: RtConfig,
    name: impl Into<String>,
    tasks: Vec<TaskSpec>,
    placement: Arc<dyn Placement>,
    scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
    barrier_quotas: Vec<usize>,
) -> RtReport {
    let mut rt = Runtime::start(cfg, name, placement, scheme_factory, barrier_quotas);
    for spec in tasks {
        rt.submit(spec);
    }
    rt.finish()
}

/// Replay a traced workload on the runtime: one [`TraceTask`] per
/// thread, homes resolved live through `placement`, barriers honored
/// with the engine's exact quotas.
///
/// With an eviction-free guest pool ([`RtConfig::eviction_free`]) and
/// the same placement, the migration / remote-access counters and the
/// run-length histogram equal those of
/// [`em2_core::sim::run_em2ra`] with the same scheme — the E11
/// cross-validation — at any worker count.
pub fn run_workload(
    cfg: RtConfig,
    workload: &Arc<Workload>,
    placement: Arc<dyn Placement>,
    scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
) -> RtReport {
    let tasks: Vec<TaskSpec> = workload
        .threads
        .iter()
        .map(|t| {
            TaskSpec::new(
                Box::new(TraceTask::new(Arc::clone(workload), t.thread)) as Box<dyn Task>,
                t.native,
            )
        })
        .collect();
    let quotas = barrier_quotas(workload.threads.iter().map(|t| t.barriers.len()));
    run_tasks(
        cfg,
        workload.name.clone(),
        tasks,
        placement,
        scheme_factory,
        quotas,
    )
}
