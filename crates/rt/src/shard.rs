//! The shard state machine: one heap partition, poll-able by any
//! worker.
//!
//! Each shard is a **state machine**, not a thread: a word-granular
//! heap partition, a mailbox (a lock-free MPSC queue — `crate::mpsc` —
//! so remote requests are serviced in arrival order with no mutex on
//! the push/drain path; the paper's in-order home-core servicing), and
//! the per-core context file reused from the
//! simulator ([`em2_core::context::ContextPool`]): native contexts
//! always admit, guest slots are bounded, and an arriving guest that
//! finds them full evicts a resident evictable guest back to *its*
//! native shard — the paper's §2 deadlock-avoidance protocol, executed
//! for real. Which OS thread polls a shard is the executor's business
//! (`exec.rs`): `W` workers multiplex `S ≫ W` shards.
//!
//! A task runs on its resident shard until it blocks: a non-local
//! access consults the **envelope-carried** [`DecisionScheme`] and
//! either ships the serialized continuation to the home shard's
//! mailbox (**migration**) or sends a word-granular request and parks
//! pinned until the reply returns (**remote access**). Local accesses
//! execute inline, bounded by a scheduling quantum so co-resident
//! contexts round-robin.
//!
//! **No global locks on the hot path.** Decision-scheme state lives in
//! the envelope (every shipped scheme keys its tables per thread, so
//! carrying each thread's instance with its task is exact — see
//! DESIGN.md §8); the run-length histogram is a per-shard
//! [`Histogram`] merged deterministically at quiesce; barriers are the
//! engine's [`AtomicBarriers`] (per-barrier atomic counters, one
//! atomic release). Counter equivalence with the simulator (DESIGN.md
//! §7) rests on one invariant: every per-thread sequence of `decide` /
//! `observe_run` / run-monitor calls is issued in that thread's
//! program order, exactly as the simulator issues it — shard
//! interleaving only permutes *across* threads.

use crate::exec::Sched;
use crate::mpsc::MpscQueue;
use crate::runtime::NodeLink;
use crate::task::{Op, Task};
use crate::wire::{WireEnvelope, WireMsg, WireOp};
use em2_core::context::{Admission, ContextPool, GuestState, VictimPolicy};
use em2_core::decision::{Decision, DecisionCtx, DecisionScheme};
use em2_core::stats::FlowCounts;
use em2_engine::{AtomicBarriers, BarrierArrival};
use em2_model::{AccessKind, Addr, CoreId, CostModel, Histogram, ThreadId};
use em2_obs::{EventKind, NodeObs, ShardObs, SingleWriterCounter};
use em2_placement::Placement;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Messages drained from a mailbox per poll (the drain-k batch bounds
/// how long one poll can monopolize a worker).
pub(crate) const DRAIN_K: usize = 128;

/// Task quanta one poll may execute before yielding the worker to
/// other shards (fairness across co-scheduled shards).
const POLL_TASK_BUDGET: usize = 4;

/// A task in flight or at rest: the continuation plus the runtime
/// bookkeeping that travels with it.
pub(crate) struct Envelope {
    pub thread: ThreadId,
    pub native: CoreId,
    pub task: Box<dyn Task>,
    /// The thread's decision-scheme instance, carried *in the
    /// envelope*: it migrates with the task, so `decide`/`observe_run`
    /// never touch shared state. Every shipped scheme keys its tables
    /// per thread, so per-thread instances are bit-equal to the
    /// simulator's single shared instance (DESIGN.md §8).
    pub scheme: Box<dyn DecisionScheme>,
    /// When the task was submitted (or its intended open-loop arrival
    /// time): retirement records `arrival.elapsed()` as the task's
    /// latency.
    pub arrival: Instant,
    /// The access that triggered a migration: executed at the home
    /// shard immediately after admission (the simulator performs the
    /// arrival access in the same event as admission; keeping the pair
    /// atomic here preserves the eviction invariants).
    pub pending_op: Option<Op>,
    /// Result of the last completed operation, to feed the next
    /// `resume` (carried across requeues and evictions — it is
    /// register state).
    pub pending_reply: Option<u64>,
    /// Barrier the task is parked at, if any (survives eviction: a
    /// thread evicted mid-barrier stays parked at its native shard).
    pub parked_at: Option<usize>,
    /// The in-progress home run `(home, length)` — per-thread monitor
    /// state carried *in the envelope* (it migrates with the task), so
    /// the hot local path extends a run without touching anything
    /// shared; a run *boundary* bins into the shard-local histogram.
    pub run: Option<(CoreId, u64)>,
    /// The task's network detours (bounces and handoff replays): the
    /// hops no shard ring can attribute to the task, so empty unless
    /// it met a handoff. Recorded unconditionally (it is wire payload,
    /// and the deterministic experiments compare wire bytes
    /// bit-for-bit); only the retirement dump is obs-gated.
    pub journey: crate::wire::Journey,
}

/// Inter-shard messages.
pub(crate) enum Msg {
    /// A context arrives: a migration, an eviction return, or the
    /// initial seeding of a task at its native shard.
    Arrive(Box<Envelope>),
    /// Word-granular remote access request (`write: Some(v)` stores).
    Request {
        addr: Addr,
        write: Option<u64>,
        reply_shard: usize,
        token: u64,
    },
    /// Reply to a [`Msg::Request`]: `Some(value)` for reads, `None`
    /// for write acks.
    Response { token: u64, value: Option<u64> },
    /// Barrier `idx` completed; wake local tasks parked on it.
    BarrierRelease { idx: usize },
}

/// Serialize an envelope for a cross-process hop.
///
/// # Panics
/// Panics if the task declares no [`Task::wire_kind`] — a task that
/// cannot cross a process boundary was routed to a remote shard, which
/// is a cluster-configuration bug (the data it touches must be homed
/// on locally owned shards).
pub(crate) fn envelope_to_wire(env: &Envelope) -> WireEnvelope {
    let task_kind = env.task.wire_kind().unwrap_or_else(|| {
        panic!(
            "task for thread {:?} cannot cross a process boundary: Task::wire_kind() is None",
            env.thread
        )
    });
    let task_ctx = env.task.context_bytes();
    debug_assert_eq!(
        task_ctx.len() as u64,
        env.task.context_len(),
        "Task::context_len must equal context_bytes().len()"
    );
    WireEnvelope {
        thread: env.thread.0,
        native: env.native.0,
        task_kind,
        task_ctx,
        scheme_state: env.scheme.state_bytes(),
        pending_op: env.pending_op.map(WireOp::from_op),
        pending_reply: env.pending_reply,
        parked_at: env.parked_at.map(|k| k as u32),
        run: env.run.map(|(c, len)| (c.0, len)),
        journey: env.journey.clone(),
    }
}

/// Wire form of an outbound inter-shard message (the node link ships
/// these).
pub(crate) fn msg_to_wire(msg: Msg) -> WireMsg {
    match msg {
        Msg::Arrive(env) => WireMsg::Arrive(envelope_to_wire(&env)),
        Msg::Request {
            addr,
            write,
            reply_shard,
            token,
        } => WireMsg::Request {
            addr: addr.0,
            write,
            reply_shard: reply_shard as u32,
            token,
        },
        Msg::Response { token, value } => WireMsg::Response { token, value },
        Msg::BarrierRelease { idx } => WireMsg::BarrierRelease { idx: idx as u32 },
    }
}

/// Executor scheduling state of one shard, kept in its mailbox.
/// Transitions (all by CAS or from the owning worker):
///
/// ```text
/// IDLE ──send──▶ QUEUED ──pop──▶ RUNNING ──send──▶ RUNNING_DIRTY
///   ▲                               │ quiesced          │
///   └───────────────────────────────┘   └──requeue──────┘
/// ```
///
/// At most one worker polls a shard at a time (only the QUEUED→RUNNING
/// owner touches the core), and a shard is never queued twice: only
/// the transitions *into* QUEUED enqueue it.
pub(crate) const SHARD_IDLE: u8 = 0;
pub(crate) const SHARD_QUEUED: u8 = 1;
pub(crate) const SHARD_RUNNING: u8 = 2;
pub(crate) const SHARD_RUNNING_DIRTY: u8 = 3;

/// One shard's mailbox: a lock-free MPSC queue (producers never take
/// any lock — see `crate::mpsc` for the algorithm and the wakeup
/// soundness argument) and the executor scheduling state.
pub(crate) struct Mailbox {
    pub queue: MpscQueue<Msg>,
    /// `SHARD_*` scheduling state.
    pub state: AtomicU8,
    /// Node mode only: senders currently inside the push path, used by
    /// a shard handoff's freeze step. The freeze flips the directory
    /// owner first, then waits for this to reach zero; a sender that
    /// re-checks ownership *after* incrementing and still sees itself
    /// as owner therefore completes its push before the freeze drains
    /// the mailbox. Every access in the handshake is SeqCst (see
    /// `ShardDirectory::set_owner` for the store-load argument).
    /// Single-process sends never touch it.
    pub producers: AtomicU32,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox {
            queue: MpscQueue::new(),
            state: AtomicU8::new(SHARD_IDLE),
            producers: AtomicU32::new(0),
        }
    }
}

/// State shared by every worker. The hot paths touch only per-shard
/// locks (a mailbox push, an uncontended core lock) and atomics, never
/// a global mutex — see the lock-elimination table in DESIGN.md §8.
pub(crate) struct Shared {
    /// Mailboxes for **every** shard in the cluster, indexed by global
    /// shard id. A cluster node instantiates all of them (ownership is
    /// directory-driven and can change at a live handoff) but only
    /// polls the ones it currently owns; an unowned shard's mailbox
    /// and core sit empty.
    pub mailboxes: Vec<Mailbox>,
    /// Shard state machines (global ids, like `mailboxes`). The mutex
    /// is a hand-off device, not a contention point: the scheduling
    /// protocol admits at most one poller per shard, so every
    /// acquisition is uncontended. A live handoff's freeze step takes
    /// this lock to drain the core, which is what makes a freeze wait
    /// out any in-flight poll.
    pub cores: Vec<Mutex<ShardCore>>,
    /// Epoch-versioned per-shard ownership. The transport layer
    /// (`em2-net`) holds the *same* `Arc`, so an ownership flip during
    /// a handoff is observed atomically by the send path, the receive
    /// path, and the executor. Single-process runtimes hold an
    /// all-owned directory at epoch 0.
    pub directory: std::sync::Arc<crate::directory::ShardDirectory>,
    /// This runtime's node id in the directory (0 outside node mode).
    pub node_id: u32,
    /// Cluster-wide shard count (`mailboxes.len()`).
    pub total_shards: usize,
    /// Cross-process egress: messages to shards this process does not
    /// own, barrier arrivals, and retirements are handed to this link
    /// (`em2-net` implements it over loopback/UDS/TCP). `None` for a
    /// plain single-process runtime.
    pub node: Option<std::sync::Arc<dyn NodeLink>>,
    /// Multi-node barrier protocol: arrivals forward to the cluster
    /// coordinator and tasks always park until the release fans back
    /// (counter-neutral — barrier handling records nothing). `false`
    /// in single-process *and* single-node-cluster runtimes, which
    /// complete barriers locally through `barriers`.
    pub clustered_barriers: bool,
    pub placement: std::sync::Arc<dyn Placement>,
    pub barriers: AtomicBarriers,
    /// Un-retired tasks plus one "open" token held by the
    /// [`crate::Runtime`] handle; whoever decrements it to zero
    /// initiates shutdown. Unused in node mode, where completion is
    /// cluster-global and the quiesce decision arrives over the link.
    pub live: AtomicUsize,
    pub shutdown: AtomicBool,
    pub cost: CostModel,
    pub quantum: usize,
    /// The executor's run queues and sleep gate.
    pub sched: Sched,
    /// Observability registry (`em2-obs`), `None` when the timing
    /// plane is off. Strictly timing-plane: nothing here ever feeds
    /// the deterministic counters.
    pub obs: Option<std::sync::Arc<NodeObs>>,
}

impl Shared {
    /// Local slot of a global shard id, or `None` when another node
    /// currently owns it. Ownership is one atomic directory load; with
    /// a handoff in flight the answer can go stale immediately, which
    /// is why the clustered send path re-checks under the producer
    /// guard and the receive path double-checks under the pending-
    /// install lock (`em2-net`).
    pub(crate) fn local_slot(&self, global: usize) -> Option<usize> {
        (global < self.total_shards && self.directory.owner_of(global) == self.node_id)
            .then_some(global)
    }

    /// Deliver `msg` to shard `to` (a **global** id) and make sure
    /// something will poll it: push to the local mailbox and schedule
    /// the shard on the executor, or — when another node owns `to` —
    /// serialize the message and hand it to the node link.
    pub(crate) fn send(&self, to: usize, msg: Msg) {
        self.send_routed(to, 0, msg);
    }

    /// [`Shared::send`] with an explicit re-route budget: `retries` is
    /// how many times ownership movement has already bounced this
    /// message between nodes. Organic sends start at 0; the transport
    /// layer passes the count carried on the frame so the
    /// `EM2_NET_BOUNCE_RETRIES` budget survives a delivery that races
    /// an outbound ownership flip and re-forwards over the link.
    pub(crate) fn send_routed(&self, to: usize, retries: u32, msg: Msg) {
        debug_assert!(to < self.total_shards, "shard {to} outside the cluster");
        if self.node.is_none() {
            // Single-process fast path: ownership never changes, no
            // producer guard.
            self.push_and_schedule(to, msg);
            return;
        }
        if self.directory.owner_of(to) == self.node_id {
            // Announce ourselves as an in-flight producer, then
            // re-check ownership: a handoff's freeze flips the owner
            // *first* and then waits for producers to reach zero, so a
            // send that still sees itself as owner here completes its
            // push strictly before the freeze drains the mailbox, and
            // a send that lost the race backs out and routes over the
            // link instead. This is a Dekker-style store-load
            // handshake: the increment (SeqCst RMW), this re-load, the
            // freeze's owner store, and its producer-count load all
            // take part in the single SeqCst total order, so either we
            // observe the flipped owner here, or the freeze observes
            // our increment and waits out the push — weaker orderings
            // would allow both sides to miss the other (see
            // `ShardDirectory::set_owner`).
            let mb = &self.mailboxes[to];
            mb.producers.fetch_add(1, Ordering::SeqCst);
            if self.directory.owner_of_fenced(to) == self.node_id {
                self.push_and_schedule(to, msg);
                mb.producers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            mb.producers.fetch_sub(1, Ordering::SeqCst);
        }
        self.node
            .as_ref()
            .expect("a message to a non-local shard requires a node link")
            .forward(to, retries, msg_to_wire(msg));
    }

    /// The local half of [`Shared::send`]: lock-free mailbox push plus
    /// the executor scheduling handshake.
    fn push_and_schedule(&self, to: usize, msg: Msg) {
        let mb = &self.mailboxes[to];
        // Lock-free push: the hot ingress path takes no mutex. The
        // scheduling CAS below is sequenced after the completed push,
        // which is what makes the queue's mid-push blip benign (see
        // `crate::mpsc`).
        mb.queue.push(msg);
        // The push ends in a Release store of its queue link, and a
        // later load may be ordered before an earlier store (x86 store
        // buffers do it). Unfenced, the state load below could read
        // QUEUED while the link is still invisible to that pending
        // poll, which then drains nothing, goes IDLE, and strands the
        // message.
        std::sync::atomic::fence(Ordering::SeqCst);
        loop {
            match mb.state.load(Ordering::SeqCst) {
                SHARD_IDLE => {
                    if mb
                        .state
                        .compare_exchange(
                            SHARD_IDLE,
                            SHARD_QUEUED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        self.sched.schedule(to);
                        break;
                    }
                }
                SHARD_RUNNING => {
                    if mb
                        .state
                        .compare_exchange(
                            SHARD_RUNNING,
                            SHARD_RUNNING_DIRTY,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        break;
                    }
                }
                // Already queued, or already flagged dirty: the
                // pending poll will drain this message.
                _ => break,
            }
        }
    }

    /// Schedule an (owned) shard for a poll without enqueueing a
    /// message — used after a handoff install to get the restored
    /// run queue serviced.
    pub(crate) fn kick(&self, shard: usize) {
        let mb = &self.mailboxes[shard];
        if mb
            .state
            .compare_exchange(SHARD_IDLE, SHARD_QUEUED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.sched.schedule(shard);
        }
    }

    /// Flip the global shutdown flag and wake every parked executor
    /// worker. Safe to call from a panicking thread: a poisoned sleep
    /// lock is tolerated.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sched.wake_all();
    }
}

/// Per-shard counters and samples, merged deterministically (in shard
/// order) into the report at quiesce.
pub(crate) struct ShardCounters {
    pub flow: FlowCounts,
    pub context_bytes_sent: u64,
    pub heap_words: u64,
    /// Shard-local slice of the Figure-2 run-length histogram
    /// (bin-wise summed at quiesce; addition commutes, so the merge is
    /// worker-count independent).
    pub run_hist: Histogram,
    /// Times this shard was polled (scheduling telemetry; the idle-CPU
    /// regression test bounds it).
    pub polls: u64,
    /// Per-retired-task latency samples in nanoseconds
    /// (`Envelope::arrival` → retirement).
    pub task_latency_ns: Vec<u64>,
}

impl ShardCounters {
    fn new(run_bins: u64) -> Self {
        ShardCounters {
            flow: FlowCounts::default(),
            context_bytes_sent: 0,
            heap_words: 0,
            run_hist: Histogram::new(run_bins),
            polls: 0,
            task_latency_ns: Vec::new(),
        }
    }
}

/// One shard's owned state: heap partition, context pool, task queues.
/// Accessed only by the worker currently granted the shard (the
/// executor's scheduling protocol).
pub(crate) struct ShardCore {
    /// Global (cluster-wide) shard id — what `CoreId`s and placement
    /// homes refer to, and this core's index into
    /// `Shared::mailboxes`/`cores`.
    id: usize,
    /// The owned heap partition: word values by address.
    heap: HashMap<u64, u64>,
    /// The context file (bounded guests + reserved natives), reused
    /// from the simulator.
    pool: ContextPool,
    /// Runnable tasks (none holds a `pending_op`; see `admit`).
    runq: VecDeque<Box<Envelope>>,
    /// Tasks parked at a barrier (`parked_at` is `Some`). Boxed like
    /// every other envelope home, so moving between queues, mailboxes,
    /// and park lists never copies the envelope itself.
    #[allow(clippy::vec_box)]
    parked: Vec<Box<Envelope>>,
    /// Tasks pinned awaiting a remote reply, by request token.
    awaiting: HashMap<u64, Box<Envelope>>,
    /// Guest arrivals waiting for a slot — every guest was pinned
    /// when they (or an earlier arrival still queued here) landed.
    /// Admitted strictly in arrival order.
    stalled: VecDeque<Box<Envelope>>,
    next_token: u64,
    /// Shard-local activity clock (orders LRU victimization).
    clock: u64,
    pub(crate) counters: ShardCounters,
    /// Reusable drain buffer (capacity persists across polls).
    scratch: Vec<Msg>,
    /// Replies to remote-access requests from shards another node
    /// owns, buffered across one mailbox batch and handed to the node
    /// link as a single `forward_many` — one egress enqueue run and
    /// one writer wakeup per (home, requester) burst instead of one
    /// per reply. Always flushed before the batch ends, so quiesce
    /// (which waits on the requester's retirement) can never observe a
    /// reply parked here.
    remote_replies: Vec<(usize, WireMsg)>,
    /// This shard's timing-plane handle (`None` when obs is off — the
    /// hot path then pays one `Option` branch per hook). Never read by
    /// anything that feeds the deterministic counters.
    obs: Option<std::sync::Arc<ShardObs>>,
    /// Per-home cost-model latencies `[migration, RA-read, RA-write]`,
    /// built lazily on the first obs-on verdict (empty otherwise): the
    /// attribution cost bump must not re-run the model's flit
    /// arithmetic — two integer divisions per call — on every verdict.
    attrib_cost: Vec<[u64; 3]>,
    /// `[locals, parks]` accrued per thread id since the last fold —
    /// both are always keyed `(thread, me)`, so the hot path can use
    /// plain single-writer memory (an L1-resident vector, no hash, no
    /// atomics) and fold into the shared attribution matrix only at
    /// freeze and quiesce, the same idiom the deterministic
    /// `FlowCounts` use. A mid-run exporter snapshot may undercount
    /// these two columns by the unfolded remainder; the final
    /// snapshot is exact.
    attrib_pending: Vec<[u64; 2]>,
    /// Poll counter for the coarse event clock: the clock refreshes
    /// every [`OBS_CLOCK_POLLS`] polls, because `clock_gettime` can be
    /// a real syscall (obs module docs on the coarse clock).
    obs_clock_tick: u32,
}

/// Polls between coarse-event-clock refreshes.
const OBS_CLOCK_POLLS: u32 = 16;

impl ShardCore {
    pub(crate) fn new(
        id: usize,
        guest_contexts: usize,
        run_bins: u64,
        obs: Option<std::sync::Arc<ShardObs>>,
    ) -> Self {
        ShardCore {
            id,
            heap: HashMap::new(),
            pool: ContextPool::new(guest_contexts, VictimPolicy::Lru),
            runq: VecDeque::new(),
            parked: Vec::new(),
            awaiting: HashMap::new(),
            stalled: VecDeque::new(),
            next_token: 0,
            clock: 0,
            counters: ShardCounters::new(run_bins),
            scratch: Vec::new(),
            remote_replies: Vec::new(),
            obs,
            attrib_cost: Vec::new(),
            attrib_pending: Vec::new(),
            obs_clock_tick: 0,
        }
    }

    /// Build the per-home `[migration, RA-read, RA-write]` latency LUT
    /// (see `attrib_cost`). Out of line and cold on purpose: `execute`
    /// calls this at most once per slice behind an `is_empty` check,
    /// so the verdict arms read the LUT with a plain indexed load
    /// instead of a `&mut self` call the optimizer won't inline into
    /// the hot match.
    #[cold]
    #[inline(never)]
    fn build_attrib_cost(&mut self, shared: &Shared) {
        let me = self.me();
        self.attrib_cost = (0..shared.total_shards)
            .map(|h| {
                let h = CoreId::from(h);
                [
                    shared.cost.migration_latency(me, h),
                    shared.cost.remote_access_latency(me, h, AccessKind::Read),
                    shared.cost.remote_access_latency(me, h, AccessKind::Write),
                ]
            })
            .collect();
    }

    /// Per-poll obs bookkeeping: bump the poll counter and refresh the
    /// shard's coarse event clock every few polls.
    #[inline]
    fn obs_poll(&mut self) {
        if let Some(o) = &self.obs {
            o.polls.bump(1);
            if self.obs_clock_tick.is_multiple_of(OBS_CLOCK_POLLS) {
                o.refresh_clock();
            }
            self.obs_clock_tick = self.obs_clock_tick.wrapping_add(1);
        }
    }

    /// Record the guest pool's current occupancy on the obs plane
    /// (after any admit/evict/remove transition).
    #[inline]
    fn obs_occupancy(&self) {
        if let Some(o) = &self.obs {
            o.set_guest_occupancy(self.pool.guest_count() as u64);
        }
    }

    fn me(&self) -> CoreId {
        CoreId::from(self.id)
    }

    /// Census of envelopes resident on this shard: `(runnable, parked
    /// at a barrier, awaiting a remote reply, stalled on admission)`.
    /// The cluster layer's deadline watchdog reads this to say *why* a
    /// run stalled (a barrier that never released vs. a quiesce that
    /// never arrived).
    pub(crate) fn census(&self) -> (usize, usize, usize, usize) {
        (
            self.runq.len(),
            self.parked.len(),
            self.awaiting.len(),
            self.stalled.len(),
        )
    }

    /// Finalize end-of-run accounting (called once, at quiesce, while
    /// the merge owns the core).
    pub(crate) fn into_counters(mut self) -> ShardCounters {
        self.counters.heap_words = self.heap.len() as u64;
        self.counters
    }

    /// Freeze this shard for a live handoff: take every piece of
    /// transferable state — the heap partition, the resident contexts,
    /// all queued envelopes, the token/clock counters — plus the
    /// already-drained `mailbox` backlog, leaving the core empty.
    /// Deterministic counters stay behind (they accrued here and merge
    /// into this node's report; the destination counts only what it
    /// executes after the handoff).
    ///
    /// The caller holds the core lock (so no poll is in flight) and
    /// has already flipped the directory owner and waited out the
    /// mailbox's producer count, so nothing lands here afterwards.
    pub(crate) fn export_frozen(&mut self, mailbox: Vec<WireMsg>) -> crate::wire::FrozenShard {
        self.flush_attrib_pending();
        debug_assert!(self.scratch.is_empty(), "batch in progress during freeze");
        debug_assert!(
            self.remote_replies.is_empty(),
            "unflushed replies during freeze"
        );
        let mut heap: Vec<(u64, u64)> = self.heap.drain().collect();
        heap.sort_unstable_by_key(|&(a, _)| a);
        let (natives, guests) = self.pool.drain_residents();
        let mut awaiting: Vec<(u64, WireEnvelope)> = self
            .awaiting
            .drain()
            .map(|(token, env)| (token, envelope_to_wire(&env)))
            .collect();
        awaiting.sort_unstable_by_key(|&(token, _)| token);
        crate::wire::FrozenShard {
            shard: self.id as u32,
            next_token: self.next_token,
            clock: self.clock,
            heap,
            natives: natives.into_iter().map(|t| t.0).collect(),
            guests: guests
                .into_iter()
                .map(|(t, pinned, at)| (t.0, pinned, at))
                .collect(),
            runq: self.runq.drain(..).map(|e| envelope_to_wire(&e)).collect(),
            parked: self
                .parked
                .drain(..)
                .map(|e| envelope_to_wire(&e))
                .collect(),
            awaiting,
            stalled: self
                .stalled
                .drain(..)
                .map(|e| envelope_to_wire(&e))
                .collect(),
            mailbox,
        }
    }

    /// Install a frozen shard shipped by the previous owner: the
    /// inverse of [`ShardCore::export_frozen`], with envelopes rebuilt
    /// through `rebuild` (the inbox's registry + scheme factory). The
    /// caller holds the core lock and flips the directory owner after
    /// this returns; parked envelopes whose barrier released while the
    /// shard was in transit go straight to the run queue, exactly as a
    /// barrier-parked arrival does in `activate`.
    pub(crate) fn install_frozen(
        &mut self,
        shared: &Shared,
        f: crate::wire::FrozenShard,
        rebuild: &mut dyn FnMut(WireEnvelope) -> Result<Box<Envelope>, crate::wire::WireError>,
    ) -> Result<(), crate::wire::WireError> {
        debug_assert_eq!(f.shard as usize, self.id, "frozen shard routed wrong");
        assert!(
            self.heap.is_empty() && self.runq.is_empty() && self.awaiting.is_empty(),
            "installing into a non-empty shard core"
        );
        self.heap.extend(f.heap.iter().copied());
        for &t in &f.natives {
            self.pool.restore_native(ThreadId(t));
        }
        for &(t, pinned, at) in &f.guests {
            self.pool.restore_guest(ThreadId(t), pinned, at);
        }
        self.next_token = f.next_token;
        self.clock = f.clock;
        for we in f.runq {
            let env = rebuild(we)?;
            self.runq.push_back(env);
        }
        for we in f.parked {
            let mut env = rebuild(we)?;
            match env.parked_at {
                Some(k) if !shared.barriers.is_released(k) => self.parked.push(env),
                _ => {
                    env.parked_at = None;
                    self.runq.push_back(env);
                }
            }
        }
        for (token, we) in f.awaiting {
            let env = rebuild(we)?;
            self.awaiting.insert(token, env);
        }
        for we in f.stalled {
            let env = rebuild(we)?;
            self.stalled.push_back(env);
        }
        self.obs_occupancy();
        Ok(())
    }

    /// One executor poll: drain a mailbox batch (home servicing in
    /// arrival order), retry stalled admissions, run a bounded number
    /// of task quanta. Returns `true` when runnable work remains (the
    /// worker must requeue the shard).
    pub(crate) fn poll(&mut self, shared: &Shared) -> bool {
        self.counters.polls += 1;
        self.obs_poll();
        let mut quanta = POLL_TASK_BUDGET;
        loop {
            let drained = {
                let q = &shared.mailboxes[self.id].queue;
                let mut take = 0;
                while take < DRAIN_K {
                    match q.pop() {
                        Some(msg) => {
                            self.scratch.push(msg);
                            take += 1;
                        }
                        None => break,
                    }
                }
                take
            };
            if drained > 0 {
                if let Some(o) = &self.obs {
                    o.msgs.bump(drained as u64);
                    o.mailbox_batch.record(drained as u64);
                }
            }
            self.process_batch(shared);
            self.retry_stalled(shared);
            if shared.shutdown.load(Ordering::Acquire) {
                return false;
            }
            if let Some(env) = self.runq.pop_front() {
                self.execute(shared, env);
                // A departing task may have freed a guest slot.
                self.retry_stalled(shared);
                quanta -= 1;
                if quanta == 0 {
                    break;
                }
            } else if drained == 0 {
                break;
            }
        }
        !self.runq.is_empty()
    }

    fn process_batch(&mut self, shared: &Shared) {
        let mut batch = std::mem::take(&mut self.scratch);
        for msg in batch.drain(..) {
            self.handle(shared, msg);
        }
        self.scratch = batch;
        self.flush_remote_replies(shared);
    }

    /// Hand the batch's buffered cross-node replies to the link in one
    /// call: the link enqueues them contiguously per peer and wakes
    /// each involved writer once.
    fn flush_remote_replies(&mut self, shared: &Shared) {
        if self.remote_replies.is_empty() {
            return;
        }
        let msgs = std::mem::take(&mut self.remote_replies);
        shared
            .node
            .as_ref()
            .expect("a reply to a non-local shard requires a node link")
            .forward_many(msgs);
    }

    fn handle(&mut self, shared: &Shared, msg: Msg) {
        match msg {
            Msg::Arrive(env) => self.admit(shared, env),
            Msg::Request {
                addr,
                write,
                reply_shard,
                token,
            } => {
                // Figure 3's "access memory" box executes at the home,
                // in request arrival order.
                if let Some(o) = &self.obs {
                    o.remote_served.bump(1);
                }
                let value = self.serve(addr, write);
                if shared.local_slot(reply_shard).is_some() {
                    shared.send(reply_shard, Msg::Response { token, value });
                } else {
                    // Cross-node reply: batch per requester for the
                    // egress pipeline (each stays its own wire frame,
                    // so the deterministic wire counters are
                    // untouched). Flushed at the end of this batch.
                    self.remote_replies
                        .push((reply_shard, WireMsg::Response { token, value }));
                }
            }
            Msg::Response { token, value } => {
                let mut env = self
                    .awaiting
                    .remove(&token)
                    .expect("response matches a pinned task");
                if env.native != self.me() {
                    self.pool.set_guest_state(env.thread, GuestState::Evictable);
                }
                env.pending_reply = value;
                self.runq.push_back(env);
            }
            Msg::BarrierRelease { idx } => {
                let mut released = 0u64;
                let mut i = 0;
                while i < self.parked.len() {
                    if self.parked[i].parked_at == Some(idx) {
                        let mut env = self.parked.swap_remove(i);
                        env.parked_at = None;
                        self.runq.push_back(env);
                        released += 1;
                    } else {
                        i += 1;
                    }
                }
                if let Some(o) = &self.obs {
                    o.event(EventKind::BarrierRelease, 0, idx as u64, released);
                }
            }
        }
    }

    /// Admit an arriving context. Natives always fit; a guest may
    /// evict, or stall when every guest slot is pinned. A fresh guest
    /// arrival queues behind earlier stalled ones so admission order
    /// is arrival order.
    fn admit(&mut self, shared: &Shared, env: Box<Envelope>) {
        if let Some(o) = &self.obs {
            o.arrivals.bump(1);
            if env.pending_op.is_some() {
                // A migration lands carrying its arrival access.
                o.migrations_in.bump(1);
            }
            o.event(
                EventKind::Arrive,
                env.thread.0 as u64,
                env.native.index() as u64,
                u64::from(env.native == self.me()),
            );
        }
        if env.native == self.me() {
            self.pool.admit_native(env.thread);
            self.activate(shared, env);
            return;
        }
        if !self.stalled.is_empty() {
            self.counters.flow.stalled_arrivals += 1;
            self.obs_stall(&env);
            self.stalled.push_back(env);
            return;
        }
        if let Some(env) = self.try_admit_guest(shared, env) {
            self.counters.flow.stalled_arrivals += 1;
            self.obs_stall(&env);
            self.stalled.push_back(env);
        }
    }

    /// Obs hook for an arrival stalled on guest admission.
    fn obs_stall(&self, env: &Envelope) {
        if let Some(o) = &self.obs {
            o.stalls.bump(1);
            o.event(
                EventKind::Stall,
                env.thread.0 as u64,
                self.stalled.len() as u64 + 1,
                0,
            );
        }
    }

    /// The guest-admission state machine, shared by fresh arrivals and
    /// stall retries: admit (evicting a resident if needed) and
    /// activate, or hand the envelope back on stall.
    fn try_admit_guest(&mut self, shared: &Shared, env: Box<Envelope>) -> Option<Box<Envelope>> {
        self.clock += 1;
        match self.pool.admit_guest(env.thread, self.clock) {
            Admission::Admitted => {
                self.obs_guest_admit(&env);
                self.activate(shared, env);
            }
            Admission::AdmittedEvicting(victim) => {
                self.counters.flow.evictions += 1;
                self.evict(shared, victim);
                self.obs_guest_admit(&env);
                self.activate(shared, env);
            }
            Admission::Stalled => return Some(env),
        }
        None
    }

    /// Obs hook for a successful guest admission.
    fn obs_guest_admit(&self, env: &Envelope) {
        if let Some(o) = &self.obs {
            o.guest_admits.bump(1);
            let occ = self.pool.guest_count() as u64;
            o.set_guest_occupancy(occ);
            o.event(EventKind::GuestAdmit, env.thread.0 as u64, occ, 0);
        }
    }

    /// An admitted context becomes active: barrier-parked arrivals
    /// re-park (unless their barrier opened while they were in
    /// flight); everything else executes immediately — keeping a
    /// migration's arrival access atomic with its admission, exactly
    /// like the simulator's arrival event.
    fn activate(&mut self, shared: &Shared, mut env: Box<Envelope>) {
        if let Some(k) = env.parked_at {
            if shared.barriers.is_released(k) {
                env.parked_at = None;
                self.runq.push_back(env);
            } else {
                self.parked.push(env);
            }
            return;
        }
        self.execute(shared, env);
    }

    /// Ship an evictable resident back to its native shard. The victim
    /// is in the run queue or parked at a barrier (pinned guests are
    /// never chosen, and no task mid-execution is pool-resident while
    /// admissions run); its guest slot was already recycled by
    /// `ContextPool::admit_guest`.
    fn evict(&mut self, shared: &Shared, victim: ThreadId) {
        let pos = self.runq.iter().position(|e| e.thread == victim);
        let env = if let Some(i) = pos {
            self.runq.remove(i).expect("indexed")
        } else {
            let i = self
                .parked
                .iter()
                .position(|e| e.thread == victim)
                .expect("eviction victim must be runnable or barrier-parked");
            self.parked.swap_remove(i)
        };
        self.counters.context_bytes_sent += env.task.context_len();
        if let Some(o) = &self.obs {
            o.evictions.bump(1);
            let occ = self.pool.guest_count() as u64;
            o.set_guest_occupancy(occ);
            o.event(EventKind::GuestEvict, env.thread.0 as u64, occ, 0);
        }
        let native = env.native.index();
        shared.send(native, Msg::Arrive(env));
    }

    /// Re-attempt stalled guest admissions, preserving arrival order.
    fn retry_stalled(&mut self, shared: &Shared) {
        while let Some(env) = self.stalled.pop_front() {
            let thread = env.thread.0 as u64;
            if let Some(env) = self.try_admit_guest(shared, env) {
                self.stalled.push_front(env);
                return;
            }
            if let Some(o) = &self.obs {
                o.retries.bump(1);
                o.event(EventKind::Retry, thread, self.stalled.len() as u64, 0);
            }
        }
    }

    /// Execute one word access against the owned heap partition: the
    /// single definition of DSM word semantics, shared by the local /
    /// migrated path and remote-request servicing. Stores return
    /// `None` (an ack); loads return `Some(value)`, with
    /// uninitialized words reading 0.
    fn serve(&mut self, addr: Addr, write: Option<u64>) -> Option<u64> {
        match write {
            Some(v) => {
                self.heap.insert(addr.0, v);
                None
            }
            None => Some(self.heap.get(&addr.0).copied().unwrap_or(0)),
        }
    }

    /// Track one access against the envelope-carried run state. Same
    /// run semantics as the engine's `RunMonitor::track`, with the
    /// run-end half inlined against envelope-local state: a continuing
    /// run touches nothing shared, and a run boundary bins into the
    /// *shard-local* histogram and feeds the *envelope-carried* scheme
    /// — no locks either way.
    fn track(&mut self, env: &mut Envelope, home: CoreId) {
        match env.run {
            Some((c, ref mut len)) if c == home => *len += 1,
            Some((c, len)) => {
                self.finish_run(env, c, len);
                env.run = Some((home, 1));
            }
            None => env.run = Some((home, 1)),
        }
    }

    /// Record one completed run: bin it (if non-native — the envelope
    /// knows its native shard) and report it to the thread's own
    /// scheme. Mirrors `RunMonitor::record_run` exactly.
    fn finish_run(&mut self, env: &mut Envelope, core: CoreId, len: u64) {
        if core != env.native {
            self.counters.run_hist.record(len);
        }
        env.scheme.observe_run(env.thread, core, len);
    }

    /// Attribute a slice's local accesses to the (thread, here) cell in
    /// one bump (`execute` counts them in a register; resolving the
    /// matrix cell once per slice keeps the per-access cost at zero).
    #[inline]
    fn attrib_locals(&mut self, thread: ThreadId, n: u64) {
        if n == 0 || self.obs.is_none() {
            return;
        }
        let t = thread.0 as usize;
        if t >= self.attrib_pending.len() {
            self.attrib_pending.resize(t + 1, [0, 0]);
        }
        self.attrib_pending[t][0] += n;
    }

    /// Count a barrier park of `thread` at this shard (same deferred
    /// single-writer path as [`ShardCore::attrib_locals`]).
    fn attrib_park(&mut self, thread: ThreadId) {
        if self.obs.is_none() {
            return;
        }
        let t = thread.0 as usize;
        if t >= self.attrib_pending.len() {
            self.attrib_pending.resize(t + 1, [0, 0]);
        }
        self.attrib_pending[t][1] += 1;
    }

    /// Fold the deferred per-thread locals/parks into the attribution
    /// matrix. Called while the core is quiescent: at freeze (so a
    /// handoff leaves a settled table behind) and before the final
    /// snapshot at quiesce.
    pub(crate) fn flush_attrib_pending(&mut self) {
        let Some(o) = &self.obs else { return };
        for (t, p) in self.attrib_pending.iter_mut().enumerate() {
            let [locals, parks] = std::mem::take(p);
            if locals > 0 {
                o.attrib.cell(t as u32, self.id as u32).locals.bump(locals);
            }
            if parks > 0 {
                o.attrib.cell(t as u32, self.id as u32).parks.bump(parks);
            }
        }
    }

    /// Run one task until it blocks (migration, remote access,
    /// barrier), completes, or exhausts its local-access quantum.
    fn execute(&mut self, shared: &Shared, mut env: Box<Envelope>) {
        let me = self.me();
        let thread = env.thread;
        if self.obs.is_some() && self.attrib_cost.is_empty() {
            self.build_attrib_cost(shared);
        }
        let mut local_hits = 0u64;
        let mut budget = shared.quantum.max(1);
        let mut reply = env.pending_reply.take();
        // A pending op is a migration's arrival access: counted as the
        // migration edge, not a local access.
        let mut arrival_access = env.pending_op.is_some();
        loop {
            let op = match env.pending_op.take() {
                Some(op) => op,
                None => env.task.resume(reply.take()),
            };
            let (addr, write_value) = match op {
                Op::Done => {
                    self.attrib_locals(thread, local_hits);
                    self.retire(shared, env);
                    return;
                }
                Op::Barrier(k) => {
                    debug_assert!(!arrival_access);
                    if shared.clustered_barriers {
                        // Multi-node: the quota lives at the cluster
                        // coordinator. The local hub only mirrors
                        // releases, so an unreleased barrier always
                        // parks; the arrival travels over the link and
                        // the release fans back as BarrierRelease
                        // messages. Barrier handling touches no
                        // counters, so parking where the local path
                        // would pass through is counter-neutral.
                        if shared.barriers.is_released(k) {
                            continue;
                        }
                        if let Some(o) = &self.obs {
                            o.event(EventKind::BarrierPark, env.thread.0 as u64, k as u64, 0);
                        }
                        self.attrib_park(thread);
                        env.parked_at = Some(k);
                        self.parked.push(env);
                        self.attrib_locals(thread, local_hits);
                        shared
                            .node
                            .as_ref()
                            .expect("clustered barriers require a node link")
                            .barrier_arrive(k);
                        return;
                    }
                    match shared.barriers.arrive(k) {
                        BarrierArrival::Completes => {
                            // Non-clustered path: every shard is owned
                            // here (single process, or a single-node
                            // cluster — neither performs handoffs away
                            // from itself), so the fan-out never routes
                            // over a link.
                            for s in 0..shared.total_shards {
                                shared.send(s, Msg::BarrierRelease { idx: k });
                            }
                            // The completing task passes straight through.
                            continue;
                        }
                        BarrierArrival::AlreadyOpen => continue,
                        BarrierArrival::Parks => {
                            if let Some(o) = &self.obs {
                                o.event(EventKind::BarrierPark, env.thread.0 as u64, k as u64, 0);
                            }
                            self.attrib_park(thread);
                            env.parked_at = Some(k);
                            self.parked.push(env);
                            self.attrib_locals(thread, local_hits);
                            return;
                        }
                    }
                }
                Op::Read(a) => (a, None),
                Op::Write(a, v) => (a, Some(v)),
            };
            let home = shared.placement.home_of(addr);

            if home == me {
                if arrival_access {
                    self.counters.flow.migrations += 1;
                    arrival_access = false;
                } else {
                    self.counters.flow.local_accesses += 1;
                    local_hits += 1;
                }
                self.track(&mut env, home);
                reply = self.serve(addr, write_value);
                self.clock += 1;
                self.pool.touch(env.thread, self.clock);
                budget -= 1;
                if budget == 0 {
                    // Quantum exhausted: round-robin with co-resident
                    // contexts. The unconsumed reply is register state.
                    env.pending_reply = reply.take();
                    self.runq.push_back(env);
                    self.attrib_locals(thread, local_hits);
                    return;
                }
                continue;
            }

            debug_assert!(!arrival_access, "a migration lands at its access's home");
            let kind = if write_value.is_some() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // The envelope's own scheme decides: no shared state, no
            // lock — the simulator's exact per-thread decision
            // sequence (decide *before* the run-end observation it
            // triggers).
            let decision = env.scheme.decide(&DecisionCtx {
                thread: env.thread,
                current: me,
                home,
                native: env.native,
                kind,
                cost: &shared.cost,
            });
            match decision {
                Decision::Migrate => {
                    if me == env.native {
                        self.pool.remove_native(env.thread);
                    } else {
                        self.pool.remove_guest(env.thread);
                        self.obs_occupancy();
                    }
                    let ctx = env.task.context_len();
                    self.counters.context_bytes_sent += ctx;
                    // LUT consult outside the handle borrow; gated so
                    // the obs-off path pays only the branch.
                    let mig_cost = if self.attrib_cost.is_empty() {
                        0
                    } else {
                        self.attrib_cost[home.index()][0]
                    };
                    if let Some(o) = &self.obs {
                        o.migrations_out.bump(1);
                        o.context_bytes_out.bump(ctx);
                        o.event(
                            EventKind::MigrateOut,
                            env.thread.0 as u64,
                            home.index() as u64,
                            ctx,
                        );
                        // Attribution: the migration edge, costed with
                        // the model's migration latency. Deterministic
                        // data (program-order counts) held in timing-
                        // plane storage — never read back by the
                        // deterministic counters.
                        let cell = o.attrib.cell(thread.0, home.index() as u32);
                        cell.migrations.bump(1);
                        cell.context_bytes.bump(ctx);
                        cell.cost.bump(mig_cost);
                    }
                    env.pending_op = Some(op);
                    self.attrib_locals(thread, local_hits);
                    shared.send(home.index(), Msg::Arrive(env));
                    return;
                }
                Decision::Remote => {
                    // decide-then-track, the simulator's order: the
                    // scheme sees the run-end observation only after
                    // deciding the access that ended the run.
                    self.track(&mut env, home);
                    if write_value.is_some() {
                        self.counters.flow.remote_writes += 1;
                    } else {
                        self.counters.flow.remote_reads += 1;
                    }
                    let ra_cost = if self.attrib_cost.is_empty() {
                        0
                    } else {
                        self.attrib_cost[home.index()][if write_value.is_some() { 2 } else { 1 }]
                    };
                    if let Some(o) = &self.obs {
                        let (ctr, ev) = if write_value.is_some() {
                            (&o.remote_writes, EventKind::RemoteWrite)
                        } else {
                            (&o.remote_reads, EventKind::RemoteRead)
                        };
                        ctr.bump(1);
                        o.event(ev, env.thread.0 as u64, home.index() as u64, addr.0);
                        let cell = o.attrib.cell(thread.0, home.index() as u32);
                        if write_value.is_some() {
                            cell.remote_writes.bump(1);
                        } else {
                            cell.remote_reads.bump(1);
                        }
                        cell.cost.bump(ra_cost);
                    }
                    if me != env.native {
                        self.pool.set_guest_state(env.thread, GuestState::Pinned);
                    }
                    self.clock += 1;
                    self.pool.touch(env.thread, self.clock);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.awaiting.insert(token, env);
                    self.attrib_locals(thread, local_hits);
                    shared.send(
                        home.index(),
                        Msg::Request {
                            addr,
                            write: write_value,
                            reply_shard: self.id,
                            token,
                        },
                    );
                    return;
                }
            }
        }
    }

    /// A task finished: flush its final run, record its latency, free
    /// its context, and initiate shutdown if it was the last live task
    /// and the runtime handle has closed.
    fn retire(&mut self, shared: &Shared, mut env: Box<Envelope>) {
        // Flush the final run (the envelope carries the in-progress
        // state; see `track`).
        if let Some((c, len)) = env.run.take() {
            if len > 0 {
                self.finish_run(&mut env, c, len);
            }
        }
        let latency_ns = env.arrival.elapsed().as_nanos() as u64;
        self.counters.task_latency_ns.push(latency_ns);
        if env.native == self.me() {
            self.pool.remove_native(env.thread);
        } else {
            self.pool.remove_guest(env.thread);
            self.obs_occupancy();
        }
        if let Some(o) = &self.obs {
            o.retired.bump(1);
            o.task_latency_ns.record(latency_ns);
            // Dump the network detours into the trace ring (the rings
            // already hold the task's arrivals and migrations), then
            // the retire event closes the route.
            for h in &env.journey.hops {
                o.event(
                    EventKind::JourneyHop,
                    env.thread.0 as u64,
                    (u64::from(h.node) << 32) | u64::from(h.shard),
                    (u64::from(h.cause.code()) << 32) | (h.epoch & 0xFFFF_FFFF),
                );
            }
            o.journey_hops.bump(env.journey.hops.len() as u64);
            o.journey_dropped.bump(u64::from(env.journey.dropped));
            o.event(EventKind::Retire, env.thread.0 as u64, latency_ns, 0);
        }
        match &shared.node {
            // Node mode: completion is cluster-global. The local live
            // count never ran (a task may retire on a node that never
            // saw its submission); the link reports the retirement and
            // the coordinator decides quiesce.
            Some(link) => link.task_retired(),
            None => {
                if shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    shared.initiate_shutdown();
                }
            }
        }
    }
}
