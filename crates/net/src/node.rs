//! The node layer: membership, routing, distributed barriers,
//! cluster-wide quiesce, and fail-fast error recovery.
//!
//! A [`NodeRuntime`] wraps one `em2-rt` [`Runtime`] owning this
//! process's shard range and wires it to its peers:
//!
//! * **Connections.** Every node listens on its spec address; node `j`
//!   dials every `i < j` (with jittered exponential backoff inside the
//!   spec's connect budget — nodes come up in any order) and opens
//!   with `Hello{node, wire_version, topology_digest}`; the acceptor
//!   verifies and answers `HelloAck`. Version or topology mismatch
//!   refuses the connection — two processes that disagree on shard
//!   ownership must not exchange a single shard message.
//! * **Routing.** The runtime hands any message addressed to a shard
//!   it does not own to [`em2_rt::NodeLink::forward`]; the link looks
//!   the current owner up in the epoch-versioned
//!   [`em2_rt::ShardDirectory`], wraps the message
//!   in [`NetMsg::Shard`] (stamped with the sender's epoch) and pushes
//!   it onto the owner peer's
//!   **lock-free egress queue** — the shard worker never touches a
//!   mutex or a socket. One **writer thread per peer** drains that
//!   queue, assigns sequence numbers in pop order, coalesces up to a
//!   bounded window of frames into one flush
//!   ([`crate::transport::FrameTx::send_frames`]), and absorbs the
//!   heartbeat timer into its idle loop (DESIGN.md §11). One **reader
//!   thread per peer** decodes inbound frames and injects them through
//!   [`em2_rt::RemoteInbox`] — the executor's ordinary mailbox/waker
//!   seam; the workers never know a message crossed a process.
//! * **Barriers.** Node 0 is the coordinator: it holds the cluster's
//!   real [`AtomicBarriers`]. Arrivals anywhere park locally and
//!   travel to the coordinator; the quota-meeting arrival triggers a
//!   `BarrierRelease` fan-out, which each node mirrors into its local
//!   hub and parked shards.
//! * **Elastic membership.** Ownership is not static: node 0 also
//!   coordinates **live shard handoffs** (`Prepare → Freeze →
//!   Transfer → Commit`, one at a time). The source freezes the shard
//!   ([`em2_rt::RemoteInbox::freeze_shard`]), ships its heap words,
//!   guest contexts, parked envelopes and scheme state as a
//!   [`FrozenShard`] inside [`NetMsg::HandoffTransfer`]; the
//!   destination installs it and acks; the coordinator bumps the
//!   directory **epoch** and broadcasts the new ownership map.
//!   In-flight frames are epoch-fenced: a node that receives a shard
//!   frame it no longer (or does not yet) expect bounces it back to
//!   the sender for re-route against the updated directory — stale
//!   frames are never silently applied (DESIGN.md §13).
//! * **Quiesce.** Submissions are counted per node and reported on
//!   close (`Closed{submitted}`); every retirement anywhere sends
//!   `Retired`. When all nodes have closed and `retired == submitted`,
//!   the coordinator broadcasts `Quiesce` and every runtime's workers
//!   stop. Because a task retires only after its final access, quiesce
//!   implies no shard message is in flight anywhere (DESIGN.md §9).
//! * **Failure.** Nothing in this module panics or hangs on a sick
//!   cluster (DESIGN.md §10). The first failure a node observes — a
//!   dead send, an EOF without the protocol's goodbye, a checksum or
//!   sequence-gap decode error, a heartbeat deadline, the run
//!   watchdog — is recorded as a typed [`ClusterError`] in the node's
//!   failure slot, the local workers are woken and drained through
//!   [`em2_rt::RemoteInbox::begin_shutdown`], an [`NetMsg::Abort`] is
//!   propagated (to the coordinator, which rebroadcasts), and
//!   [`NodeRuntime::finish`] returns `Err` instead of counters that
//!   never converged.
//!
//! Counter exactness: decisions, counters, and run histograms are
//! per-thread program-order functions (DESIGN.md §7); distribution
//! changes only *where* each access executes, so summing the nodes'
//! [`em2_rt::RtReport`] counters reproduces the single-process run
//! bit-for-bit — `crates/net/tests` pins this for loopback, UDS, and
//! TCP, and `crates/net/tests/chaos.rs` pins that it *stays* true
//! under benign injected faults (delays, duplicates).

use crate::cluster::ClusterSpec;
use crate::error::ClusterError;
use crate::proto::NetMsg;
use crate::transport::{Duplex, FrameRx, FrameTx, Transport};
use em2_engine::AtomicBarriers;
use em2_model::{DetRng, ThreadId};
use em2_placement::Placement;
use em2_rt::mpsc::MpscQueue;
use em2_rt::wire::{FrozenShard, WireMsg, WIRE_VERSION};
use em2_rt::{
    NodeLink, NodeRole, RtConfig, RtReport, Runtime, ShardDirectory, TaskRegistry, TaskSpec,
};
use em2_trace::Workload;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Environment override for the connect budget
/// (`ClusterTimeouts::connect_ms`), so test runs can fail fast without
/// editing every spec string.
pub const CONNECT_TIMEOUT_ENV: &str = "EM2_NET_CONNECT_TIMEOUT_MS";

/// Environment override for the egress coalesce window: `0` forces
/// one frame per flush (the pre-batching wire behavior, for A/B bit-
/// equality smoke runs); anything else keeps the default window.
/// Coalescing never changes which frames cross the wire or their
/// order — only how many share a syscall — so both settings must
/// produce identical counters.
pub const COALESCE_ENV: &str = "EM2_NET_COALESCE";

/// Environment override for the coordinator's per-handoff watchdog
/// budget: a live shard handoff stuck in any phase for longer than
/// this fails the cluster typed ([`ClusterError::Handoff`]) instead of
/// wedging quiesce forever.
pub const HANDOFF_TIMEOUT_ENV: &str = "EM2_NET_HANDOFF_TIMEOUT_MS";

/// Environment override for the epoch-fencing bounce budget: how many
/// times one frame may be re-routed while ownership moves before the
/// run fails typed (a bound on fencing ping-pong, not a hot-path
/// knob — a healthy handoff resolves every bounce in one epoch).
pub const BOUNCE_RETRIES_ENV: &str = "EM2_NET_BOUNCE_RETRIES";

fn handoff_timeout_ms() -> u64 {
    em2_model::env::parse::<u64>(HANDOFF_TIMEOUT_ENV)
        .unwrap_or(5000)
        .max(1)
}

fn bounce_retry_cap() -> u32 {
    em2_model::env::parse::<u32>(BOUNCE_RETRIES_ENV)
        .unwrap_or(16)
        .max(1)
}

/// Frames one writer flush may coalesce (the bounded window that keeps
/// a burst from turning into unbounded latency for the frame at its
/// head).
const COALESCE_FRAMES: usize = 64;

/// Byte bound on one coalesced flush (a window of maximum-size frames
/// must not buffer tens of MiB before the first byte moves).
const COALESCE_BYTES: usize = 256 << 10;

fn coalesce_window() -> usize {
    match em2_model::env::raw(COALESCE_ENV) {
        Some(v) if v.trim() == "0" => 1,
        _ => COALESCE_FRAMES,
    }
}

/// Per-node wire telemetry (atomics: writer threads, readers, and
/// shard workers bump them concurrently). In `frames_tx`/`bytes_tx`
/// (and their rx twins), control frames (heartbeats, aborts, goodbyes)
/// are **excluded** so fault-free counters are identical whether or
/// not heartbeats run; `frames_tx_total`/`bytes_tx_total` count every
/// frame written after the handshake, control included — the honest
/// egress ledger. `flushes_tx` and `egress_hwm` are timing-dependent
/// (like wall clock): how frames pack into flushes and how deep queues
/// get depends on scheduling, so they are telemetry, never part of an
/// agreement check.
#[derive(Default)]
struct WireStats {
    frames_tx: AtomicU64,
    bytes_tx: AtomicU64,
    frames_rx: AtomicU64,
    bytes_rx: AtomicU64,
    /// Inbound frames discarded as sequence-layer duplicates.
    dupes_rx: AtomicU64,
    /// Migration/eviction envelopes shipped to another process.
    arrives_tx: AtomicU64,
    /// Serialized task-context bytes inside those envelopes — the
    /// "context bytes on the wire" the paper's §5 sizing argument is
    /// about.
    context_bytes_tx: AtomicU64,
    /// Coalesced flush batches written (≈ egress syscalls on stream
    /// transports); `flushes_tx < frames_tx` proves frames-per-flush
    /// exceeded one. (`frames_tx_total`/`bytes_tx_total` live on each
    /// [`Peer`] — the writer thread owns that ledger — and are summed
    /// into the snapshot.)
    flushes_tx: AtomicU64,
    /// High-water mark of any peer egress queue's depth.
    egress_hwm: AtomicU64,
}

/// A snapshot of one node's wire telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Frames sent to peers (control frames excluded).
    pub frames_tx: u64,
    /// Payload bytes sent (excluding the 4-byte frame header).
    pub bytes_tx: u64,
    /// Frames received from peers (control frames and duplicates
    /// excluded).
    pub frames_rx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Inbound frames dropped by sequence-number deduplication — zero
    /// on a healthy network; nonzero proves the codec absorbed a
    /// duplicate-delivery fault without disturbing the run.
    pub dupes_rx: u64,
    /// Task envelopes (migrations, evictions, seeds) sent cross-process.
    pub arrives_tx: u64,
    /// Serialized task-context bytes inside sent envelopes.
    pub context_bytes_tx: u64,
    /// Every frame written after the handshake, **control included** —
    /// the total per-peer egress ledger (heartbeats, aborts, goodbyes
    /// all cost wire time even though they are excluded from the
    /// deterministic `frames_tx`).
    pub frames_tx_total: u64,
    /// Payload bytes of every written frame (control included).
    pub bytes_tx_total: u64,
    /// Coalesced flush batches written (≈ egress syscalls on stream
    /// transports). Timing-dependent telemetry, like wall clock.
    pub flushes_tx: u64,
    /// Deepest any peer egress queue got (frames). Timing-dependent.
    pub egress_hwm: u64,
}

impl WireSnapshot {
    /// Element-wise sum (cluster totals); the high-water mark takes
    /// the max — a cluster-wide depth sum would describe no queue.
    pub fn merge(&mut self, o: &WireSnapshot) {
        self.frames_tx += o.frames_tx;
        self.bytes_tx += o.bytes_tx;
        self.frames_rx += o.frames_rx;
        self.bytes_rx += o.bytes_rx;
        self.dupes_rx += o.dupes_rx;
        self.arrives_tx += o.arrives_tx;
        self.context_bytes_tx += o.context_bytes_tx;
        self.frames_tx_total += o.frames_tx_total;
        self.bytes_tx_total += o.bytes_tx_total;
        self.flushes_tx += o.flushes_tx;
        self.egress_hwm = self.egress_hwm.max(o.egress_hwm);
    }
}

/// Cluster-global completion accounting (coordinator only).
struct CoordState {
    closed_nodes: usize,
    submitted: u64,
    retired: u64,
    quiesced: bool,
}

/// Coordinator-only state: the cluster's real barrier hub, the
/// quiesce ledger, and the handoff ledger.
struct Coordinator {
    barriers: AtomicBarriers,
    state: Mutex<CoordState>,
    handoffs: Mutex<HandoffLedger>,
}

/// The handoff currently in flight (the coordinator runs handoffs one
/// at a time: the epoch is a total order of ownership changes, and a
/// single transfer in flight keeps the fencing argument simple).
struct ActiveHandoff {
    hid: u64,
    shard: u32,
    from: u32,
    to: u32,
    /// Which protocol step the handoff is in (`prepare` → `transfer`);
    /// stamped onto any error observed while the handoff is active and
    /// named by the watchdog when a step never completes.
    phase: &'static str,
    started: Instant,
}

/// Coordinator-only handoff ledger: the one in-flight handoff plus the
/// queue of requested-but-not-started ones.
///
/// Lock ordering: the quiesce ledger (`Coordinator::state`) may be
/// held while taking this lock (`maybe_quiesce` checks handoff
/// idleness), never the reverse — `coord_handoff_done` drops this
/// guard before re-checking quiesce.
struct HandoffLedger {
    next_hid: u64,
    active: Option<ActiveHandoff>,
    queue: VecDeque<(u32, u32)>,
}

/// Frames buffered for a shard whose state is in flight toward us:
/// `(from_node, bounce_retries, msg)` tuples replayed after install.
type BufferedFrames = Vec<(usize, u32, WireMsg)>;

/// Per-node fencing state for shards in motion.
struct HandoffState {
    /// Shards this node has been told to expect (`HandoffExpect`)
    /// whose `HandoffTransfer` has not yet installed: inbound frames
    /// for them are buffered here `(from_node, retries, msg)` and
    /// replayed after install, instead of bouncing back and forth
    /// while the state is in flight.
    expecting: HashMap<usize, (u64, BufferedFrames)>,
    /// Frames waiting out a stale local map: bounces proven still in
    /// motion and frames stamped ahead of our epoch. They park here
    /// until the next `EpochUpdate` installs a newer map, then
    /// re-route through it.
    parked_bounces: Vec<(usize, u32, WireMsg)>,
    /// Highest handoff id whose `HandoffTransfer` this node already
    /// installed as the destination. A `HandoffExpect` at or below it
    /// is stale — the transfer it announces beat it here over the
    /// source's connection — and must be dropped: honoring it would
    /// plant an expect entry whose removal (the install) already
    /// happened, a trap that swallows any frame buffered into it.
    done_dest_hid: u64,
}

/// What travels down a peer's egress queue.
enum EgressItem {
    /// An encodable message; the writer assigns its sequence number at
    /// pop time.
    Msg(NetMsg),
    /// Teardown sentinel, pushed by `finish` after everything else:
    /// the writer drains the FIFO up to here, appends [`NetMsg::Bye`]
    /// iff the run was clean, flushes, closes the connection, and
    /// exits.
    Close { bye: bool },
}

/// One peer edge: the egress queue its writer thread drains, the
/// wakeup handshake, and the edge's liveness clocks. The connection's
/// send half is **owned by the writer thread** — no shared send state,
/// so the producer side (`forward`, coordinator logic) is entirely
/// lock-free.
struct Peer {
    /// Main egress lane (lock-free MPSC; the writer is the single
    /// consumer). FIFO push order is exactly the old per-peer mutex's
    /// serialization order, which is what keeps Closed-after-last-
    /// Shard and Bye-last intact (DESIGN.md §11).
    egress: MpscQueue<EgressItem>,
    /// Priority lane: an Abort must jump every frame still queued in
    /// the main lane. Failure-path only — never on the hot path.
    urgent: Mutex<Vec<NetMsg>>,
    /// Main-lane depth in frames (high-water telemetry).
    depth: AtomicU64,
    /// Writer parking handshake: `true` while the writer is committed
    /// to parking. Producers push, then swap this and unpark on
    /// observing `true`; the writer re-checks the queue after setting
    /// it (both SeqCst) — no lost wakeup.
    sleeping: AtomicBool,
    /// The writer thread's handle, registered by the thread itself
    /// before it first sets `sleeping`.
    writer: OnceLock<std::thread::Thread>,
    /// Every frame this edge has written after the handshake (control
    /// included) — the per-peer egress ledger.
    frames_tx: AtomicU64,
    /// Payload bytes this edge has written (control included).
    bytes_tx: AtomicU64,
    /// Milliseconds (since the link epoch) of the last frame sent to /
    /// received from this peer — the writer's idle-heartbeat and
    /// liveness clocks.
    last_tx_ms: AtomicU64,
    last_rx_ms: AtomicU64,
    /// The peer announced a clean close ([`NetMsg::Bye`]); a
    /// subsequent EOF is a shutdown, not a loss.
    bye: AtomicBool,
}

impl Peer {
    fn new() -> Peer {
        Peer {
            egress: MpscQueue::new(),
            urgent: Mutex::new(Vec::new()),
            depth: AtomicU64::new(0),
            sleeping: AtomicBool::new(false),
            writer: OnceLock::new(),
            frames_tx: AtomicU64::new(0),
            bytes_tx: AtomicU64::new(0),
            last_tx_ms: AtomicU64::new(0),
            last_rx_ms: AtomicU64::new(0),
            bye: AtomicBool::new(false),
        }
    }

    /// Unpark the writer if it committed to parking. Lock-free: one
    /// swap, at most one `unpark`.
    fn wake_writer(&self) {
        if self.sleeping.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.writer.get() {
                t.unpark();
            }
        }
    }
}

/// Everything shared between shard workers (via [`NodeLink`]), reader
/// threads, the per-peer writer threads, the watchdog, and the
/// [`NodeRuntime`] handle.
struct Links {
    spec: ClusterSpec,
    me: usize,
    /// The epoch-versioned ownership map — the **same** `Arc` the
    /// local runtime routes with, so an ownership flip during a
    /// handoff is observed atomically by workers, readers, and
    /// writers.
    directory: Arc<ShardDirectory>,
    /// Per-node fencing state for shards in motion.
    handoff: Mutex<HandoffState>,
    /// Indexed by node id; `None` at `me`.
    peers: Vec<Option<Peer>>,
    /// Set once the runtime is up; readers start after that.
    inbox: OnceLock<em2_rt::RemoteInbox>,
    coord: Option<Coordinator>,
    stats: WireStats,
    /// Frames one flush may coalesce (read once from [`COALESCE_ENV`]
    /// at startup; `1` disables batching for A/B smoke runs).
    coalesce_window: usize,
    /// First failure observed on this node; `finish` refuses to report
    /// counters from a cluster that broke mid-run.
    failure: Mutex<Option<ClusterError>>,
    /// The cluster quiesced cleanly: teardown noise (a peer's close
    /// racing our heartbeat) is no longer a failure.
    quiesced: AtomicBool,
    /// The local run is over (set by `finish` after the workers
    /// joined); stops the heartbeat and watchdog threads.
    done: AtomicBool,
    /// Origin of the `last_*_ms` clocks.
    epoch: Instant,
    /// The runtime's timing-plane registry, set after the local
    /// `Runtime` comes up (readers/writers start later, so they always
    /// observe it). Arms per-peer wire telemetry and the crash flight
    /// recorder; `OnceLock` stays empty when obs is off.
    obs: OnceLock<Arc<em2_obs::NodeObs>>,
}

/// Which peer a failure names, for the flight recorder's final event.
fn failure_peer(err: &ClusterError) -> Option<u64> {
    match err {
        ClusterError::PeerLost { node, .. } => Some(*node as u64),
        ClusterError::Codec { from, .. }
        | ClusterError::Aborted { from, .. }
        | ClusterError::Protocol { from, .. } => Some(*from as u64),
        _ => None,
    }
}

impl Links {
    fn inbox(&self) -> &em2_rt::RemoteInbox {
        self.inbox.get().expect("inbox attached before readers run")
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn peer(&self, node: usize) -> &Peer {
        self.peers[node].as_ref().expect("no connection to self")
    }

    /// The failure slot, poison-tolerant: a panicking holder must not
    /// cascade into every other thread's error path.
    fn lock_failure(&self) -> MutexGuard<'_, Option<ClusterError>> {
        self.failure.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record the run's first failure, wake the local workers, and
    /// propagate an [`NetMsg::Abort`] so every other node fails fast
    /// instead of waiting out its deadline. Later failures are
    /// sympathetic noise and only reinforce the shutdown.
    ///
    /// The abort fan-out goes through the peers' **urgent lanes**: an
    /// Abort jumps every data frame still queued in the main egress
    /// FIFO, so a wedged bulk queue cannot delay the cluster's failure
    /// signal. Callable from any thread, including a writer: it only
    /// enqueues, never touches a connection.
    fn fail(&self, err: ClusterError) {
        if self.quiesced.load(Ordering::Acquire) {
            // The run already completed; connection teardown noise
            // cannot invalidate counters that converged.
            return;
        }
        // A failure observed while a shard is mid-handoff names the
        // handoff and its phase — the post-mortem must say *where* the
        // transfer died. `try_lock` because fail() may already hold
        // the ledger (a freeze failure inside the pump).
        let err = match self.handoff_note() {
            Some(note) => err.annotate(&note),
            None => err,
        };
        let first = {
            let mut slot = self.lock_failure();
            if slot.is_some() {
                false
            } else {
                *slot = Some(err.clone());
                true
            }
        };
        if let Some(inbox) = self.inbox.get() {
            inbox.begin_shutdown();
        }
        if !first {
            return;
        }
        // The crash flight recorder: the run's *first* failure dumps
        // the last trace events + a full metrics snapshot to JSONL.
        // Best-effort by design — post-mortem I/O must never mask or
        // delay the abort fan-out below.
        if let Some(obs) = self.obs.get() {
            let peer = failure_peer(&err);
            if let Some(p) = peer {
                obs.node_event(em2_obs::EventKind::PeerDown, p, 0);
            }
            let _ = obs.flight_dump(
                err.kind(),
                &err.to_string(),
                peer,
                Some(&self.wedge_census_json()),
            );
        }
        match &err {
            ClusterError::Aborted { from, reason } => {
                // Sympathetic failure: the origin already knows. The
                // coordinator relays to everyone else; leaves stop.
                if self.me == 0 {
                    for node in 0..self.spec.num_nodes() {
                        if node != self.me && node != *from {
                            self.send_urgent(
                                node,
                                NetMsg::Abort {
                                    reason: reason.clone(),
                                },
                            );
                        }
                    }
                }
            }
            _ => {
                let reason = err.to_string();
                if self.me == 0 {
                    for node in 0..self.spec.num_nodes() {
                        if node != self.me {
                            self.send_urgent(
                                node,
                                NetMsg::Abort {
                                    reason: reason.clone(),
                                },
                            );
                        }
                    }
                } else {
                    self.send_urgent(0, NetMsg::Abort { reason });
                }
            }
        }
    }

    /// Best-effort control send: consumes a sequence number on
    /// Enqueue one message on a peer's main egress FIFO and wake its
    /// writer. This is the whole hot path for a sender: one lock-free
    /// push plus at most one `unpark` — no mutex, no syscall, no
    /// blocking on a slow peer. A dead connection is the **writer's**
    /// discovery (it records the failure); producers cannot fail.
    fn send_to(&self, node: usize, msg: NetMsg) {
        let peer = self.peer(node);
        let d = peer.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.egress_hwm.fetch_max(d, Ordering::Relaxed);
        peer.egress.push(EgressItem::Msg(msg));
        peer.wake_writer();
    }

    /// Queue-jumping control send: the writer drains the urgent lane
    /// before the main FIFO, so an [`NetMsg::Abort`] overtakes any
    /// backlog of data frames. Best-effort (a missing or dead peer is
    /// ignored) and never counted toward deterministic telemetry —
    /// the failure path must not recurse into `fail`.
    fn send_urgent(&self, node: usize, msg: NetMsg) {
        let Some(peer) = self.peers[node].as_ref() else {
            return;
        };
        peer.urgent
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(msg);
        peer.wake_writer();
    }

    fn snapshot(&self) -> WireSnapshot {
        let (mut frames_total, mut bytes_total) = (0u64, 0u64);
        for p in self.peers.iter().flatten() {
            frames_total += p.frames_tx.load(Ordering::Relaxed);
            bytes_total += p.bytes_tx.load(Ordering::Relaxed);
        }
        WireSnapshot {
            frames_tx: self.stats.frames_tx.load(Ordering::Relaxed),
            bytes_tx: self.stats.bytes_tx.load(Ordering::Relaxed),
            frames_rx: self.stats.frames_rx.load(Ordering::Relaxed),
            bytes_rx: self.stats.bytes_rx.load(Ordering::Relaxed),
            dupes_rx: self.stats.dupes_rx.load(Ordering::Relaxed),
            arrives_tx: self.stats.arrives_tx.load(Ordering::Relaxed),
            context_bytes_tx: self.stats.context_bytes_tx.load(Ordering::Relaxed),
            frames_tx_total: frames_total,
            bytes_tx_total: bytes_total,
            flushes_tx: self.stats.flushes_tx.load(Ordering::Relaxed),
            egress_hwm: self.stats.egress_hwm.load(Ordering::Relaxed),
        }
    }

    // ---------------------------------------------- coordinator logic

    fn coord(&self) -> &Coordinator {
        self.coord.as_ref().expect("only node 0 coordinates")
    }

    fn coord_lock(&self) -> MutexGuard<'_, CoordState> {
        // Poison-tolerant: the ledger is monotone counters, never
        // half-updated, so a panicking holder leaves a usable state.
        self.coord().state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn coord_barrier_arrive(&self, k: usize) {
        if self.coord().barriers.arrive(k) == em2_engine::BarrierArrival::Completes {
            for node in 0..self.spec.num_nodes() {
                if node != self.me {
                    self.send_to(node, NetMsg::BarrierRelease { k: k as u32 });
                }
            }
            self.inbox().release_barrier(k);
        }
    }

    fn coord_retired(&self) {
        let mut st = self.coord_lock();
        st.retired += 1;
        self.maybe_quiesce(&mut st);
    }

    fn coord_closed(&self, submitted: u64) -> Result<(), ClusterError> {
        let mut st = self.coord_lock();
        st.closed_nodes += 1;
        if st.closed_nodes > self.spec.num_nodes() {
            return Err(ClusterError::Protocol {
                from: self.me,
                detail: "more Closed messages than nodes".into(),
            });
        }
        st.submitted += submitted;
        self.maybe_quiesce(&mut st);
        Ok(())
    }

    /// Declare cluster quiesce exactly once, when every node has
    /// closed admission and every submitted task has retired. The
    /// gate order matters: `retired` may transiently exceed the
    /// `submitted` sum while some node's `Closed` is still queued, so
    /// the count comparison is only meaningful after all closes.
    fn maybe_quiesce(&self, st: &mut CoordState) {
        if st.quiesced || st.closed_nodes < self.spec.num_nodes() || st.retired != st.submitted {
            return;
        }
        // A frozen shard in transit holds heap words and possibly
        // parked envelopes; the cluster is not done until every
        // requested handoff has committed. (Lock order: quiesce state
        // → handoff ledger, here and everywhere.)
        {
            let lg = self.coord_handoffs();
            if lg.active.is_some() || !lg.queue.is_empty() {
                return;
            }
        }
        st.quiesced = true;
        self.quiesced.store(true, Ordering::Release);
        for node in 0..self.spec.num_nodes() {
            if node != self.me {
                self.send_to(node, NetMsg::Quiesce);
            }
        }
        self.inbox().begin_shutdown();
    }

    // ---------------------------------------------- handoff protocol

    /// The per-node fencing state, poison-tolerant.
    fn lock_handoff(&self) -> MutexGuard<'_, HandoffState> {
        self.handoff.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The coordinator's handoff ledger, poison-tolerant.
    fn coord_handoffs(&self) -> MutexGuard<'_, HandoffLedger> {
        self.coord()
            .handoffs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// If a handoff is active (or this node is mid-receive), a note
    /// naming it for error annotation. `try_lock` everywhere: this
    /// runs on the failure path, possibly under the very locks it
    /// inspects.
    fn handoff_note(&self) -> Option<String> {
        if let Some(c) = self.coord.as_ref() {
            if let Ok(lg) = c.handoffs.try_lock() {
                if let Some(a) = lg.active.as_ref() {
                    return Some(format!(
                        "during shard handoff of shard {} (node {} -> node {}), phase {}",
                        a.shard, a.from, a.to, a.phase
                    ));
                }
            }
        }
        if let Ok(hs) = self.handoff.try_lock() {
            if let Some(&shard) = hs.expecting.keys().next() {
                return Some(format!(
                    "while awaiting the frozen state of shard {shard} (handoff transfer phase)"
                ));
            }
        }
        None
    }

    /// Route one shard-addressed message by the current directory:
    /// deliver locally if this node owns it (ownership can flip toward
    /// us between enqueue and here), otherwise ship it to the owner
    /// stamped with our epoch and the frame's re-route count.
    fn route_shard(&self, to: usize, retries: u32, msg: WireMsg) {
        // Epoch *before* owner: `ShardDirectory::install` publishes
        // the owners before the epoch, so reading in the opposite
        // order guarantees the stamp is never newer than the map that
        // chose the route. The receiver's fence relies on that: a
        // stamp ahead of the receiver's map then proves a committed
        // epoch the receiver has not installed yet, so the receiver
        // can safely park the frame until that `EpochUpdate` lands —
        // a stamp newer than any real commit would make it park on an
        // update that never arrives.
        let epoch = self.directory.epoch();
        let owner = self.directory.owner_of(to) as usize;
        if owner == self.me {
            if let Err(e) = self.inbox().deliver(to, retries, msg) {
                self.fail(ClusterError::Codec {
                    from: self.me,
                    detail: format!("undeliverable local message for shard {to}: {e}"),
                });
            }
            return;
        }
        if let WireMsg::Arrive(_) = &msg {
            self.stats.arrives_tx.fetch_add(1, Ordering::Relaxed);
            self.stats
                .context_bytes_tx
                .fetch_add(msg.context_payload_len() as u64, Ordering::Relaxed);
        }
        self.send_to(
            owner,
            NetMsg::Shard {
                to: to as u32,
                epoch,
                retries,
                msg,
            },
        );
    }

    /// Re-route every frame parked on a stale ownership map — called
    /// after an `EpochUpdate` (or, on the coordinator, a local commit)
    /// installs the map the frames were waiting for.
    fn drain_parked_bounces(&self) {
        let parked = std::mem::take(&mut self.lock_handoff().parked_bounces);
        for (shard, retries, msg) in parked {
            self.route_shard(shard, retries, msg);
        }
    }

    /// One-line census of everything that can hold cluster quiesce
    /// open on this node — the watchdogs report it so a wedged run
    /// names its stuck frame instead of timing out mute.
    fn wedge_census(&self) -> String {
        let b = self.inbox.get().map(|i| i.backlog()).unwrap_or_default();
        let (parked, expecting) = {
            let hs = self.lock_handoff();
            (
                hs.parked_bounces
                    .iter()
                    .map(|(s, r, _)| format!("shard {s} (retries {r})"))
                    .collect::<Vec<_>>(),
                hs.expecting.keys().copied().collect::<Vec<_>>(),
            )
        };
        let coord = if self.me == 0 {
            let st = self.coord_lock();
            format!(
                "; quiesce ledger: {}/{} nodes closed, {}/{} retired",
                st.closed_nodes,
                self.spec.num_nodes(),
                st.retired,
                st.submitted
            )
        } else {
            String::new()
        };
        format!(
            "node {}: {} runnable, {} parked at barriers, {} awaiting replies, \
             {} stalled on admission ({} shards busy); parked frames: [{}], \
             expecting: {:?}, epoch {}{}",
            self.me,
            b.runnable,
            b.parked_barrier,
            b.awaiting_reply,
            b.stalled_admission,
            b.skipped_shards,
            parked.join(", "),
            expecting,
            self.directory.epoch(),
            coord
        )
    }

    /// The same census as one machine-readable JSON line, for the
    /// crash flight recorder. `try_lock` everywhere: `fail` invokes
    /// this under whatever locks the failing thread already holds (the
    /// handoff pump calls `fail` while holding the coordinator's
    /// ledger), so a busy lock is reported as such instead of
    /// deadlocking the dump.
    fn wedge_census_json(&self) -> String {
        use std::fmt::Write as _;
        let b = self.inbox.get().map(|i| i.backlog()).unwrap_or_default();
        let mut s = format!(
            "{{\"kind\":\"census\",\"node\":{},\"runnable\":{},\"parked_barrier\":{},\
             \"awaiting_reply\":{},\"stalled_admission\":{},\"busy_shards\":{},\"epoch\":{}",
            self.me,
            b.runnable,
            b.parked_barrier,
            b.awaiting_reply,
            b.stalled_admission,
            b.skipped_shards,
            self.directory.epoch()
        );
        match self.handoff.try_lock() {
            Ok(hs) => {
                let parked: Vec<String> = hs
                    .parked_bounces
                    .iter()
                    .map(|(sh, r, _)| format!("[{sh},{r}]"))
                    .collect();
                let mut expecting: Vec<usize> = hs.expecting.keys().copied().collect();
                expecting.sort_unstable();
                let expecting: Vec<String> = expecting.iter().map(|sh| sh.to_string()).collect();
                let _ = write!(
                    s,
                    ",\"parked_frames\":[{}],\"expecting\":[{}]",
                    parked.join(","),
                    expecting.join(",")
                );
            }
            Err(_) => s.push_str(",\"fence_state\":\"busy\""),
        }
        if let Some(c) = self.coord.as_ref() {
            match c.handoffs.try_lock() {
                Ok(lg) => {
                    match lg.active.as_ref() {
                        Some(a) => {
                            let _ = write!(
                                s,
                                ",\"handoff_active\":{{\"hid\":{},\"shard\":{},\"from\":{},\
                                 \"to\":{},\"phase\":\"{}\"}}",
                                a.hid, a.shard, a.from, a.to, a.phase
                            );
                        }
                        None => s.push_str(",\"handoff_active\":null"),
                    }
                    let _ = write!(s, ",\"handoff_queued\":{}", lg.queue.len());
                }
                Err(_) => s.push_str(",\"handoff_ledger\":\"busy\""),
            }
            match c.state.try_lock() {
                Ok(st) => {
                    let _ = write!(
                        s,
                        ",\"closed_nodes\":{},\"submitted\":{},\"retired\":{}",
                        st.closed_nodes, st.submitted, st.retired
                    );
                }
                Err(_) => s.push_str(",\"quiesce_ledger\":\"busy\""),
            }
        }
        s.push('}');
        s
    }

    /// Freeze `shard` locally and ship its state to `to` — the
    /// source-node half of the Transfer step. Returns `false` when the
    /// handoff cannot proceed (failure already recorded).
    fn freeze_and_ship(&self, hid: u64, shard: usize, to: u32) -> bool {
        if self.directory.owner_of(shard) != self.me as u32 {
            self.fail(ClusterError::Handoff {
                phase: "freeze".into(),
                detail: format!(
                    "node {} was asked to freeze shard {shard}, which it does not own",
                    self.me
                ),
            });
            return false;
        }
        let Some(frozen) = self.inbox().freeze_shard(shard, to) else {
            // The local runtime is already torn down; the run is over.
            return false;
        };
        if let Some(obs) = self.obs.get() {
            let bytes = frozen.encode().len() as u64;
            obs.node_event(em2_obs::EventKind::HandoffFreeze, shard as u64, bytes);
            obs.handoff_freeze(hid, shard as u64, bytes);
        }
        self.send_to(
            to as usize,
            NetMsg::HandoffTransfer {
                hid,
                shard: shard as u32,
                state: Box::new(frozen),
            },
        );
        true
    }

    /// Destination-node half of the Transfer step: install the frozen
    /// state, replay every frame buffered while it was in flight, and
    /// ack the coordinator.
    fn handle_transfer(&self, from_node: usize, hid: u64, shard: usize, state: FrozenShard) {
        if shard >= self.spec.total_shards || state.shard as usize != shard {
            self.fail(ClusterError::Protocol {
                from: from_node,
                detail: format!(
                    "HandoffTransfer for shard {shard} carried state for shard {}",
                    state.shard
                ),
            });
            return;
        }
        match self.inbox().install_shard(state) {
            Ok(_) => {}
            Err(e) => {
                self.fail(ClusterError::Handoff {
                    phase: "transfer".into(),
                    detail: format!(
                        "frozen state for shard {shard} from node {from_node} failed to \
                         install: {e}"
                    ),
                });
                return;
            }
        }
        // Ownership flipped toward us inside install_shard, so frames
        // buffered from now on cannot exist; replay what accumulated
        // while the state was in flight, in arrival order. Recording
        // the hid (same lock hold) lets the Expect handler drop the
        // announcement for this transfer when it loses the race and
        // arrives after us — the coordinator's connection is not
        // ordered with the source's.
        let buffered = {
            let mut hs = self.lock_handoff();
            hs.done_dest_hid = hs.done_dest_hid.max(hid);
            hs.expecting
                .remove(&shard)
                .map(|(_, b)| b)
                .unwrap_or_default()
        };
        let replayed = buffered.len();
        for (from, retries, mut msg) in buffered {
            // A replayed arrival records the detour in its journey —
            // unconditionally, like every hop: journeys are wire
            // state, not obs state (see `em2_rt::wire::Journey`).
            if let WireMsg::Arrive(we) = &mut msg {
                we.journey.push(em2_rt::wire::JourneyHop {
                    shard: shard as u32,
                    node: self.me as u32,
                    epoch: self.directory.epoch(),
                    cause: em2_rt::wire::HopCause::HandoffReplay,
                });
            }
            // The carried re-route count rides through the local
            // delivery: should the shard flip away again before the
            // push lands, the re-forward keeps counting against the
            // frame's bounce budget instead of restarting it.
            if let Err(e) = self.inbox().deliver(shard, retries, msg) {
                self.fail(ClusterError::Codec {
                    from,
                    detail: format!("undeliverable buffered message for shard {shard}: {e}"),
                });
                return;
            }
        }
        if let Some(obs) = self.obs.get() {
            obs.node_event(
                em2_obs::EventKind::HandoffTransfer,
                shard as u64,
                replayed as u64,
            );
            obs.handoff_transfer(hid, shard as u64, replayed as u64, replayed as u64);
        }
        if self.me == 0 {
            self.coord_handoff_done(hid, shard);
        } else {
            self.send_to(
                0,
                NetMsg::HandoffDone {
                    hid,
                    shard: shard as u32,
                },
            );
        }
    }

    /// Coordinator: enqueue a handoff request and start it if the line
    /// is free.
    fn coord_handoff_request(&self, shard: u32, to: u32) {
        let mut lg = self.coord_handoffs();
        lg.queue.push_back((shard, to));
        self.pump_handoffs(&mut lg);
    }

    /// Coordinator: start queued handoffs until one is in flight (or
    /// the queue is empty). Caller holds the ledger.
    fn pump_handoffs(&self, lg: &mut HandoffLedger) {
        while lg.active.is_none() {
            let Some((shard, to)) = lg.queue.pop_front() else {
                return;
            };
            let from = self.directory.owner_of(shard as usize);
            if from == to {
                // Already where it should be (a drain raced a commit,
                // or the request was a no-op). Nothing to move.
                continue;
            }
            let hid = lg.next_hid;
            lg.next_hid += 1;
            lg.active = Some(ActiveHandoff {
                hid,
                shard,
                from,
                to,
                phase: "prepare",
                started: Instant::now(),
            });
            if let Some(obs) = self.obs.get() {
                obs.node_event(em2_obs::EventKind::HandoffPrepare, shard as u64, to as u64);
                obs.handoff_prepare(hid, shard as u64, from as u64, to as u64);
            }
            let epoch = self.directory.epoch();
            // Tell the destination to fence (buffer) frames for the
            // shard before anything ships.
            if to as usize == self.me {
                self.lock_handoff()
                    .expecting
                    .entry(shard as usize)
                    .or_insert((hid, Vec::new()));
            } else {
                self.send_to(
                    to as usize,
                    NetMsg::HandoffExpect {
                        hid,
                        shard,
                        from,
                        epoch,
                    },
                );
            }
            if let Some(a) = lg.active.as_mut() {
                a.phase = "transfer";
            }
            if from as usize == self.me {
                // Coordinator is the source: freeze and ship directly.
                // (fail() inside uses try_lock on this ledger, so
                // holding it here cannot deadlock.)
                if !self.freeze_and_ship(hid, shard as usize, to) {
                    return;
                }
            } else {
                self.send_to(
                    from as usize,
                    NetMsg::HandoffPrepare {
                        hid,
                        shard,
                        to,
                        epoch,
                    },
                );
            }
        }
    }

    /// Coordinator: the destination confirmed the install. Commit —
    /// bump the epoch, broadcast the new ownership map, start the next
    /// queued handoff, and re-check quiesce.
    fn coord_handoff_done(&self, hid: u64, shard: usize) {
        {
            let mut lg = self.coord_handoffs();
            let matches = lg
                .active
                .as_ref()
                .is_some_and(|a| a.hid == hid && a.shard as usize == shard);
            if !matches {
                // A stale or duplicate ack; the watchdog or a failure
                // already retired this handoff.
                return;
            }
            let a = lg.active.take().expect("checked above");
            self.directory.set_owner(shard, a.to);
            let epoch = self.directory.epoch() + 1;
            let owners = self.directory.snapshot();
            let installed = self.directory.install(epoch, &owners);
            debug_assert!(installed, "the coordinator's epoch only moves here");
            if let Some(obs) = self.obs.get() {
                obs.node_event(em2_obs::EventKind::HandoffCommit, shard as u64, epoch);
                obs.handoff_commit(hid);
                obs.set_dir_epoch(epoch);
            }
            for node in 0..self.spec.num_nodes() {
                if node != self.me {
                    self.send_to(
                        node,
                        NetMsg::EpochUpdate {
                            epoch,
                            owners: owners.clone(),
                        },
                    );
                }
            }
            self.pump_handoffs(&mut lg);
        }
        // Ledger dropped before touching the quiesce state (lock
        // order) and before re-routing parked frames (route may fail).
        self.drain_parked_bounces();
        let mut st = self.coord_lock();
        self.maybe_quiesce(&mut st);
    }

    /// A peer refused one of our frames: ownership moved under it.
    /// Park the frame when the bounce proves a future `EpochUpdate`
    /// will re-route it, re-route by our own directory otherwise, and
    /// fail typed if the frame has bounced more times than the
    /// fencing budget allows.
    fn handle_bounce(
        &self,
        from_node: usize,
        to: usize,
        bouncer_epoch: u64,
        retries: u32,
        mut msg: WireMsg,
    ) {
        if to >= self.spec.total_shards {
            self.fail(ClusterError::Protocol {
                from: from_node,
                detail: format!("bounced a frame for shard {to}, which does not exist"),
            });
            return;
        }
        let r = retries + 1;
        if r > bounce_retry_cap() {
            self.fail(ClusterError::Handoff {
                phase: "bounce".into(),
                detail: format!(
                    "a frame for shard {to} was re-routed {r} times without finding an \
                     owner (bounce budget {}; epoch {})",
                    bounce_retry_cap(),
                    self.directory.epoch()
                ),
            });
            return;
        }
        // A bounced arrival records the detour in its journey —
        // unconditionally, like every hop: journeys are wire state,
        // not obs state (see `em2_rt::wire::Journey`).
        if let WireMsg::Arrive(we) = &mut msg {
            we.journey.push(em2_rt::wire::JourneyHop {
                shard: to as u32,
                node: self.me as u32,
                epoch: self.directory.epoch(),
                cause: em2_rt::wire::HopCause::Bounce,
            });
        }
        if let Some(obs) = self.obs.get() {
            obs.node_event(em2_obs::EventKind::HandoffBounce, to as u64, r as u64);
            obs.handoff_bounce(to as u64);
            if let WireMsg::Arrive(we) = &msg {
                // Node-level attribution (reader threads are
                // multi-writer, hence fetch_add rather than the
                // shard-local single-writer bump).
                obs.attrib
                    .cell(we.thread, to as u32)
                    .bounces
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            // Park only on *proof* that a future `EpochUpdate` will
            // drain the frame — the bouncer's epoch stamp supplies it.
            // Stamp ahead of our map: we are behind, the catch-up
            // broadcast is in flight. Stamp equal to our map while our
            // map names the bouncer: the refusal can only come from an
            // uncommitted freeze flip (same epoch, different owner),
            // so that handoff's commit is still pending. Anything
            // else re-routes by our own directory — in particular a
            // bounce *older* than our map: a shard can return to a
            // previous owner (rolling restart), so "my map still names
            // the bouncer" alone is no evidence of staleness on our
            // side, and parking on it stranded frames forever when the
            // stale bounce arrived after the run's last epoch bump.
            // All of it under the handoff lock, which serializes
            // against `drain_parked_bounces`: an `EpochUpdate`
            // installs the new map before draining, so from behind
            // the lock we either see the updated epoch and re-route
            // below, or our park lands before the drain takes the
            // vec — never just after the drain meant to release it.
            let mut hs = self.lock_handoff();
            let ours = self.directory.epoch();
            if bouncer_epoch > ours
                || (bouncer_epoch == ours && self.directory.owner_of(to) as usize == from_node)
            {
                hs.parked_bounces.push((to, r, msg));
                return;
            }
        }
        self.route_shard(to, r, msg);
    }
}

impl NodeLink for Links {
    fn forward(&self, to_shard: usize, retries: u32, msg: WireMsg) {
        // A dead connection is discovered (and recorded) by the owner
        // peer's writer; the worker notices the failure flag on its
        // next poll. Ownership may have flipped back toward us between
        // the runtime's check and here — route_shard delivers locally
        // in that case instead of bouncing off a confused peer. The
        // runtime passes through the re-route count of the frame it
        // was delivering (0 for its own sends), so the bounce budget
        // survives the local hop.
        self.route_shard(to_shard, retries, msg);
    }

    fn forward_many(&self, msgs: Vec<(usize, WireMsg)>) {
        // A shard's batch of remote replies: enqueue every message in
        // order, then wake each destination writer once — one unpark
        // for the whole batch instead of one per frame, and the frames
        // land in the writer's window together, so they coalesce into
        // one flush. Epoch read before the owner loads — same
        // stamp-not-newer-than-route rule as `route_shard`.
        let epoch = self.directory.epoch();
        let mut woken: Vec<usize> = Vec::new();
        let mut local: Vec<(usize, WireMsg)> = Vec::new();
        for (to_shard, msg) in msgs {
            let owner = self.directory.owner_of(to_shard) as usize;
            if owner == self.me {
                // Flipped toward us mid-batch; deliver after the
                // remote pushes so the batch's wire frames still
                // coalesce.
                local.push((to_shard, msg));
                continue;
            }
            if let WireMsg::Arrive(_) = &msg {
                self.stats.arrives_tx.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .context_bytes_tx
                    .fetch_add(msg.context_payload_len() as u64, Ordering::Relaxed);
            }
            let peer = self.peer(owner);
            let d = peer.depth.fetch_add(1, Ordering::Relaxed) + 1;
            self.stats.egress_hwm.fetch_max(d, Ordering::Relaxed);
            peer.egress.push(EgressItem::Msg(NetMsg::Shard {
                to: to_shard as u32,
                epoch,
                retries: 0,
                msg,
            }));
            if !woken.contains(&owner) {
                woken.push(owner);
            }
        }
        for owner in woken {
            self.peer(owner).wake_writer();
        }
        for (to_shard, msg) in local {
            if let Err(e) = self.inbox().deliver(to_shard, 0, msg) {
                self.fail(ClusterError::Codec {
                    from: self.me,
                    detail: format!("undeliverable local message for shard {to_shard}: {e}"),
                });
            }
        }
    }

    fn barrier_arrive(&self, k: usize) {
        if self.me == 0 {
            self.coord_barrier_arrive(k);
        } else {
            self.send_to(0, NetMsg::BarrierArrive { k: k as u32 });
        }
    }

    fn task_retired(&self) {
        if self.me == 0 {
            self.coord_retired();
        } else {
            self.send_to(0, NetMsg::Retired);
        }
    }

    fn node_closed(&self, submitted: u64) {
        if self.me == 0 {
            if let Err(e) = self.coord_closed(submitted) {
                self.fail(e);
            }
        } else {
            self.send_to(0, NetMsg::Closed { submitted });
        }
    }
}

/// One reader thread: drain a peer connection into the runtime.
/// Returns on clean EOF (after the peer's [`NetMsg::Bye`] or the
/// cluster's quiesce) or after recording a failure.
fn reader_loop(links: &Links, from_node: usize, mut rx: Box<dyn FrameRx>) {
    // The handshake frame consumed sequence 0 in each direction.
    let mut expected_seq: u64 = 1;
    let peer = links.peer(from_node);
    loop {
        let frame = match rx.recv_frame() {
            Ok(Some(f)) => f,
            Ok(None) => {
                let clean = peer.bye.load(Ordering::Acquire)
                    || links.quiesced.load(Ordering::Acquire)
                    || links.done.load(Ordering::Acquire);
                if !clean {
                    links.fail(ClusterError::PeerLost {
                        node: from_node,
                        detail: "connection closed without a goodbye".into(),
                    });
                }
                return;
            }
            Err(e) => {
                if !links.done.load(Ordering::Acquire) {
                    links.fail(ClusterError::PeerLost {
                        node: from_node,
                        detail: format!("receive failed: {e}"),
                    });
                }
                return;
            }
        };
        peer.last_rx_ms.store(links.now_ms(), Ordering::Relaxed);
        let (seq, msg) = match NetMsg::decode(&frame) {
            Ok(x) => x,
            Err(e) => {
                links.fail(ClusterError::Codec {
                    from: from_node,
                    detail: e.to_string(),
                });
                return;
            }
        };
        if seq < expected_seq {
            // A replayed frame: its sequence was already consumed, so
            // dropping it is exactly once-delivery — this is why
            // duplicate faults leave the E12 sum bit-equal.
            links.stats.dupes_rx.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if seq > expected_seq {
            links.fail(ClusterError::Codec {
                from: from_node,
                detail: format!(
                    "sequence gap from node {from_node}: expected {expected_seq}, got {seq} — \
                     at least one frame was lost"
                ),
            });
            return;
        }
        expected_seq += 1;
        if !msg.is_control() {
            links.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
            links
                .stats
                .bytes_rx
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        match msg {
            NetMsg::Shard {
                to,
                epoch,
                retries,
                msg,
            } => {
                let to = to as usize;
                if to >= links.spec.total_shards {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: format!("sent a message for shard {to}, which does not exist"),
                    });
                    return;
                }
                // Epoch fencing. Fast path: we own the shard, deliver.
                // Otherwise re-check under the fencing lock — an
                // install racing this frame either flips ownership
                // before our check or still holds the `expecting`
                // entry we buffer into. A frame for a shard we neither
                // own nor expect is fenced by its epoch stamp, which
                // decides *who* is stale. A stamp at or behind our map
                // means the sender routed by an old world: bounce the
                // frame back for re-route — never silently applied or
                // dropped. A stamp *ahead* of our map means *we* are
                // the laggard — the stamp is never newer than the map
                // that chose the route (senders read epoch before
                // owner; installs publish owners before epoch), so a
                // commit we have not seen exists and its `EpochUpdate`
                // broadcast is already in flight toward us. Park the
                // frame with the other map-lagged traffic and re-route
                // it when the update lands: a bounce round trip could
                // teach the cluster nothing we are not already about
                // to learn, and would burn the frame's retry budget on
                // our slowness. Both decisions happen under the
                // handoff lock — `EpochUpdate` installs the new map
                // before draining the parked frames, so a park cannot
                // slip in behind the drain that was meant to release
                // it.
                let deliver = if links.directory.owner_of(to) as usize == links.me {
                    true
                } else {
                    let mut hs = links.lock_handoff();
                    if links.directory.owner_of(to) as usize == links.me {
                        true
                    } else {
                        // Our epoch, read right after the ownership
                        // check: no install can flip this shard toward
                        // us in between (a grant always lands through
                        // `install_shard` first, guarded by the
                        // expecting entry), so the pair "epoch `ours`,
                        // not the owner" is a true statement about one
                        // instant — the bounce below stamps it so the
                        // sender can reason from it.
                        let ours = links.directory.epoch();
                        if let Some((_hid, buf)) = hs.expecting.get_mut(&to) {
                            buf.push((from_node, retries, msg));
                            continue;
                        } else if epoch > ours {
                            hs.parked_bounces.push((to, retries, msg));
                            continue;
                        } else {
                            drop(hs);
                            links.send_to(
                                from_node,
                                NetMsg::Bounce {
                                    to: to as u32,
                                    epoch: ours,
                                    retries,
                                    msg,
                                },
                            );
                            continue;
                        }
                    }
                };
                debug_assert!(deliver);
                if let Err(e) = links.inbox().deliver(to, retries, msg) {
                    links.fail(ClusterError::Codec {
                        from: from_node,
                        detail: format!("undeliverable message: {e}"),
                    });
                    return;
                }
            }
            NetMsg::BarrierArrive { k } => {
                if links.me != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "sent BarrierArrive to a non-coordinator".into(),
                    });
                    return;
                }
                links.coord_barrier_arrive(k as usize);
            }
            NetMsg::BarrierRelease { k } => {
                links.inbox().release_barrier(k as usize);
            }
            NetMsg::Retired => {
                if links.me != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "sent Retired to a non-coordinator".into(),
                    });
                    return;
                }
                links.coord_retired();
            }
            NetMsg::Closed { submitted } => {
                if links.me != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "sent Closed to a non-coordinator".into(),
                    });
                    return;
                }
                if let Err(e) = links.coord_closed(submitted) {
                    links.fail(e);
                    return;
                }
            }
            NetMsg::Quiesce => {
                links.quiesced.store(true, Ordering::Release);
                links.inbox().begin_shutdown();
                // Keep reading to EOF so the close is clean.
            }
            NetMsg::Heartbeat => {
                // Pure liveness: `last_rx_ms` is already refreshed.
            }
            NetMsg::Abort { reason } => {
                links.fail(ClusterError::Aborted {
                    from: from_node,
                    reason,
                });
                return;
            }
            NetMsg::Bye => {
                peer.bye.store(true, Ordering::Release);
                // EOF follows; fall through to the clean-close path.
            }
            NetMsg::HandoffRequest { shard, to } => {
                if links.me != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "sent HandoffRequest to a non-coordinator".into(),
                    });
                    return;
                }
                if shard as usize >= links.spec.total_shards
                    || to as usize >= links.spec.num_nodes()
                {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: format!(
                            "requested a handoff of shard {shard} to node {to}, which is \
                             outside the cluster"
                        ),
                    });
                    return;
                }
                links.coord_handoff_request(shard, to);
            }
            NetMsg::HandoffPrepare {
                hid,
                shard,
                to,
                epoch: _,
            } => {
                if from_node != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "sent HandoffPrepare without being the coordinator".into(),
                    });
                    return;
                }
                if shard as usize >= links.spec.total_shards
                    || to as usize >= links.spec.num_nodes()
                {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: format!("HandoffPrepare names shard {shard} / node {to}"),
                    });
                    return;
                }
                // Failures are recorded inside; nothing more to do
                // here either way.
                let _ = links.freeze_and_ship(hid, shard as usize, to);
            }
            NetMsg::HandoffExpect {
                hid,
                shard,
                from: _,
                epoch: _,
            } => {
                if from_node != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "sent HandoffExpect without being the coordinator".into(),
                    });
                    return;
                }
                let shard = shard as usize;
                if shard >= links.spec.total_shards {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: format!("HandoffExpect names shard {shard}"),
                    });
                    return;
                }
                // The Transfer travels on a different connection (the
                // source node's) and may have installed already — in
                // which case this Expect is stale and must be dropped,
                // not planted: its removal (the install) already ran,
                // so the entry would never be taken out and any frame
                // buffered into it would be stranded. Ownership is no
                // guide here (an interleaved EpochUpdate carrying a
                // pre-handoff snapshot can flip the shard away from us
                // again until the commit lands); the handoff id is —
                // the coordinator assigns them serially, so an Expect
                // at or below the last transfer we installed announces
                // the past.
                let mut hs = links.lock_handoff();
                if hid > hs.done_dest_hid {
                    hs.expecting.entry(shard).or_insert((hid, Vec::new()));
                }
            }
            NetMsg::HandoffTransfer { hid, shard, state } => {
                links.handle_transfer(from_node, hid, shard as usize, *state);
            }
            NetMsg::HandoffDone { hid, shard } => {
                if links.me != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "sent HandoffDone to a non-coordinator".into(),
                    });
                    return;
                }
                links.coord_handoff_done(hid, shard as usize);
            }
            NetMsg::EpochUpdate { epoch, owners } => {
                if from_node != 0 {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: "broadcast EpochUpdate without being the coordinator".into(),
                    });
                    return;
                }
                if owners.len() != links.spec.total_shards {
                    links.fail(ClusterError::Protocol {
                        from: from_node,
                        detail: format!(
                            "EpochUpdate covers {} shards, cluster has {}",
                            owners.len(),
                            links.spec.total_shards
                        ),
                    });
                    return;
                }
                links.directory.install(epoch, &owners);
                if let Some(obs) = links.obs.get() {
                    obs.set_dir_epoch(epoch);
                }
                links.drain_parked_bounces();
            }
            NetMsg::Bounce {
                to,
                epoch,
                retries,
                msg,
            } => {
                links.handle_bounce(from_node, to as usize, epoch, retries, msg);
            }
            NetMsg::Hello { .. } | NetMsg::HelloAck { .. } => {
                links.fail(ClusterError::Protocol {
                    from: from_node,
                    detail: "re-sent a handshake mid-run".into(),
                });
                return;
            }
        }
    }
}

/// One writer thread: the single consumer of a peer's egress queues
/// and the sole owner of the connection's send half and its sequence
/// counter — sequence numbers are assigned in **pop order**, so the
/// wire stream is gap-free by construction no matter how producers
/// raced their pushes (DESIGN.md §11).
///
/// Each wakeup drains the urgent lane first (aborts overtake data),
/// then pops up to `coalesce_window` frames / [`COALESCE_BYTES`] from
/// the main FIFO and writes them as **one flush**
/// ([`FrameTx::send_frames`]). When both lanes go empty the writer
/// parks with a bounded tick and absorbs the old heartbeat thread's
/// job: keep an idle edge warm every `heartbeat_ms` and declare the
/// peer lost after `peer_deadline_ms` of receive silence. The
/// [`EgressItem::Close`] sentinel (pushed by `finish` after the last
/// data frame) drains the FIFO, appends [`NetMsg::Bye`] on a clean
/// run, flushes, closes, and exits — Bye stays last on the wire.
fn writer_loop(links: &Links, node: usize, conn: Box<dyn FrameTx>) {
    let peer = links.peer(node);
    let _ = peer.writer.set(std::thread::current());
    // Per-peer wire telemetry (timing plane; `None` when obs is off).
    // Flush latency is measured around `send_frames` — the exact
    // syscall cost each coalesced batch pays on this edge.
    let pobs = links.obs.get().map(|o| o.register_peer(node as u64));
    let hb = links.spec.timeouts.heartbeat_ms;
    let deadline = links.spec.timeouts.peer_deadline_ms();
    let tick = Duration::from_millis(if hb > 0 { (hb / 4).clamp(1, 50) } else { 200 });
    let window = links.coalesce_window.max(1);
    let mut conn = Some(conn);
    // The handshake frame consumed sequence 0 in this direction.
    let mut next_seq: u64 = 1;
    let mut batch: Vec<Vec<u8>> = Vec::with_capacity(window);
    loop {
        // Urgent lane first: an Abort overtakes any queued data.
        let urgent = std::mem::take(&mut *peer.urgent.lock().unwrap_or_else(|p| p.into_inner()));
        if !urgent.is_empty() {
            if let Some(c) = conn.as_mut() {
                batch.clear();
                for msg in &urgent {
                    let payload = msg.encode(next_seq);
                    next_seq += 1;
                    peer.frames_tx.fetch_add(1, Ordering::Relaxed);
                    peer.bytes_tx
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    batch.push(payload);
                }
                // Best-effort, like the old quiet path: the failure
                // fan-out must not recurse into fail().
                if c.send_frames(&batch).is_ok() {
                    links.stats.flushes_tx.fetch_add(1, Ordering::Relaxed);
                    peer.last_tx_ms.store(links.now_ms(), Ordering::Relaxed);
                } else {
                    conn = None;
                }
            }
            continue;
        }

        // Main lane: pop up to one coalesce window and flush it once.
        batch.clear();
        let mut popped_msgs: u64 = 0;
        let mut bytes: usize = 0;
        let mut close: Option<bool> = None;
        while batch.len() < window && bytes < COALESCE_BYTES {
            match peer.egress.pop() {
                Some(EgressItem::Msg(msg)) => {
                    popped_msgs += 1;
                    // With the connection gone the queue still drains
                    // (and frees) so producers never back up.
                    if conn.is_none() {
                        continue;
                    }
                    let payload = msg.encode(next_seq);
                    next_seq += 1;
                    peer.frames_tx.fetch_add(1, Ordering::Relaxed);
                    peer.bytes_tx
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    if !msg.is_control() {
                        links.stats.frames_tx.fetch_add(1, Ordering::Relaxed);
                        links
                            .stats
                            .bytes_tx
                            .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    }
                    bytes += payload.len();
                    batch.push(payload);
                }
                Some(EgressItem::Close { bye }) => {
                    close = Some(bye);
                    break;
                }
                None => break,
            }
        }
        if popped_msgs > 0 {
            peer.depth.fetch_sub(popped_msgs, Ordering::Relaxed);
        }

        if let Some(bye) = close {
            if let Some(mut c) = conn.take() {
                if bye {
                    let payload = NetMsg::Bye.encode(next_seq);
                    peer.frames_tx.fetch_add(1, Ordering::Relaxed);
                    peer.bytes_tx
                        .fetch_add(payload.len() as u64, Ordering::Relaxed);
                    batch.push(payload);
                }
                if !batch.is_empty() && c.send_frames(&batch).is_ok() {
                    links.stats.flushes_tx.fetch_add(1, Ordering::Relaxed);
                }
                let _ = c.close();
            }
            return;
        }

        if !batch.is_empty() {
            let c = conn
                .as_mut()
                .expect("frames are only encoded with a live conn");
            let t0 = pobs.as_ref().map(|_| Instant::now());
            match c.send_frames(&batch) {
                Ok(()) => {
                    links.stats.flushes_tx.fetch_add(1, Ordering::Relaxed);
                    peer.last_tx_ms.store(links.now_ms(), Ordering::Relaxed);
                    if let (Some(po), Some(t0)) = (&pobs, t0) {
                        po.record_flush(
                            batch.len() as u64,
                            // True wire cost: payload plus the stream
                            // framing header per frame.
                            (bytes + batch.len() * crate::transport::FRAME_HEADER_BYTES) as u64,
                            t0.elapsed().as_nanos() as u64,
                            peer.depth.load(Ordering::Relaxed),
                        );
                    }
                }
                Err(e) => {
                    conn = None;
                    links.fail(ClusterError::PeerLost {
                        node,
                        detail: format!("send failed: {e}"),
                    });
                }
            }
        }
        if popped_msgs > 0 {
            continue;
        }

        // Idle: the heartbeat/liveness duties the dedicated thread
        // used to carry. A heartbeat advances the sequence stream, so
        // a dropped frame surfaces as a gap within one interval even
        // on an otherwise quiet edge.
        if hb > 0
            && conn.is_some()
            && !links.done.load(Ordering::Acquire)
            && !links.quiesced.load(Ordering::Acquire)
        {
            let now = links.now_ms();
            if now.saturating_sub(peer.last_tx_ms.load(Ordering::Relaxed)) >= hb {
                let payload = NetMsg::Heartbeat.encode(next_seq);
                next_seq += 1;
                peer.frames_tx.fetch_add(1, Ordering::Relaxed);
                peer.bytes_tx
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                let hb_batch = [payload];
                match conn.as_mut().expect("checked above").send_frames(&hb_batch) {
                    Ok(()) => {
                        links.stats.flushes_tx.fetch_add(1, Ordering::Relaxed);
                        peer.last_tx_ms.store(now, Ordering::Relaxed);
                    }
                    Err(e) => {
                        conn = None;
                        links.fail(ClusterError::PeerLost {
                            node,
                            detail: format!("send failed: {e}"),
                        });
                    }
                }
            }
            let silent = now.saturating_sub(peer.last_rx_ms.load(Ordering::Relaxed));
            if silent >= deadline {
                links.fail(ClusterError::PeerLost {
                    node,
                    detail: format!("no frames for {silent} ms (heartbeat deadline {deadline} ms)"),
                });
            }
        }

        // Park until a producer wakes us (or the tick elapses — the
        // heartbeat clock needs a bounded sleep). The handshake
        // mirrors the shard mailboxes': commit `sleeping`, re-check
        // both lanes, then park; a producer pushes before swapping
        // `sleeping`, so no wakeup is lost.
        peer.sleeping.store(true, Ordering::SeqCst);
        let lanes_empty = peer.egress.is_empty()
            && peer
                .urgent
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_empty();
        if lanes_empty {
            std::thread::park_timeout(tick);
        }
        peer.sleeping.store(false, Ordering::SeqCst);
    }
}

/// Run-deadline watchdog: if the run neither quiesces nor fails
/// within `run_ms` of [`NodeRuntime::finish`], record a typed timeout
/// (classified by what the local shards are stuck on) and force the
/// shutdown so `finish` returns instead of hanging.
fn watchdog_loop(links: &Links, run_ms: u64) {
    let deadline = Instant::now() + Duration::from_millis(run_ms);
    loop {
        if links.done.load(Ordering::Acquire) || links.quiesced.load(Ordering::Acquire) {
            return;
        }
        if links.lock_failure().is_some() {
            // Already failing; the shutdown is underway. The census
            // still prints under EM2_NET_DEBUG_WEDGE so one failing
            // run shows every node's view, not just the first
            // watchdog's — the node holding the wedged frame is
            // rarely the one whose deadline fires first.
            if em2_model::env::flag("EM2_NET_DEBUG_WEDGE").unwrap_or(false) {
                eprintln!("[em2-net wedge] {}", links.wedge_census());
            }
            return;
        }
        if Instant::now() >= deadline {
            let b = links.inbox.get().map(|i| i.backlog()).unwrap_or_default();
            let detail = format!("local backlog: {}", links.wedge_census());
            // All nodes' deadlines fire within one tick of each other
            // and only the first error is kept, so the debug census
            // prints here too — the loser watchdogs' views would
            // otherwise vanish into the sympathetic-abort shutdown.
            if em2_model::env::flag("EM2_NET_DEBUG_WEDGE").unwrap_or(false) {
                eprintln!("[em2-net wedge] {detail}");
            }
            let err = if b.parked_barrier > 0 {
                ClusterError::BarrierTimeout {
                    waited_ms: run_ms,
                    detail,
                }
            } else {
                ClusterError::QuiesceTimeout {
                    waited_ms: run_ms,
                    detail,
                }
            };
            links.fail(err);
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Handoff watchdog (coordinator only): a handoff stuck in any phase
/// past the [`HANDOFF_TIMEOUT_ENV`] budget fails the cluster typed,
/// naming the handoff and its phase — a SIGKILL'd participant turns
/// into a bounded, explained error instead of a wedged quiesce.
fn handoff_watchdog_loop(links: &Links, timeout_ms: u64) {
    let tick = Duration::from_millis((timeout_ms / 8).clamp(5, 50));
    loop {
        if links.done.load(Ordering::Acquire)
            || links.quiesced.load(Ordering::Acquire)
            || links.lock_failure().is_some()
        {
            return;
        }
        let stuck = {
            let lg = links.coord_handoffs();
            lg.active.as_ref().and_then(|a| {
                (a.started.elapsed() >= Duration::from_millis(timeout_ms)).then(|| {
                    (
                        a.shard,
                        a.from,
                        a.to,
                        a.phase,
                        a.started.elapsed().as_millis(),
                    )
                })
            })
        };
        if let Some((shard, from, to, phase, waited)) = stuck {
            links.fail(ClusterError::Handoff {
                phase: phase.into(),
                detail: format!(
                    "handoff of shard {shard} (node {from} -> node {to}) made no progress \
                     for {waited} ms (budget {timeout_ms} ms)"
                ),
            });
            return;
        }
        std::thread::sleep(tick);
    }
}

/// Everything one node's run produces: the local runtime report plus
/// the wire telemetry. Cluster totals are the per-node counters summed
/// (each access executes on exactly one node; each heap word lives on
/// exactly one node).
#[derive(Debug)]
pub struct NetReport {
    /// This node's runtime report (flow counters, run histogram,
    /// wall clock — counters cover the work *executed here*).
    pub rt: RtReport,
    /// This node's wire telemetry.
    pub wire: WireSnapshot,
    /// This node's id.
    pub node: usize,
    /// Cluster size.
    pub nodes: usize,
    /// Transport the cluster ran on.
    pub transport: &'static str,
    /// The directory epoch at teardown: the cluster's initial epoch
    /// plus the number of committed shard handoffs this node observed.
    pub epoch: u64,
    /// Timing-plane metrics at quiesce (`None` when obs was off).
    /// Strictly telemetry: never part of any agreement comparison.
    pub obs: Option<em2_obs::Snapshot>,
}

/// A live cluster node: the local shard fleet plus its peer links.
pub struct NodeRuntime {
    rt: Option<Runtime>,
    links: Arc<Links>,
    readers: Vec<std::thread::JoinHandle<()>>,
    writers: Vec<std::thread::JoinHandle<()>>,
    handoff_watchdog: Option<std::thread::JoinHandle<()>>,
    node: usize,
    transport: &'static str,
}

fn connect_budget_ms(spec: &ClusterSpec) -> u64 {
    em2_model::env::parse::<u64>(CONNECT_TIMEOUT_ENV).unwrap_or(spec.timeouts.connect_ms)
}

impl NodeRuntime {
    /// Join the cluster as `node` over `transport` and bring the local
    /// shard range up. Callers pass `spec.kind.make()` for the
    /// transport `spec` names; the chaos harness injects
    /// [`crate::chaos::ChaosTransport`] here. `transport.kind()` should
    /// agree with `spec.kind` (it names the transport in reports).
    ///
    /// Blocks until connected to every peer: the handshake tolerates
    /// peers launching in any order within the spec's connect budget
    /// (`connect_timeout_ms=`, overridable via
    /// [`CONNECT_TIMEOUT_ENV`]), retrying with jittered exponential
    /// backoff. `cfg.shards` must equal the spec's cluster-wide shard
    /// count; `registry` must know every task kind the cluster
    /// migrates, and `scheme_factory` / `barrier_quotas` must be
    /// identical on every node (the handshake can only check the
    /// topology).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_transport(
        transport: Box<dyn Transport>,
        spec: ClusterSpec,
        node: usize,
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        registry: TaskRegistry,
        scheme_factory: fn() -> Box<dyn em2_core::decision::DecisionScheme>,
        barrier_quotas: Vec<usize>,
    ) -> Result<NodeRuntime, ClusterError> {
        spec.validate()
            .map_err(|e| ClusterError::Config { detail: e })?;
        if node >= spec.num_nodes() {
            return Err(ClusterError::Config {
                detail: format!("node {node} not in a {}-node cluster", spec.num_nodes()),
            });
        }
        if cfg.shards != spec.total_shards {
            return Err(ClusterError::Config {
                detail: format!(
                    "cfg.shards ({}) != cluster shard count ({})",
                    cfg.shards, spec.total_shards
                ),
            });
        }
        let digest = spec.digest();
        let nodes = spec.num_nodes();
        let budget = Duration::from_millis(connect_budget_ms(&spec).max(1));
        let handshake_deadline = Instant::now() + budget;

        // Accept from higher ids, dial lower ids.
        let expected_inbound = nodes - 1 - node;
        let mut acceptor = if expected_inbound > 0 {
            Some(transport.listen(&spec.nodes[node].addr)?)
        } else {
            None
        };

        let mut conns: Vec<Option<Duplex>> = (0..nodes).map(|_| None).collect();
        for peer in 0..node {
            let mut duplex =
                connect_with_retry(&*transport, &spec.nodes[peer].addr, handshake_deadline)?;
            duplex
                .tx
                .send_frame(
                    &NetMsg::Hello {
                        node: node as u32,
                        wire_version: WIRE_VERSION,
                        topology: digest,
                    }
                    .encode(0),
                )
                .map_err(|e| handshake_err(format!("sending Hello to node {peer}: {e}")))?;
            match recv_handshake(&mut *duplex.rx, handshake_deadline)? {
                NetMsg::HelloAck {
                    node: n,
                    topology: t,
                } if n as usize == peer && t == digest => {}
                other => {
                    return Err(handshake_err(format!(
                        "node {peer} answered {other:?} (topology digest {digest:#x})"
                    )))
                }
            }
            conns[peer] = Some(duplex);
        }
        for _ in 0..expected_inbound {
            let mut duplex = acceptor
                .as_mut()
                .expect("listening")
                .accept_deadline(handshake_deadline)
                .map_err(|e| handshake_err(format!("accepting a peer: {e}")))?;
            let peer = match recv_handshake(&mut *duplex.rx, handshake_deadline)? {
                NetMsg::Hello {
                    node: n,
                    wire_version,
                    topology,
                } => {
                    if wire_version != WIRE_VERSION {
                        return Err(handshake_err(format!(
                            "node {n} speaks wire version {wire_version}, this build {WIRE_VERSION}"
                        )));
                    }
                    if topology != digest {
                        return Err(handshake_err(format!(
                            "node {n} has topology digest {topology:#x}, this node {digest:#x}"
                        )));
                    }
                    let n = n as usize;
                    if n <= node || n >= nodes || conns[n].is_some() {
                        return Err(handshake_err(format!("unexpected Hello from node {n}")));
                    }
                    n
                }
                other => return Err(handshake_err(format!("expected Hello, got {other:?}"))),
            };
            duplex
                .tx
                .send_frame(
                    &NetMsg::HelloAck {
                        node: node as u32,
                        topology: digest,
                    }
                    .encode(0),
                )
                .map_err(|e| handshake_err(format!("answering node {peer}: {e}")))?;
            conns[peer] = Some(duplex);
        }
        drop(acceptor);

        let epoch = Instant::now();
        let mut peers: Vec<Option<Peer>> = Vec::with_capacity(nodes);
        let mut rxs: Vec<(usize, Box<dyn FrameRx>)> = Vec::new();
        let mut txs: Vec<(usize, Box<dyn FrameTx>)> = Vec::new();
        for (i, c) in conns.into_iter().enumerate() {
            match c {
                None => peers.push(None),
                Some(mut d) => {
                    // Clear any handshake receive deadline: run-phase
                    // liveness belongs to heartbeats and the watchdog.
                    let _ = d.rx.set_recv_timeout(None);
                    peers.push(Some(Peer::new()));
                    rxs.push((i, d.rx));
                    txs.push((i, d.tx));
                }
            }
        }
        // The directory starts from the spec's static assignment at
        // the spec's initial epoch; handoffs move it from there. One
        // Arc is shared by the runtime's send path and the link layer.
        let owners: Vec<u32> = (0..spec.total_shards)
            .map(|s| spec.owner_of(s) as u32)
            .collect();
        let directory = Arc::new(ShardDirectory::new(spec.initial_epoch, &owners));
        let links = Arc::new(Links {
            me: node,
            directory: Arc::clone(&directory),
            handoff: Mutex::new(HandoffState {
                expecting: HashMap::new(),
                parked_bounces: Vec::new(),
                done_dest_hid: 0,
            }),
            peers,
            inbox: OnceLock::new(),
            coord: (node == 0).then(|| Coordinator {
                barriers: AtomicBarriers::new(barrier_quotas.clone()),
                state: Mutex::new(CoordState {
                    closed_nodes: 0,
                    submitted: 0,
                    retired: 0,
                    quiesced: false,
                }),
                handoffs: Mutex::new(HandoffLedger {
                    next_hid: 1,
                    active: None,
                    queue: VecDeque::new(),
                }),
            }),
            stats: WireStats::default(),
            coalesce_window: coalesce_window(),
            failure: Mutex::new(None),
            quiesced: AtomicBool::new(false),
            done: AtomicBool::new(false),
            epoch,
            obs: OnceLock::new(),
            spec,
        });

        let rt = Runtime::start_node(
            cfg,
            name,
            placement,
            scheme_factory,
            barrier_quotas,
            NodeRole {
                directory,
                node_id: node as u32,
                clustered_barriers: nodes > 1,
                link: Arc::clone(&links) as Arc<dyn NodeLink>,
            },
        );
        // Arm the timing plane before the reader/writer threads spawn,
        // so every link thread observes the registry (or its absence)
        // consistently.
        if let Some(obs) = rt.obs() {
            obs.set_node(node as u64);
            for (i, p) in links.peers.iter().enumerate() {
                if p.is_some() {
                    obs.register_peer(i as u64);
                    obs.node_event(em2_obs::EventKind::PeerUp, i as u64, 0);
                }
            }
            links.obs.set(obs).expect("obs set once");
        }
        links
            .inbox
            .set(rt.remote_inbox(registry, scheme_factory))
            .ok()
            .expect("inbox set once");

        let kind_name = transport.kind();
        let readers = rxs
            .into_iter()
            .map(|(peer, rx)| {
                let links = Arc::clone(&links);
                std::thread::Builder::new()
                    .name(format!("em2-net-rx-{peer}"))
                    .spawn(move || reader_loop(&links, peer, rx))
                    .expect("spawn reader")
            })
            .collect();
        let writers = txs
            .into_iter()
            .map(|(peer, tx)| {
                let links = Arc::clone(&links);
                std::thread::Builder::new()
                    .name(format!("em2-net-tx-{peer}"))
                    .spawn(move || writer_loop(&links, peer, tx))
                    .expect("spawn writer")
            })
            .collect();

        // The coordinator's handoff watchdog: bounds every handoff
        // phase so a participant that dies mid-transfer (SIGKILL, a
        // dropped Transfer frame) turns into a typed error naming the
        // phase instead of a wedged quiesce.
        let handoff_watchdog = (node == 0 && nodes > 1).then(|| {
            let links = Arc::clone(&links);
            let timeout_ms = handoff_timeout_ms();
            std::thread::Builder::new()
                .name("em2-net-handoff-watchdog".into())
                .spawn(move || handoff_watchdog_loop(&links, timeout_ms))
                .expect("spawn handoff watchdog")
        });

        Ok(NodeRuntime {
            rt: Some(rt),
            links,
            readers,
            writers,
            handoff_watchdog,
            node,
            transport: kind_name,
        })
    }

    /// This node's id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Whether this node coordinates barriers and quiesce.
    pub fn is_coordinator(&self) -> bool {
        self.node == 0
    }

    /// Submit a task native to a locally owned shard, under a
    /// **cluster-unique** [`ThreadId`] (thread ids key guest-context
    /// admission and scheme tables across the whole cluster).
    pub fn submit(&mut self, spec: TaskSpec, thread: ThreadId) {
        self.rt
            .as_mut()
            .expect("node runtime is live")
            .submit_as(spec, thread);
    }

    /// Ask the coordinator to move `shard` to node `to`, live. The
    /// request is asynchronous: it enqueues on the coordinator's
    /// handoff ledger (directly on node 0, via
    /// [`NetMsg::HandoffRequest`] elsewhere) and commits in the
    /// background while the workload keeps running. Watch
    /// [`NodeRuntime::directory_epoch`] advance to observe commits; a
    /// handoff that cannot complete fails the run typed
    /// ([`ClusterError::Handoff`]) within the
    /// [`HANDOFF_TIMEOUT_ENV`] budget. A request naming the current
    /// owner is a no-op.
    ///
    /// # Panics
    /// Panics if `shard` or `to` is outside the cluster — misdirecting
    /// a handoff is a caller bug, not a runtime fault.
    pub fn request_handoff(&self, shard: usize, to: usize) {
        assert!(
            shard < self.links.spec.total_shards,
            "shard {shard} outside the cluster's {} shards",
            self.links.spec.total_shards
        );
        assert!(
            to < self.links.spec.num_nodes(),
            "node {to} outside the {}-node cluster",
            self.links.spec.num_nodes()
        );
        if self.node == 0 {
            self.links.coord_handoff_request(shard as u32, to as u32);
        } else {
            self.links.send_to(
                0,
                NetMsg::HandoffRequest {
                    shard: shard as u32,
                    to: to as u32,
                },
            );
        }
    }

    /// Drain this node: request a handoff of every shard it currently
    /// owns to node `to`, returning how many were requested. The node
    /// stays a full cluster member (it keeps forwarding, bouncing,
    /// and reporting) — it just ends up owning nothing, the state a
    /// rolling restart wants before taking the process down.
    pub fn request_drain(&self, to: usize) -> usize {
        let owned = self.links.directory.owned_shards(self.node as u32);
        for &s in &owned {
            self.request_handoff(s, to);
        }
        owned.len()
    }

    /// The directory epoch as this node currently sees it: the spec's
    /// `initial_epoch` plus the number of committed handoffs observed.
    pub fn directory_epoch(&self) -> u64 {
        self.links.directory.epoch()
    }

    /// Shards this node currently owns (ascending).
    pub fn owned_shards(&self) -> Vec<usize> {
        self.links.directory.owned_shards(self.node as u32)
    }

    /// Whether this node has already recorded a failure (the typed
    /// error itself is returned by [`NodeRuntime::finish`]).
    pub fn has_failed(&self) -> bool {
        self.links.lock_failure().is_some()
    }

    /// This node's live obs registry (`None` when obs is off). Sample
    /// [`em2_obs::NodeObs::snapshot`] from any thread while the run is
    /// in flight — it reads relaxed atomics, never locks the runtime.
    pub fn obs(&self) -> Option<Arc<em2_obs::NodeObs>> {
        self.rt.as_ref().and_then(|rt| rt.obs())
    }

    /// Close admission, run the cluster to quiesce, tear down the
    /// connections, and report.
    ///
    /// On a healthy cluster this returns the node's counters after the
    /// coordinator's quiesce decision. On a sick one — a lost peer, a
    /// corrupt frame, a barrier that never releases, a quiesce that
    /// never arrives within the spec's `timeout_ms` — it returns the
    /// first [`ClusterError`] this node observed, after waking and
    /// draining the local workers. Partial counters are worse than no
    /// counters, so no report ever carries a failed run's numbers.
    ///
    /// # Panics
    /// Panics only if a *task* panicked (the runtime's panic fan-out
    /// re-raises it) — infrastructure failures are all `Err`.
    pub fn finish(mut self) -> Result<NetReport, ClusterError> {
        let rt = self.rt.take().expect("finish called once");
        let run_ms = self.links.spec.timeouts.run_ms;
        let watchdog = (run_ms > 0).then(|| {
            let links = Arc::clone(&self.links);
            std::thread::Builder::new()
                .name("em2-net-watchdog".into())
                .spawn(move || watchdog_loop(&links, run_ms))
                .expect("spawn watchdog")
        });
        // Blocks until the coordinator's quiesce decision reaches the
        // local workers (via our reader threads) — or until fail()
        // forces the shutdown — and the workers exit.
        let report = rt.finish();
        self.links.done.store(true, Ordering::Release);
        if let Some(w) = watchdog {
            let _ = w.join();
        }
        if let Some(w) = self.handoff_watchdog.take() {
            let _ = w.join();
        }
        let failed = self.links.lock_failure().clone();
        // Teardown: push the Close sentinel after everything already
        // queued — each writer drains its FIFO up to the sentinel,
        // appends Bye iff the run was clean (so peers can tell our EOF
        // from a crash; a failed run's missing Bye *is* the failure
        // signal for peers that have not heard the abort yet), flushes
        // once, closes the connection, and exits.
        for p in self.links.peers.iter().flatten() {
            p.egress.push(EgressItem::Close {
                bye: failed.is_none(),
            });
            p.wake_writer();
        }
        let writer_panicked = self.writers.drain(..).any(|w| w.join().is_err());
        // Readers exit when peers close theirs (every node does this
        // after its own finish, deadline-bounded by its own watchdog).
        let reader_panicked = self.readers.drain(..).any(|r| r.join().is_err());
        if let Some(e) = failed {
            return Err(e);
        }
        if writer_panicked || reader_panicked {
            return Err(ClusterError::Io {
                detail: "a link thread panicked without recording a failure".into(),
            });
        }
        Ok(NetReport {
            rt: report,
            wire: self.links.snapshot(),
            node: self.node,
            nodes: self.links.spec.num_nodes(),
            transport: self.transport,
            epoch: self.links.directory.epoch(),
            // Taken after the workers *and* writers joined, so the
            // flush histograms are settled.
            obs: self.links.obs.get().map(|o| o.snapshot()),
        })
    }
}

fn handshake_err(msg: String) -> ClusterError {
    ClusterError::Handshake { detail: msg }
}

/// Receive one handshake message with the remaining connect budget as
/// the read deadline — a peer that connects and then goes silent must
/// not wedge the whole cluster's startup.
fn recv_handshake(rx: &mut dyn FrameRx, deadline: Instant) -> Result<NetMsg, ClusterError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(handshake_err("connect budget exhausted".into()));
    }
    let _ = rx.set_recv_timeout(Some(left));
    let frame = rx
        .recv_frame()
        .map_err(|e| handshake_err(format!("receive failed: {e}")))?
        .ok_or_else(|| handshake_err("peer closed during handshake".into()))?;
    let (seq, msg) = NetMsg::decode(&frame).map_err(|e| handshake_err(e.to_string()))?;
    if seq != 0 {
        return Err(handshake_err(format!(
            "handshake frame carried sequence {seq}, expected 0"
        )));
    }
    Ok(msg)
}

/// Dial `addr` until it answers or the deadline passes, backing off
/// exponentially (1 ms doubling to a 200 ms cap) with deterministic
/// jitter seeded from the address — retries from many nodes spread
/// out instead of stampeding the listener in lockstep.
fn connect_with_retry(
    transport: &dyn Transport,
    addr: &str,
    deadline: Instant,
) -> Result<Duplex, ClusterError> {
    let t0 = Instant::now();
    let mut rng = DetRng::new(addr.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    }));
    let mut delay_ms: u64 = 2;
    loop {
        match transport.connect(addr) {
            Ok(d) => return Ok(d),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ClusterError::ConnectTimeout {
                        addr: addr.to_string(),
                        waited_ms: t0.elapsed().as_millis() as u64,
                        detail: e.to_string(),
                    });
                }
                let jittered = delay_ms / 2 + rng.below(delay_ms / 2 + 1);
                let left = deadline.saturating_duration_since(now);
                std::thread::sleep(Duration::from_millis(jittered).min(left));
                delay_ms = (delay_ms * 2).min(200);
            }
        }
    }
}

/// Replay a traced workload across the cluster over `transport`
/// (`spec.kind.make()`, or a chaos wrapper): this node submits one
/// [`em2_rt::TraceTask`] per workload thread whose **native shard it
/// owns**, under the thread's own id — together the nodes submit
/// exactly the tasks a single-process [`em2_rt::run_workload`] would,
/// and the summed counters must match it bit-for-bit (eviction-free
/// config; the E12 agreement property).
///
/// **Live shard handoffs**: after submitting its tasks, node 0
/// requests each `(shard, to)` in `handoffs` and blocks until every
/// one that actually moves a shard has committed (the directory epoch
/// counts commits) *before* closing admission — so the handoffs
/// demonstrably overlap the workload, and a wedged handoff surfaces as
/// the coordinator watchdog's typed error rather than a hang here.
/// Other nodes ignore `handoffs`; pass `&[]` for a static cluster.
#[allow(clippy::too_many_arguments)]
pub fn run_workload_cluster(
    transport: Box<dyn Transport>,
    spec: ClusterSpec,
    node: usize,
    cfg: RtConfig,
    workload: &Arc<Workload>,
    placement: Arc<dyn Placement>,
    scheme_factory: fn() -> Box<dyn em2_core::decision::DecisionScheme>,
    handoffs: &[(usize, usize)],
) -> Result<NetReport, ClusterError> {
    let quotas = em2_engine::barrier_quotas(workload.threads.iter().map(|t| t.barriers.len()));
    let (first, count) = spec.span(node);
    let initial_epoch = spec.initial_epoch;
    let mut nrt = NodeRuntime::start_with_transport(
        transport,
        spec,
        node,
        cfg,
        workload.name.clone(),
        placement,
        TaskRegistry::for_workload(Arc::clone(workload)),
        scheme_factory,
        quotas,
    )?;
    for t in &workload.threads {
        let native = t.native.index();
        if native >= first && native < first + count {
            nrt.submit(
                TaskSpec::new(
                    Box::new(em2_rt::TraceTask::new(Arc::clone(workload), t.thread)),
                    t.native,
                ),
                t.thread,
            );
        }
    }
    if node == 0 && !handoffs.is_empty() {
        // How many of the requests will actually commit (a request
        // naming the current owner is a no-op): simulate the
        // ownership walk the coordinator will take.
        let mut owners: Vec<usize> = (0..nrt.links.spec.total_shards)
            .map(|s| nrt.links.spec.owner_of(s))
            .collect();
        let mut expected: u64 = 0;
        for &(shard, to) in handoffs {
            if owners[shard] != to {
                owners[shard] = to;
                expected += 1;
            }
        }
        for &(shard, to) in handoffs {
            nrt.request_handoff(shard, to);
        }
        // Wait for the commits before closing admission: quiesce
        // cannot be declared while this node's Closed is unsent, so
        // polling here guarantees every handoff ran *during* the
        // workload. A stuck handoff trips the coordinator watchdog,
        // which flips has_failed and lets finish() report it typed.
        let target = initial_epoch + expected;
        while nrt.directory_epoch() < target && !nrt.has_failed() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    nrt.finish()
}

/// Run a whole cluster inside one process (one OS thread per node
/// driving [`run_workload_cluster`]) — the loopback configuration the
/// E12 experiment and the agreement tests use. With non-empty
/// `handoffs`, node 0 drives them mid-workload (the E13
/// configuration): each `(shard, to)` commits while tasks are still
/// running, and the summed counters must *still* match the
/// single-process run bit-for-bit. Reports are returned in node order;
/// the first node failure is the `Err`.
pub fn run_workload_cluster_in_process(
    spec: &ClusterSpec,
    cfg: &RtConfig,
    workload: &Arc<Workload>,
    placement: &Arc<dyn Placement>,
    scheme_factory: fn() -> Box<dyn em2_core::decision::DecisionScheme>,
    handoffs: &[(usize, usize)],
) -> Result<Vec<NetReport>, ClusterError> {
    let mut reports: Vec<Result<NetReport, ClusterError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.num_nodes())
            .map(|node| {
                let spec = spec.clone();
                let cfg = cfg.clone();
                let workload = Arc::clone(workload);
                let placement = Arc::clone(placement);
                let handoffs: Vec<(usize, usize)> = if node == 0 {
                    handoffs.to_vec()
                } else {
                    Vec::new()
                };
                s.spawn(move || {
                    run_workload_cluster(
                        spec.kind.make(),
                        spec,
                        node,
                        cfg,
                        &workload,
                        placement,
                        scheme_factory,
                        &handoffs,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    });
    let mut out = Vec::with_capacity(reports.len());
    for r in reports.drain(..) {
        out.push(r?);
    }
    Ok(out)
}
