//! The metrics registry: one [`NodeObs`] per runtime, fanned out into
//! per-shard, per-worker, and per-peer handles.
//!
//! Ownership mirrors the runtime's own concurrency structure so no
//! hot-path synchronization is ever *added*: a [`ShardObs`] is mutated
//! only by whichever worker currently polls that shard (its trace ring
//! is an atomic-slot [`Ring`] the flight recorder can read from a
//! failing thread without a lock), a [`WorkerObs`] only by its worker
//! thread, a [`PeerObs`] only by its writer thread. Aggregation
//! ([`NodeObs::snapshot`]) reads everything with relaxed loads; the
//! timing plane tolerates racy reads by definition.
//!
//! Event timestamps on the shard hot path come from a **coarse
//! clock**: the polling worker refreshes the shard's cached
//! nanosecond-since-epoch once per poll ([`ShardObs::refresh_clock`]),
//! and every event recorded within that poll reuses it. One
//! `clock_gettime` per scheduling quantum instead of one per event
//! keeps the enabled-mode record path to a handful of relaxed atomic
//! stores; within-ring ordering is the push order regardless.
//!
//! The **flight recorder** also lives here: [`NodeObs::flight_dump`]
//! collects the newest trace events across all rings, merges them by
//! timestamp, and writes a JSONL post-mortem whose last line names the
//! failure — turning a chaos-suite typed error into a timeline.

use crate::attrib::{AttribTable, OVERFLOW_KEY};
use crate::hist::LogHistogram;
use crate::snapshot::{HandoffTrace, Snapshot};
use crate::trace::{Event, EventKind, Ring};
use crate::{json::JsonObj, ObsConfig};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Single-writer counter increment. The registry's ownership
/// discipline (module docs) gives every hot-path handle exactly one
/// writer at a time, with the ownership handoff synchronized by the
/// runtime's own scheduling structures — so an increment can be a
/// plain load+store pair instead of a locked RMW (`fetch_add`), which
/// costs an order of magnitude more on the migration-heavy paths.
/// Concurrent *readers* (snapshot, flight recorder) stay race-free:
/// both halves are relaxed atomic accesses.
pub trait SingleWriterCounter {
    /// Add `n` (single writer; see trait docs).
    fn bump(&self, n: u64);
    /// Raise to at least `n` (single writer; see trait docs).
    fn bump_max(&self, n: u64);
}

impl SingleWriterCounter for AtomicU64 {
    #[inline]
    fn bump(&self, n: u64) {
        self.store(
            self.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    #[inline]
    fn bump_max(&self, n: u64) {
        if n > self.load(Ordering::Relaxed) {
            self.store(n, Ordering::Relaxed);
        }
    }
}

/// How many merged trace events a flight-recorder dump keeps (newest
/// first wins; the node ring is always included in full).
pub const FLIGHT_EVENTS: usize = 1024;

/// Observability handle of one shard. All counters are relaxed
/// atomics; see the module docs for the ownership discipline.
#[derive(Debug)]
pub struct ShardObs {
    epoch: Instant,
    /// Coarse event clock: ns since epoch, refreshed once per poll.
    now_ns: AtomicU64,
    /// Task arrivals admitted (native + guest).
    pub arrivals: AtomicU64,
    /// Migrated-in guest arrivals.
    pub migrations_in: AtomicU64,
    /// Migrate verdicts executed by tasks running here.
    pub migrations_out: AtomicU64,
    /// Remote-access read verdicts executed by tasks running here.
    pub remote_reads: AtomicU64,
    /// Remote-access write verdicts executed by tasks running here.
    pub remote_writes: AtomicU64,
    /// Remote requests this shard served as the home.
    pub remote_served: AtomicU64,
    /// Serialized context bytes shipped out by migrations.
    pub context_bytes_out: AtomicU64,
    /// Guest admissions into the pool.
    pub guest_admits: AtomicU64,
    /// Guest evictions out of the pool.
    pub evictions: AtomicU64,
    /// Arrivals stalled on a full, pinned guest pool.
    pub stalls: AtomicU64,
    /// Stalled arrivals retried after an eviction.
    pub retries: AtomicU64,
    /// Tasks retired here.
    pub retired: AtomicU64,
    /// Polls of this shard.
    pub polls: AtomicU64,
    /// Mailbox messages drained.
    pub msgs: AtomicU64,
    /// Current guest-pool occupancy.
    pub guest_occupancy: AtomicU64,
    /// Highest guest-pool occupancy seen.
    pub guest_hwm: AtomicU64,
    /// End-to-end task latency (ns).
    pub task_latency_ns: LogHistogram,
    /// Mailbox drain batch sizes (messages per poll).
    pub mailbox_batch: LogHistogram,
    /// The (scheme-thread, home-shard) cost-attribution matrix for
    /// decisions executed on this shard (single writer: the polling
    /// worker; see DESIGN.md §14).
    pub attrib: AttribTable,
    /// Journey hops dumped at task retirement.
    pub journey_hops: AtomicU64,
    /// Journey hops lost to the per-envelope cap.
    pub journey_dropped: AtomicU64,
    ring: Ring,
}

impl ShardObs {
    fn new(epoch: Instant, ring: usize, attrib_slots: usize) -> Self {
        ShardObs {
            epoch,
            now_ns: AtomicU64::new(0),
            arrivals: AtomicU64::new(0),
            migrations_in: AtomicU64::new(0),
            migrations_out: AtomicU64::new(0),
            remote_reads: AtomicU64::new(0),
            remote_writes: AtomicU64::new(0),
            remote_served: AtomicU64::new(0),
            context_bytes_out: AtomicU64::new(0),
            guest_admits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            msgs: AtomicU64::new(0),
            guest_occupancy: AtomicU64::new(0),
            guest_hwm: AtomicU64::new(0),
            task_latency_ns: LogHistogram::new(),
            mailbox_batch: LogHistogram::new(),
            attrib: AttribTable::new(attrib_slots),
            journey_hops: AtomicU64::new(0),
            journey_dropped: AtomicU64::new(0),
            ring: Ring::new(ring),
        }
    }

    /// Refresh the coarse event clock. The polling worker calls this
    /// periodically (every few polls); every event recorded in between
    /// shares the reading (see the module docs). Kept out of the
    /// per-event path because `clock_gettime` can be a real syscall in
    /// containerized environments.
    #[inline]
    pub fn refresh_clock(&self) {
        self.now_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// This shard's trace ring (read its events with [`Ring::events`]).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Record the current guest-pool occupancy (updates the HWM).
    #[inline]
    pub fn set_guest_occupancy(&self, n: u64) {
        self.guest_occupancy.store(n, Ordering::Relaxed);
        self.guest_hwm.bump_max(n);
    }

    /// Append a lifecycle event to this shard's trace ring (coarse
    /// timestamp; a handful of relaxed stores, no lock, no syscall,
    /// no locked RMW — the shard core is the ring's only writer).
    #[inline]
    pub fn event(&self, kind: EventKind, task: u64, a: u64, b: u64) {
        self.ring.push_single_writer(Event {
            ts_ns: self.now_ns.load(Ordering::Relaxed),
            task,
            kind,
            a,
            b,
        });
    }
}

/// Observability handle of one executor worker thread.
#[derive(Debug, Default)]
pub struct WorkerObs {
    /// Steals that found a shard in another worker's queue.
    pub steals: AtomicU64,
    /// Steal attempts (probes of other queues, successful or not).
    pub steal_attempts: AtomicU64,
    /// Condvar parks.
    pub parks: AtomicU64,
    /// Shards polled.
    pub shard_polls: AtomicU64,
}

/// Observability handle of one peer link (owned by its writer thread).
#[derive(Debug)]
pub struct PeerObs {
    /// The peer's node id.
    pub peer: u64,
    /// Batched flush calls issued.
    pub flushes: AtomicU64,
    /// Frames written.
    pub frames: AtomicU64,
    /// Bytes written.
    pub bytes: AtomicU64,
    /// Current egress queue depth (sampled at flush time).
    pub egress_depth: AtomicU64,
    /// Deepest egress queue seen.
    pub egress_depth_hwm: AtomicU64,
    /// Per-flush wire write latency (ns).
    pub flush_ns: LogHistogram,
}

impl PeerObs {
    /// Record one batched flush: `frames`/`bytes` written in `ns`
    /// nanoseconds, with `depth` items still queued behind it.
    #[inline]
    pub fn record_flush(&self, frames: u64, bytes: u64, ns: u64, depth: u64) {
        self.flushes.bump(1);
        self.frames.bump(frames);
        self.bytes.bump(bytes);
        self.flush_ns.record(ns);
        self.egress_depth.store(depth, Ordering::Relaxed);
        self.egress_depth_hwm.bump_max(depth);
    }
}

/// The per-node registry: everything the obs plane knows about one
/// runtime, plus the flight recorder.
#[derive(Debug)]
pub struct NodeObs {
    /// How this registry was configured.
    pub cfg: ObsConfig,
    epoch: Instant,
    node: AtomicU64,
    first_shard: usize,
    shards: Vec<Arc<ShardObs>>,
    workers: Vec<Arc<WorkerObs>>,
    peers: Mutex<Vec<Arc<PeerObs>>>,
    node_ring: Ring,
    seq: AtomicU64,
    flight_taken: AtomicBool,
    /// Node-level attribution cells for events recorded off the shard
    /// hot path (e.g. bounce re-routes observed by reader threads).
    /// Multi-writer: bump with `fetch_add`, not [`SingleWriterCounter`].
    pub attrib: AttribTable,
    dir_epoch: AtomicU64,
    handoffs: Mutex<Vec<HandoffTrace>>,
    stray_bounces: AtomicU64,
}

impl NodeObs {
    /// Stand up a registry for `shards` local shards (globally
    /// numbered from `first_shard`) and `workers` worker threads.
    pub fn new(cfg: ObsConfig, first_shard: usize, shards: usize, workers: usize) -> Arc<Self> {
        let epoch = Instant::now();
        Arc::new(NodeObs {
            shards: (0..shards)
                .map(|_| Arc::new(ShardObs::new(epoch, cfg.ring, cfg.attrib_slots)))
                .collect(),
            workers: (0..workers.max(1))
                .map(|_| Arc::new(WorkerObs::default()))
                .collect(),
            peers: Mutex::new(Vec::new()),
            node_ring: Ring::new(cfg.ring),
            seq: AtomicU64::new(0),
            flight_taken: AtomicBool::new(false),
            node: AtomicU64::new(0),
            attrib: AttribTable::new(cfg.attrib_slots),
            dir_epoch: AtomicU64::new(0),
            handoffs: Mutex::new(Vec::new()),
            stray_bounces: AtomicU64::new(0),
            first_shard,
            epoch,
            cfg,
        })
    }

    /// Set the cluster node id this registry reports as (single-process
    /// runtimes stay 0).
    pub fn set_node(&self, node: u64) {
        self.node.store(node, Ordering::Relaxed);
    }

    /// The registry's epoch (runtime start) — event timestamps count
    /// from here.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Handle of local shard `local_idx` (0-based within this node).
    pub fn shard(&self, local_idx: usize) -> &Arc<ShardObs> {
        &self.shards[local_idx]
    }

    /// Handle of worker `w`.
    pub fn worker(&self, w: usize) -> &Arc<WorkerObs> {
        &self.workers[w.min(self.workers.len() - 1)]
    }

    /// Register (or fetch) the handle for peer node `peer`.
    pub fn register_peer(&self, peer: u64) -> Arc<PeerObs> {
        let mut peers = self.peers.lock().expect("peer registry");
        if let Some(p) = peers.iter().find(|p| p.peer == peer) {
            return Arc::clone(p);
        }
        let p = Arc::new(PeerObs {
            peer,
            flushes: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            egress_depth: AtomicU64::new(0),
            egress_depth_hwm: AtomicU64::new(0),
            flush_ns: LogHistogram::new(),
        });
        peers.push(Arc::clone(&p));
        p
    }

    /// Append a node-level event (peer up/down, failure) to the node
    /// ring. Node events are rare, so they pay for an exact timestamp.
    pub fn node_event(&self, kind: EventKind, a: u64, b: u64) {
        self.node_ring.push(Event {
            ts_ns: self.epoch.elapsed().as_nanos() as u64,
            task: 0,
            kind,
            a,
            b,
        });
    }

    /// Raise the highest directory epoch this node has observed
    /// (monotone; safe from any thread).
    pub fn set_dir_epoch(&self, epoch: u64) {
        self.dir_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn with_handoff(&self, hid: u64, f: impl FnOnce(&mut HandoffTrace)) {
        let mut recs = self.handoffs.lock().expect("handoff ledger");
        let rec = match recs.iter().position(|r| r.hid == hid) {
            Some(i) => &mut recs[i],
            None => {
                recs.push(HandoffTrace {
                    hid,
                    ..HandoffTrace::default()
                });
                recs.last_mut().expect("just pushed")
            }
        };
        f(rec);
    }

    /// The coordinator opened handoff `hid`: re-home `shard` from node
    /// `from` to node `to`. Stamps the Prepare phase.
    pub fn handoff_prepare(&self, hid: u64, shard: u64, from: u64, to: u64) {
        let now = self.now_ns();
        self.with_handoff(hid, |r| {
            r.shard = shard;
            r.from = from;
            r.to = to;
            r.prepare_ns = now;
        });
    }

    /// The source froze the shard and serialized `frozen_bytes` bytes.
    /// Stamps the Freeze phase (source node only — the merge rule
    /// relies on each phase being recorded on exactly one node).
    pub fn handoff_freeze(&self, hid: u64, shard: u64, frozen_bytes: u64) {
        let now = self.now_ns();
        self.with_handoff(hid, |r| {
            r.shard = shard;
            r.freeze_ns = now;
            r.frozen_bytes = frozen_bytes;
        });
    }

    /// The destination installed the frozen state after parking
    /// `buffered` frames and replaying `replayed` of them. Stamps the
    /// Transfer phase (destination node only).
    pub fn handoff_transfer(&self, hid: u64, shard: u64, buffered: u64, replayed: u64) {
        let now = self.now_ns();
        self.with_handoff(hid, |r| {
            r.shard = shard;
            r.transfer_ns = now;
            r.buffered += buffered;
            r.replayed += replayed;
        });
    }

    /// The coordinator committed the new ownership. Stamps the Commit
    /// phase.
    pub fn handoff_commit(&self, hid: u64) {
        let now = self.now_ns();
        self.with_handoff(hid, |r| r.commit_ns = now);
    }

    /// An epoch-fenced frame for `shard` was bounced for re-routing.
    /// Attributed to the newest uncommitted handoff of that shard;
    /// counted loose when no ledger entry matches (a bounce can race
    /// ahead of the coordinator's Prepare on this node).
    pub fn handoff_bounce(&self, shard: u64) {
        let mut recs = self.handoffs.lock().expect("handoff ledger");
        match recs
            .iter_mut()
            .rev()
            .find(|r| r.shard == shard && r.commit_ns == 0)
        {
            Some(r) => r.bounced += 1,
            None => {
                self.stray_bounces.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The hottest `top` home shards by attributed cost, summed over
    /// every shard-level matrix plus the node-level table, hottest
    /// first. Overflow-cell rows are excluded (their home is not a real
    /// shard).
    pub fn placement_heat(&self, top: usize) -> Vec<(u32, u64)> {
        let mut per_home: Vec<(u32, u64)> = Vec::new();
        let tables = self
            .shards
            .iter()
            .map(|sh| &sh.attrib)
            .chain(std::iter::once(&self.attrib));
        for table in tables {
            for (key, counts) in table.entries() {
                if key == OVERFLOW_KEY {
                    continue;
                }
                let cost = counts[counts.len() - 1];
                match per_home.iter_mut().find(|(h, _)| *h == key.1) {
                    Some((_, c)) => *c += cost,
                    None => per_home.push((key.1, cost)),
                }
            }
        }
        per_home.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        per_home.truncate(top);
        per_home
    }

    /// Flatten the registry into a mergeable [`Snapshot`] (relaxed
    /// reads; advances the exporter sequence number).
    pub fn snapshot(&self) -> Snapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut s = Snapshot {
            node: self.node.load(Ordering::Relaxed),
            nodes: 1,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            uptime_ms: self.epoch.elapsed().as_millis() as u64,
            ..Snapshot::default()
        };
        for sh in &self.shards {
            s.arrivals += ld(&sh.arrivals);
            s.migrations_in += ld(&sh.migrations_in);
            s.migrations_out += ld(&sh.migrations_out);
            s.remote_reads += ld(&sh.remote_reads);
            s.remote_writes += ld(&sh.remote_writes);
            s.remote_served += ld(&sh.remote_served);
            s.context_bytes_out += ld(&sh.context_bytes_out);
            s.guest_admits += ld(&sh.guest_admits);
            s.evictions += ld(&sh.evictions);
            s.stalls += ld(&sh.stalls);
            s.retries += ld(&sh.retries);
            s.retired += ld(&sh.retired);
            s.polls += ld(&sh.polls);
            s.msgs += ld(&sh.msgs);
            s.guest_occupancy += ld(&sh.guest_occupancy);
            s.guest_hwm = s.guest_hwm.max(ld(&sh.guest_hwm));
            s.task_latency_ns.merge(&sh.task_latency_ns.snapshot());
            s.mailbox_batch.merge(&sh.mailbox_batch.snapshot());
            s.trace_dropped += sh.ring.dropped();
            for ((t, h), counts) in sh.attrib.entries() {
                s.fold_attrib(t, h, &counts);
            }
            s.attrib_dropped += sh.attrib.overflow_routed();
            s.journey_hops += ld(&sh.journey_hops);
            s.journey_dropped += ld(&sh.journey_dropped);
        }
        for ((t, h), counts) in self.attrib.entries() {
            s.fold_attrib(t, h, &counts);
        }
        s.attrib_dropped += self.attrib.overflow_routed();
        s.attrib_cost = s.attrib.iter().map(|e| e.cost()).sum();
        s.dir_epoch = self.dir_epoch.load(Ordering::Relaxed);
        s.handoff_bounced = self.stray_bounces.load(Ordering::Relaxed);
        for r in self.handoffs.lock().expect("handoff ledger").iter() {
            s.fold_handoff(r);
            if r.commit_ns != 0 {
                s.handoff_commits += 1;
            }
            s.handoff_frozen_bytes += r.frozen_bytes;
            s.handoff_replayed += r.replayed;
            s.handoff_bounced += r.bounced;
        }
        for w in &self.workers {
            s.steals += ld(&w.steals);
            s.steal_attempts += ld(&w.steal_attempts);
            s.worker_parks += ld(&w.parks);
        }
        for p in self.peers.lock().expect("peer registry").iter() {
            s.wire_flushes += ld(&p.flushes);
            s.wire_frames += ld(&p.frames);
            s.wire_bytes += ld(&p.bytes);
            s.egress_depth += ld(&p.egress_depth);
            s.egress_depth_hwm = s.egress_depth_hwm.max(ld(&p.egress_depth_hwm));
            s.flush_ns.merge(&p.flush_ns.snapshot());
        }
        s
    }

    /// The exporter JSONL line for the current state: the node
    /// [`Snapshot`] plus, for small fleets (≤ 64 local shards), a
    /// compact per-shard breakdown.
    pub fn snapshot_json(&self) -> String {
        let snap = self.snapshot();
        let mut line = snap.to_json();
        if self.shards.len() <= 64 {
            let shards = crate::json::array(self.shards.iter().enumerate().map(|(i, sh)| {
                let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
                JsonObj::new()
                    .u64("shard", (self.first_shard + i) as u64)
                    .u64("arrivals", ld(&sh.arrivals))
                    .u64("migrations_out", ld(&sh.migrations_out))
                    .u64("remote", ld(&sh.remote_reads) + ld(&sh.remote_writes))
                    .u64("retired", ld(&sh.retired))
                    .u64("guest_occupancy", ld(&sh.guest_occupancy))
                    .u64("evictions", ld(&sh.evictions))
                    .finish()
            }));
            // Splice the per-shard array into the closed object.
            line.truncate(line.len() - 1);
            line.push_str(",\"shards\":");
            line.push_str(&shards);
            line.push('}');
        }
        line
    }

    fn render_event(global_shard: i64, ev: &Event) -> String {
        let (an, bn) = ev.kind.payload_names();
        let mut obj = JsonObj::new()
            .str("kind", "event")
            .u64("t_ns", ev.ts_ns)
            .str("ev", ev.kind.name());
        if global_shard >= 0 {
            obj = obj.u64("shard", global_shard as u64);
        }
        if ev.task != 0 {
            obj = obj.u64("task", ev.task);
        }
        obj = obj.u64(an, ev.a);
        if bn != "b" || ev.b != 0 {
            obj = obj.u64(bn, ev.b);
        }
        obj.finish()
    }

    /// Dump a post-mortem: a header naming the failure, the full
    /// metrics snapshot, an optional caller-rendered wedge census (one
    /// pre-built JSON line — the net layer passes its
    /// runnable/parked/awaiting/expecting/handoff state here so a crash
    /// dump answers "where is everything stuck" without
    /// `EM2_NET_DEBUG_WEDGE`), and the newest [`FLIGHT_EVENTS`] trace
    /// events merged across every ring — ending with a `fail` event
    /// that names the failing edge. Only the first call dumps (a
    /// cluster failure fans out; one timeline per node is enough);
    /// later calls return `Ok(None)`.
    pub fn flight_dump(
        &self,
        error_kind: &str,
        detail: &str,
        peer: Option<u64>,
        census: Option<&str>,
    ) -> std::io::Result<Option<PathBuf>> {
        if self.flight_taken.swap(true, Ordering::Relaxed) {
            return Ok(None);
        }
        let node = self.node.load(Ordering::Relaxed);
        self.node_event(EventKind::Fail, peer.unwrap_or(u64::MAX), 0);
        let dir = self.cfg.resolved_flight_dir();
        let path = dir.join(format!(
            "em2-flight-node{node}-pid{}.jsonl",
            std::process::id()
        ));
        let mut events: Vec<(i64, Event)> = Vec::new();
        for (i, sh) in self.shards.iter().enumerate() {
            events.extend(
                sh.ring
                    .events()
                    .into_iter()
                    .map(|e| ((self.first_shard + i) as i64, e)),
            );
        }
        events.extend(self.node_ring.events().into_iter().map(|e| (-1i64, e)));
        events.sort_by_key(|(_, e)| e.ts_ns);
        let skip = events.len().saturating_sub(FLIGHT_EVENTS);
        let mut out = String::new();
        out.push_str(
            &JsonObj::new()
                .str("kind", "flight")
                .u64("node", node)
                .u64("pid", std::process::id() as u64)
                .u64("uptime_ms", self.epoch.elapsed().as_millis() as u64)
                .str("error_kind", error_kind)
                .str("detail", detail)
                .u64("events", (events.len() - skip) as u64)
                .u64("events_elided", skip as u64)
                .finish(),
        );
        out.push('\n');
        out.push_str(&self.snapshot_json());
        out.push('\n');
        if let Some(c) = census {
            // One line per JSONL discipline; the caller renders it.
            debug_assert!(!c.contains('\n'));
            out.push_str(c);
            out.push('\n');
        }
        for (shard, ev) in events.iter().skip(skip) {
            out.push_str(&Self::render_event(*shard, ev));
            out.push('\n');
        }
        // The final event: the failure itself, naming the edge.
        let mut fail = JsonObj::new()
            .str("kind", "event")
            .u64("t_ns", self.epoch.elapsed().as_nanos() as u64)
            .str("ev", "fail")
            .str("error_kind", error_kind)
            .str("detail", detail);
        if let Some(p) = peer {
            fail = fail.u64("peer", p);
        }
        out.push_str(&fail.finish());
        out.push('\n');
        let mut f = std::fs::File::create(&path)?;
        f.write_all(out.as_bytes())?;
        f.flush()?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercised() -> Arc<NodeObs> {
        let obs = NodeObs::new(ObsConfig::on(), 8, 4, 2);
        for (i, _) in obs.shards.iter().enumerate() {
            let sh = obs.shard(i);
            sh.arrivals.fetch_add(3, Ordering::Relaxed);
            sh.retired.fetch_add(2, Ordering::Relaxed);
            sh.task_latency_ns.record(1_000 * (i as u64 + 1));
            sh.set_guest_occupancy(i as u64);
            sh.event(EventKind::Arrive, 40 + i as u64, 1, 0);
            sh.event(EventKind::MigrateOut, 40 + i as u64, 2, 81);
        }
        obs.worker(0).steals.fetch_add(5, Ordering::Relaxed);
        obs.register_peer(1).record_flush(10, 4_000, 2_500, 3);
        for (i, _) in obs.shards.iter().enumerate() {
            let cell = obs.shard(i).attrib.cell(2, 8 + i as u32);
            cell.migrations.bump(1);
            cell.cost.bump(30);
        }
        obs.attrib
            .cell(2, 8)
            .bounces
            .fetch_add(1, Ordering::Relaxed);
        obs
    }

    #[test]
    fn snapshot_aggregates_across_handles() {
        let obs = exercised();
        let s = obs.snapshot();
        assert_eq!(s.arrivals, 12);
        assert_eq!(s.retired, 8);
        assert_eq!(s.task_latency_ns.count, 4);
        assert_eq!(s.guest_hwm, 3);
        assert_eq!(s.steals, 5);
        assert_eq!(s.wire_frames, 10);
        assert_eq!(s.egress_depth_hwm, 3);
        assert_eq!(s.attrib_cost, 120, "shard matrices fold into one sum");
        assert_eq!(s.attrib.len(), 4);
        assert_eq!(
            s.attrib[0].counts[5], 1,
            "node-level cells merge with shard cells by key"
        );
    }

    #[test]
    fn handoff_phases_fold_into_the_snapshot() {
        let obs = NodeObs::new(ObsConfig::on(), 0, 2, 1);
        obs.handoff_prepare(5, 1, 0, 1);
        obs.handoff_freeze(5, 1, 640);
        obs.handoff_bounce(1);
        obs.handoff_transfer(5, 1, 3, 3);
        obs.handoff_commit(5);
        obs.handoff_bounce(9); // no ledger entry → loose count
        obs.set_dir_epoch(4);
        obs.set_dir_epoch(2); // monotone
        let s = obs.snapshot();
        assert_eq!(s.handoffs.len(), 1);
        let h = &s.handoffs[0];
        assert_eq!((h.hid, h.shard, h.from, h.to), (5, 1, 0, 1));
        assert!(h.prepare_ns <= h.freeze_ns && h.freeze_ns <= h.transfer_ns);
        assert!(h.transfer_ns <= h.commit_ns);
        assert_eq!(
            (h.frozen_bytes, h.buffered, h.replayed, h.bounced),
            (640, 3, 3, 1)
        );
        assert_eq!(s.handoff_commits, 1);
        assert_eq!(s.handoff_bounced, 2, "ledger bounce + stray bounce");
        assert_eq!(s.dir_epoch, 4);
    }

    #[test]
    fn placement_heat_ranks_homes_by_attributed_cost() {
        let obs = NodeObs::new(ObsConfig::on(), 0, 2, 1);
        obs.shard(0).attrib.cell(0, 3).cost.bump(100);
        obs.shard(1).attrib.cell(1, 3).cost.bump(50);
        obs.shard(0).attrib.cell(0, 7).cost.bump(80);
        obs.shard(1).attrib.cell(2, 1).cost.bump(10);
        let heat = obs.placement_heat(2);
        assert_eq!(heat, vec![(3, 150), (7, 80)]);
    }

    #[test]
    fn peer_registration_is_idempotent() {
        let obs = NodeObs::new(ObsConfig::on(), 0, 1, 1);
        let a = obs.register_peer(2);
        let b = obs.register_peer(2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn flight_dump_writes_once_and_names_the_edge() {
        let dir = std::env::temp_dir().join(format!(
            "em2-obs-flight-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = ObsConfig::on();
        cfg.flight_dir = Some(dir.clone());
        let obs = NodeObs::new(cfg, 8, 4, 2);
        obs.set_node(3);
        obs.shard(0).event(EventKind::Retire, 9, 1_234, 0);
        obs.node_event(EventKind::PeerDown, 1, 0);
        let path = obs
            .flight_dump(
                "peer-lost",
                "lost peer node 1: read timeout",
                Some(1),
                Some(r#"{"kind":"census","runnable":2}"#),
            )
            .unwrap()
            .expect("first dump");
        assert!(obs
            .flight_dump("peer-lost", "again", Some(1), None)
            .unwrap()
            .is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        let last = text.lines().last().unwrap();
        assert!(
            last.contains(r#""ev":"fail""#),
            "final event is the failure: {last}"
        );
        assert!(last.contains("lost peer node 1"), "names the edge: {last}");
        assert!(text.lines().next().unwrap().contains(r#""kind":"flight""#));
        assert!(text.contains(r#""ev":"peer-down""#));
        assert_eq!(
            text.lines().nth(2).unwrap(),
            r#"{"kind":"census","runnable":2}"#,
            "census line rides after the snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
