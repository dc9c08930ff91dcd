//! Integration pins for the observability plane (DESIGN.md §12).
//!
//! Three properties the obs PR must never regress:
//!
//! 1. **Invisibility** — a cluster run with metrics + tracing fully
//!    enabled produces deterministic counters bit-equal to the same
//!    run with the plane off. The timing plane may observe; it may
//!    never perturb the agreement artifact.
//! 2. **The flight recorder fires** — a chaos-injected node crash
//!    leaves behind a JSONL post-mortem on every surviving node whose
//!    final event names the failing edge (error kind + peer).
//! 3. **Merging is exact under live handoffs** — folding per-node
//!    snapshots into cluster totals while shards change owner neither
//!    double-counts nor drops counters, histograms, attribution rows,
//!    or handoff-phase traces (DESIGN.md §14).
//! 4. **Routes live in the rings** — a task's cross-node route reads
//!    back from the nodes' merged trace rings alone, so envelopes need
//!    not carry it.

use em2_core::decision::{AlwaysMigrate, DecisionScheme, HistoryPredictor};
use em2_net::{
    run_workload_cluster_chaos, run_workload_cluster_in_process, ClusterSpec, ClusterTimeouts,
    CounterSummary, FaultPlan, NodeRuntime, TransportKind,
};
use em2_obs::{Event, EventKind, NodeObs, ObsConfig, Snapshot};
use em2_placement::{FirstTouch, Placement};
use em2_rt::{RtConfig, TaskRegistry, TaskSpec, TraceTask};
use em2_trace::gen::micro;
use em2_trace::Workload;
use std::collections::VecDeque;
use std::sync::Arc;

const NODES: usize = 2;
const SHARDS: usize = 8;

/// Small but with real cross-node traffic (same shape as the chaos
/// suite's workload): every shard has a native thread, so migrations,
/// remote accesses, and guest admissions all happen on both nodes.
fn workload() -> Workload {
    micro::uniform(SHARDS, SHARDS, 60, 64, 0.3, 13)
}

fn scheme() -> Box<dyn DecisionScheme> {
    Box::new(HistoryPredictor::new(1.0, 0.5))
}

fn spec(tag: &str) -> ClusterSpec {
    ClusterSpec::even(
        TransportKind::Loopback,
        &format!("em2-obs-{tag}-{}", std::process::id()),
        NODES,
        SHARDS,
    )
    .with_timeouts(ClusterTimeouts {
        connect_ms: 2_000,
        run_ms: 1_500,
        heartbeat_ms: 25,
    })
}

#[test]
fn enabled_obs_is_invisible_to_the_deterministic_counters() {
    let w = workload();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    // Programmatic on/off (not env vars): parallel tests in this
    // binary must not race on the process environment.
    let mut cfg_off = RtConfig::eviction_free(SHARDS, threads);
    cfg_off.obs = Some(ObsConfig::off());
    let mut cfg_on = cfg_off.clone();
    cfg_on.obs = Some(ObsConfig::on());

    let off = run_workload_cluster_in_process(&spec("off"), &cfg_off, &w, &placement, scheme, &[])
        .expect("obs-off cluster");
    let on = run_workload_cluster_in_process(&spec("on"), &cfg_on, &w, &placement, scheme, &[])
        .expect("obs-on cluster");

    let sum_off = CounterSummary::sum(off.iter().map(CounterSummary::from_net));
    let sum_on = CounterSummary::sum(on.iter().map(CounterSummary::from_net));
    assert!(
        sum_on.counters_equal(&sum_off),
        "enabling obs changed the deterministic counters\n\
         on:  {sum_on:?}\noff: {sum_off:?}"
    );

    // And the plane genuinely ran: every node carried a snapshot whose
    // metrics mirror that node's own deterministic counters.
    assert!(off.iter().all(|r| r.obs.is_none()), "off means no plane");
    for r in &on {
        let s = r.obs.as_ref().expect("obs-on node carries a snapshot");
        assert_eq!(s.migrations_out, r.rt.flow.migrations, "node {}", r.node);
        assert_eq!(
            s.remote_reads + s.remote_writes,
            r.rt.flow.remote_reads + r.rt.flow.remote_writes,
            "node {}",
            r.node
        );
        assert_eq!(s.evictions, r.rt.flow.evictions, "node {}", r.node);
        assert_eq!(
            s.context_bytes_out, r.rt.context_bytes_sent,
            "node {}",
            r.node
        );
        assert!(s.retired > 0, "node {} retired tasks", r.node);
        assert_eq!(s.task_latency_ns.count, s.retired);
        assert!(s.wire_flushes > 0, "node {} flushed frames", r.node);
        assert!(s.wire_bytes > 0);
        assert_eq!(s.flush_ns.count, s.wire_flushes);
    }
}

/// Walk task `task`'s route through the per-shard rings (indexed by
/// global shard): start at its native shard, follow each
/// `migrate-out` to the shard it names, stop at `retire`. Returns the
/// `(shard, kind)` steps and asserts every ring event of the task was
/// used, so the route is complete and nothing is left over.
fn route(rings: &[Vec<Event>], task: u64, native: usize) -> Vec<(usize, EventKind)> {
    let mut left: Vec<VecDeque<Event>> = rings
        .iter()
        .map(|r| {
            r.iter()
                .filter(|e| {
                    e.task == task
                        && matches!(
                            e.kind,
                            EventKind::Arrive | EventKind::MigrateOut | EventKind::Retire
                        )
                })
                .copied()
                .collect()
        })
        .collect();
    let mut at = native;
    let mut steps = Vec::new();
    loop {
        let e = left[at]
            .pop_front()
            .unwrap_or_else(|| panic!("task {task}: route breaks at shard {at} after {steps:?}"));
        steps.push((at, e.kind));
        match e.kind {
            EventKind::MigrateOut => at = e.a as usize,
            EventKind::Retire => break,
            _ => {}
        }
    }
    assert!(
        left.iter().all(VecDeque::is_empty),
        "task {task}: events off its route"
    );
    steps
}

#[test]
fn a_cross_node_route_reads_back_from_the_merged_rings() {
    let w = Arc::new(workload());
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let mut cfg = RtConfig::eviction_free(SHARDS, w.num_threads());
    let mut obs = ObsConfig::on();
    obs.ring = 1 << 14; // holds the whole run: nothing overwritten
    cfg.obs = Some(obs);
    let spec = spec("route");
    let quotas = em2_engine::barrier_quotas(w.threads.iter().map(|t| t.barriers.len()));
    let nodes: Vec<(em2_net::NetReport, Arc<NodeObs>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NODES)
            .map(|node| {
                let (spec, cfg, w) = (spec.clone(), cfg.clone(), Arc::clone(&w));
                let (placement, quotas) = (Arc::clone(&placement), quotas.clone());
                s.spawn(move || {
                    let (first, count) = spec.span(node);
                    let mut nrt = NodeRuntime::start_with_transport(
                        spec.kind.make(),
                        spec,
                        node,
                        cfg,
                        w.name.clone(),
                        placement,
                        TaskRegistry::for_workload(Arc::clone(&w)),
                        || Box::new(AlwaysMigrate),
                        quotas,
                    )
                    .expect("node starts");
                    for t in &w.threads {
                        if (first..first + count).contains(&t.native.index()) {
                            let task = TraceTask::new(Arc::clone(&w), t.thread);
                            nrt.submit(TaskSpec::new(Box::new(task), t.native), t.thread);
                        }
                    }
                    let obs = nrt.obs().expect("obs is on");
                    (nrt.finish().expect("node finishes"), obs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    });

    // Each node keeps a ring per global shard (ownership may move);
    // without handoffs only the owner's ring of a shard has events.
    let mut rings = vec![Vec::new(); SHARDS];
    for (node, (report, obs)) in nodes.iter().enumerate() {
        // No handoffs, so no detours: every envelope crossed empty.
        assert_eq!(report.obs.as_ref().expect("snapshot").journey_hops, 0);
        for (g, ring) in rings.iter_mut().enumerate() {
            let r = obs.shard(g).ring();
            assert_eq!(r.dropped(), 0, "node {node}'s ring of shard {g} overflowed");
            assert!(spec.owner_of(g) == node || r.is_empty());
            ring.extend(r.events());
        }
    }
    let mut walked = 0u64;
    let mut crossings = 0u64;
    // Thread 0's events carry task id 0, the untagged sentinel.
    for t in w.threads.iter().filter(|t| t.thread.0 != 0) {
        let steps = route(&rings, u64::from(t.thread.0), t.native.index());
        assert_eq!(steps[0], (t.native.index(), EventKind::Arrive));
        assert_eq!(steps.last().map(|s| s.1), Some(EventKind::Retire));
        for pair in steps.windows(2) {
            let [(from, kind), (to, next)] = [pair[0], pair[1]];
            if kind == EventKind::MigrateOut {
                assert_eq!(next, EventKind::Arrive, "a migration lands as an arrival");
                walked += 1;
                crossings += u64::from(spec.owner_of(from) != spec.owner_of(to));
            } else {
                assert_ne!(next, EventKind::Arrive, "an arrival follows a migration");
            }
        }
    }
    assert!(crossings > 0, "the workload must move tasks across nodes");
    // Thread 0's migrations are the untagged migrate-outs; with them,
    // the routes account for every migration the counters saw.
    let untagged = rings
        .iter()
        .flatten()
        .filter(|e| e.task == 0 && e.kind == EventKind::MigrateOut)
        .count() as u64;
    let migrations: u64 = nodes.iter().map(|(r, _)| r.rt.flow.migrations).sum();
    assert_eq!(walked + untagged, migrations);
}

/// Property 3, live half: run a 2-node cluster whose shards change
/// owner mid-workload, then fold the per-node snapshots into cluster
/// totals exactly the way a cluster-wide scraper would. Every plane
/// must survive the fold bit-exactly:
///
/// * counters and histograms sum to the per-node deterministic
///   counters (nothing dropped, nothing counted twice);
/// * attribution rows stay consistent with the summed `attrib_cost`
///   scalar;
/// * handoff traces assemble complete Prepare→Freeze→Transfer→Commit
///   records from phases that were each stamped on a *different* node,
///   and the trace rows agree with the independently-summed scalar
///   mirrors (`handoff_frozen_bytes`, `handoff_replayed`) — a
///   double-recorded phase or a dropped record breaks that equality.
#[test]
fn snapshot_merge_is_exact_across_live_handoffs() {
    // Longer workload + run budget than the invisibility test: the
    // run must survive two live ownership changes.
    let w = micro::uniform(SHARDS, SHARDS, 120, 64, 0.3, 17);
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let mut cfg = RtConfig::eviction_free(SHARDS, threads);
    cfg.obs = Some(ObsConfig::on());

    let spec = spec("merge").with_timeouts(ClusterTimeouts {
        connect_ms: 5_000,
        run_ms: 20_000,
        heartbeat_ms: 25,
    });
    // Two handoffs in opposite directions so both nodes play source,
    // destination, and (node 0) coordinator while traffic is live.
    let handoffs = [(1usize, 1usize), (SHARDS - 2, 0usize)];
    let commits = handoffs
        .iter()
        .filter(|&&(s, to)| spec.owner_of(s) != to)
        .count() as u64;
    assert_eq!(commits, 2, "the scenario must move shards");
    let reports = run_workload_cluster_in_process(&spec, &cfg, &w, &placement, scheme, &handoffs)
        .expect("handoff cluster");
    assert_eq!(reports.len(), NODES);

    let parts: Vec<Snapshot> = reports
        .iter()
        .map(|r| r.obs.clone().expect("obs-on node carries a snapshot"))
        .collect();
    let merged = Snapshot::sum(parts.iter().cloned());
    assert_eq!(merged.nodes, NODES as u64);

    // Counter plane: the fold must reproduce the per-node sums of the
    // deterministic counters exactly.
    let sum = |f: fn(&em2_net::NetReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert_eq!(merged.migrations_out, sum(|r| r.rt.flow.migrations));
    assert_eq!(
        merged.remote_reads + merged.remote_writes,
        sum(|r| r.rt.flow.remote_reads + r.rt.flow.remote_writes)
    );
    assert_eq!(merged.context_bytes_out, sum(|r| r.rt.context_bytes_sent));
    assert_eq!(merged.retired, parts.iter().map(|s| s.retired).sum::<u64>());
    // Histogram plane: bucket-wise merge keeps the population equal to
    // the summed counter it shadows.
    assert_eq!(merged.task_latency_ns.count, merged.retired);

    // Attribution plane: the row fold and the scalar sum are two
    // independent paths to the same total.
    assert_eq!(
        merged.attrib_cost,
        parts.iter().map(|s| s.attrib_cost).sum::<u64>()
    );
    assert_eq!(
        merged.attrib.iter().map(|e| e.cost()).sum::<u64>(),
        merged.attrib_cost,
        "attribution rows diverged from the summed cost scalar"
    );

    // Handoff plane: every node observed the same epoch history, each
    // commit was stamped exactly once (on the coordinator), and every
    // committed trace assembled all four phases from three nodes'
    // partial views.
    assert_eq!(merged.handoff_commits, commits);
    assert_eq!(merged.dir_epoch, spec.initial_epoch + commits);
    let committed: Vec<_> = merged
        .handoffs
        .iter()
        .filter(|h| h.commit_ns != 0)
        .collect();
    assert_eq!(committed.len() as u64, commits);
    for h in &committed {
        assert!(
            h.prepare_ns != 0 && h.freeze_ns != 0 && h.transfer_ns != 0,
            "committed handoff {} is missing a phase: {h:?}",
            h.hid
        );
        assert!(h.frozen_bytes > 0, "freeze shipped state: {h:?}");
        assert_eq!(h.buffered, h.replayed, "every parked frame replays: {h:?}");
    }
    // The trace rows and their scalar mirrors are summed over
    // different structures on different nodes; equality means no phase
    // was double-recorded and no record was dropped in the fold.
    assert_eq!(
        merged.handoffs.iter().map(|h| h.frozen_bytes).sum::<u64>(),
        merged.handoff_frozen_bytes
    );
    assert_eq!(
        merged.handoffs.iter().map(|h| h.replayed).sum::<u64>(),
        merged.handoff_replayed
    );
    assert!(
        merged.handoffs.iter().map(|h| h.bounced).sum::<u64>() <= merged.handoff_bounced,
        "per-trace bounces cannot exceed the scalar (strays are loose)"
    );
}

/// Property 3, frozen half: the exact mid-Transfer instant, pinned
/// deterministically. Three registries model the three roles of one
/// in-flight handoff — the coordinator has stamped Prepare, the source
/// Freeze, the destination Transfer; nobody has committed. Snapshots
/// taken *now* (the mid-Transfer merge the live test can only cross
/// by luck) must fold into exactly one record carrying every stamped
/// phase once, with the scalar mirrors agreeing.
#[test]
fn mid_transfer_merge_assembles_one_record_without_double_counting() {
    let coord = NodeObs::new(ObsConfig::on(), 0, 4, 1);
    let src = NodeObs::new(ObsConfig::on(), 0, 4, 1);
    let dst = NodeObs::new(ObsConfig::on(), 4, 4, 1);
    coord.set_node(0);
    src.set_node(1);
    dst.set_node(2);

    coord.handoff_prepare(7, 3, 1, 2);
    src.handoff_freeze(7, 3, 4096);
    dst.handoff_transfer(7, 3, 5, 5);
    dst.handoff_bounce(3); // fenced frame re-routed mid-handoff

    let merged = Snapshot::sum([coord.snapshot(), src.snapshot(), dst.snapshot()]);

    assert_eq!(merged.handoffs.len(), 1, "one handoff, one record");
    let h = &merged.handoffs[0];
    assert_eq!((h.hid, h.shard, h.from, h.to), (7, 3, 1, 2));
    assert!(h.prepare_ns != 0, "coordinator's Prepare survived");
    assert!(h.freeze_ns != 0, "source's Freeze survived");
    assert!(h.transfer_ns != 0, "destination's Transfer survived");
    assert_eq!(h.commit_ns, 0, "nobody committed yet");
    assert_eq!(h.frozen_bytes, 4096, "recorded once, not summed twice");
    assert_eq!((h.buffered, h.replayed, h.bounced), (5, 5, 1));
    assert_eq!(merged.handoff_commits, 0);
    assert_eq!(merged.handoff_frozen_bytes, 4096);
    assert_eq!(merged.handoff_replayed, 5);
    assert_eq!(merged.handoff_bounced, 1);

    // Commit lands later on the coordinator only; re-merging must
    // complete the same record rather than open a second one.
    coord.handoff_commit(7);
    let merged = Snapshot::sum([coord.snapshot(), src.snapshot(), dst.snapshot()]);
    assert_eq!(merged.handoffs.len(), 1);
    assert!(merged.handoffs[0].commit_ns != 0);
    assert_eq!(merged.handoff_commits, 1);
    assert_eq!(merged.handoff_frozen_bytes, 4096);
    assert_eq!(merged.handoff_replayed, 5);
}

#[test]
fn crashed_peer_leaves_a_flight_recording_naming_the_edge() {
    let dir = std::env::temp_dir().join(format!("em2-obs-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let w = workload();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let mut cfg = RtConfig::eviction_free(SHARDS, threads);
    let mut obs = ObsConfig::on();
    obs.flight_dir = Some(dir.clone());
    cfg.obs = Some(obs);

    // Node 1 dies abruptly after its 4th egress frame; node 0 survives
    // to observe the loss and must dump a post-mortem.
    let plan = Arc::new(FaultPlan::new().crash_node(1, 4));
    let results =
        run_workload_cluster_chaos(&spec("flight"), &cfg, &w, &placement, scheme, &plan, &[]);
    assert!(
        results.iter().any(|(r, _)| r.is_err()),
        "a crashed node must produce a typed error"
    );

    // The loopback cluster runs both nodes in this process, so the
    // dumps share one pid; at least the surviving node's must exist.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("flight dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("em2-flight-node") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(
        !dumps.is_empty(),
        "no flight-recorder dump in {}",
        dir.display()
    );
    let mut edge_named = false;
    for dump in &dumps {
        let text = std::fs::read_to_string(dump).expect("read dump");
        let header = text.lines().next().expect("header line");
        assert!(header.contains(r#""kind":"flight""#), "header: {header}");
        assert!(header.contains(r#""error_kind":""#), "header: {header}");
        assert!(
            text.lines()
                .nth(1)
                .expect("snapshot line")
                .contains(r#""kind":"obs""#),
            "second line embeds the metrics snapshot"
        );
        // The final event is the failure itself, with its typed kind.
        let last = text.lines().last().expect("final line");
        assert!(last.contains(r#""ev":"fail""#), "final event: {last}");
        assert!(last.contains(r#""error_kind":""#), "final event: {last}");
        // A dump that attributes the failure to a peer names the edge
        // and carries the peer-down observation in its timeline.
        if last.contains(r#""peer":"#) {
            assert!(
                text.contains(r#""ev":"peer-down""#),
                "timeline records the peer loss: {dump:?}"
            );
            edge_named = true;
        }
    }
    assert!(
        edge_named,
        "at least one node's post-mortem must name the failing edge: {dumps:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
