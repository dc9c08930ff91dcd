//! Real multi-process agreement: two OS processes, connected by
//! Unix-domain sockets, replay the quick OCEAN workload as one
//! cluster — and their counters sum **bit-equal** to the
//! single-process E11 run (which is itself pinned bit-equal to the
//! simulator by `crates/rt/tests/agreement.rs`).
//!
//! Process model: the parent test re-executes its own test binary
//! (`std::process::Command` on `current_exe`) twice, once per node,
//! selecting the child entry point with `--exact` and an env-var role
//! flag (`EM2_NET_MP_ROLE`). Children write their `CounterSummary` to
//! files in a scratch directory; the parent sums and compares. CI
//! runs this with `EM2_RT_WORKERS=2` so each child multiplexes its 8
//! shards on two workers.

#![cfg(unix)]

use em2_core::decision::{DecisionScheme, HistoryPredictor};
use em2_net::{run_workload_cluster, ClusterSpec, CounterSummary, TransportKind};
use em2_placement::{FirstTouch, Placement};
use em2_rt::{run_workload, RtConfig};
use em2_trace::gen::ocean::OceanConfig;
use em2_trace::Workload;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROLE_ENV: &str = "EM2_NET_MP_ROLE";
const DIR_ENV: &str = "EM2_NET_MP_DIR";
const NODES: usize = 2;
const CORES: usize = 16;

/// The E11/CI quick-scale OCEAN trace (identical to
/// `em2_bench::workloads::ocean(Scale::Quick)` and the rt agreement
/// tests — regenerated deterministically in every process).
fn quick_ocean() -> Workload {
    OceanConfig {
        interior: 128,
        threads: 16,
        cores: 16,
        iterations: 2,
        levels: 3,
        ..OceanConfig::default()
    }
    .generate()
}

/// The scheme under test: HistoryPredictor, so learned per-thread
/// state crosses the process boundary with every migration.
fn scheme() -> Box<dyn DecisionScheme> {
    Box::new(HistoryPredictor::new(1.0, 0.5))
}

fn spec_for(dir: &std::path::Path) -> ClusterSpec {
    ClusterSpec::even(
        TransportKind::Uds,
        dir.join("em2.sock").to_str().expect("utf8 temp path"),
        NODES,
        CORES,
    )
}

/// Child entry point: inert unless the parent set the role env var.
/// (Runs — and immediately passes — as an ordinary empty test in a
/// normal `cargo test` invocation.)
#[test]
fn multiproc_child_role() {
    let Some(role) = em2_model::env::raw(ROLE_ENV) else {
        return;
    };
    let node: usize = role.parse().expect("role is a node id");
    let dir = PathBuf::from(em2_model::env::raw(DIR_ENV).expect("scratch dir env var"));
    let w = quick_ocean();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, CORES, 64));
    let w = Arc::new(w);
    let spec = spec_for(&dir);
    let report = run_workload_cluster(
        spec.kind.make(),
        spec,
        node,
        RtConfig::eviction_free(CORES, threads),
        &w,
        placement,
        scheme,
        &[],
    )
    .expect("child cluster run");
    // Counters plus (when EM2_OBS=1, e.g. the CI obs smoke) the
    // timing-plane sidecar — the obs numbers ride the same file seam
    // but never enter the agreement comparison below.
    em2_net::write_summary_with_obs(
        &CounterSummary::from_net(&report),
        report.obs.as_ref(),
        &dir.join(format!("node{node}.txt")),
    )
    .expect("write summary");
}

#[test]
fn two_process_uds_agreement_sums_bit_equal() {
    // Children must find an exact test name to run; the parent drives.
    if em2_model::env::raw(ROLE_ENV).is_some() {
        return; // never recurse
    }
    let dir = std::env::temp_dir().join(format!("em2-net-mp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Expected counters: the single-process E11 configuration.
    let w = quick_ocean();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, CORES, 64));
    let w = Arc::new(w);
    let single = run_workload(
        RtConfig::eviction_free(CORES, threads),
        &w,
        Arc::clone(&placement),
        scheme,
    );
    let expected = CounterSummary::from_rt(&single);

    let exe = std::env::current_exe().expect("own test binary");
    let mut children: Vec<std::process::Child> = (0..NODES)
        .map(|node| {
            Command::new(&exe)
                .args(["multiproc_child_role", "--exact", "--nocapture"])
                .env(ROLE_ENV, node.to_string())
                .env(DIR_ENV, &dir)
                .spawn()
                .expect("spawn child node")
        })
        .collect();

    // Babysit with a deadline so a wedged cluster fails the test
    // instead of hanging CI.
    let deadline = Instant::now() + Duration::from_secs(240);
    for (i, child) in children.iter_mut().enumerate() {
        loop {
            match child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "child node {i} failed: {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    panic!("child node {i} did not finish before the deadline");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    let paths: Vec<PathBuf> = (0..NODES)
        .map(|node| dir.join(format!("node{node}.txt")))
        .collect();
    let summaries: Vec<CounterSummary> = paths
        .iter()
        .map(|p| CounterSummary::read_from(p).expect("child summary"))
        .collect();
    let total = CounterSummary::sum(summaries);

    // Cluster-wide obs aggregation rides the same seam. When the
    // children ran with EM2_OBS=1 (the CI obs smoke does), both wrote
    // sidecars; merging them must account for every node and every
    // retirement — and none of it feeds the counter assertions below.
    let obs = em2_net::merge_obs_sidecars(paths.iter().map(PathBuf::as_path))
        .expect("consistent obs sidecars");
    if em2_model::env::flag("EM2_OBS").unwrap_or(false) {
        assert!(
            obs.is_some(),
            "EM2_OBS=1 but the children wrote no obs sidecars"
        );
    }
    if let Some(obs) = obs {
        assert_eq!(obs.nodes as usize, NODES);
        assert!(obs.retired > 0, "obs saw no retirements: {obs:?}");
        assert_eq!(obs.task_latency_ns.count, obs.retired);
    }

    assert!(
        total.counters_equal(&expected),
        "two-process counters diverged from the single-process run\n\
         cluster: {total:?}\nsingle:  {expected:?}"
    );
    // The run genuinely crossed the process boundary.
    assert!(
        total.wire.arrives_tx > 0,
        "no context ever crossed the wire: {total:?}"
    );
    assert!(total.wire.context_bytes_tx > 0);
    assert_eq!(
        total.wire.frames_tx, total.wire.frames_rx,
        "every frame sent was received"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
