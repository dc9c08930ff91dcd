//! Cross-process transport measurement (the `BENCH.json` side of E12).
//!
//! The experiments binary doubles as its own cluster worker: when
//! [`CHILD_ENV`] is set, `main` calls [`maybe_run_child`] before
//! anything else and becomes node 1 of a two-process UDS cluster. The
//! parent runs node 0, waits, sums the per-process
//! [`CounterSummary`] files, asserts bit-equality with the in-process
//! run, and records ops/sec + wire-bytes telemetry. (The in-suite E12
//! *experiment* uses in-process loopback clusters so it stays
//! deterministic and digest-stable; the real-process measurement lives
//! here, in the telemetry path.)

use crate::serving::kv_registry;
use crate::workloads::{self, Scale};
use em2_core::decision::DecisionScheme;
use em2_net::{
    run_workload_cluster, run_workload_cluster_in_process, ClusterSpec, CounterSummary,
    NodeRuntime, WireSnapshot,
};
use em2_placement::{FirstTouch, Placement, Striped};
use em2_rt::{RtConfig, TaskSpec};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Env var that turns an `experiments` process into a cluster child.
/// Value format: `role=<ocean|kv>;node=<id>;cluster=<spec>;out=<path>`
/// (the cluster spec itself contains commas, hence `;` separators).
pub const CHILD_ENV: &str = "EM2_E12_CHILD";

/// The transport calibration's scheme: pure EM², so every non-local
/// access ships a context — the maximum-stress configuration for the
/// wire (and the same scheme as the `runtime` calibration block).
fn scheme() -> Box<dyn DecisionScheme> {
    Box::new(em2_core::AlwaysMigrate)
}

const KV_SHARDS: usize = 16;

/// If this process was launched as a cluster child, run the role and
/// report `true` (the caller exits instead of running experiments).
pub fn maybe_run_child() -> bool {
    let Some(val) = em2_model::env::raw(CHILD_ENV) else {
        return false;
    };
    run_child(&val).unwrap_or_else(|e| {
        eprintln!("e12 child failed: {e}");
        std::process::exit(1);
    });
    true
}

fn run_child(arg: &str) -> io::Result<()> {
    let mut role = None;
    let mut node = None;
    let mut cluster = None;
    let mut out = None;
    for part in arg.split(';') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("bad {part:?}")))?;
        match k {
            "role" => role = Some(v.to_string()),
            "node" => {
                node = Some(v.parse::<usize>().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, format!("bad node {v:?}"))
                })?)
            }
            "cluster" => cluster = Some(v.to_string()),
            "out" => out = Some(PathBuf::from(v)),
            _ => {}
        }
    }
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidInput, m.to_string());
    let role = role.ok_or_else(|| bad("missing role"))?;
    let node = node.ok_or_else(|| bad("missing node"))?;
    let out = out.ok_or_else(|| bad("missing out"))?;
    let spec = ClusterSpec::parse(&cluster.ok_or_else(|| bad("missing cluster"))?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

    let report = match role.as_str() {
        "ocean" => {
            let w = workloads::ocean(Scale::Quick);
            let threads = w.num_threads();
            let placement: Arc<dyn Placement> =
                Arc::new(FirstTouch::build(&w, spec.total_shards, 64));
            let w = Arc::new(w);
            run_workload_cluster(
                spec.kind.make(),
                spec.clone(),
                node,
                RtConfig::eviction_free(spec.total_shards, threads),
                &w,
                placement,
                scheme,
                &[],
            )?
        }
        "kv" => {
            // A pure server node: it submits nothing and serves
            // migrated-in KV request tasks and remote accesses.
            let placement: Arc<dyn Placement> = Arc::new(Striped::new(KV_SHARDS, 64));
            let nrt = NodeRuntime::start_with_transport(
                spec.kind.make(),
                spec.clone(),
                node,
                RtConfig::with_shards(KV_SHARDS),
                "kv-uds",
                placement,
                kv_registry(),
                scheme,
                Vec::new(),
            )?;
            nrt.finish()?
        }
        other => return Err(bad(&format!("unknown role {other:?}"))),
    };
    // Counters plus (under EM2_OBS=1) the timing-plane sidecar for
    // the parent's cluster-wide aggregation.
    em2_net::write_summary_with_obs(
        &CounterSummary::from_net(&report),
        report.obs.as_ref(),
        &out,
    )
}

/// One transport mode's measurement.
pub struct TransportPoint {
    /// Mode label (`in-process`, `loopback-2node`, `uds-2proc`).
    pub mode: String,
    /// Cluster nodes.
    pub nodes: usize,
    /// OS processes involved.
    pub processes: usize,
    /// Total memory operations served (summed over nodes — asserted
    /// equal across all modes).
    pub ops: u64,
    /// Wall-clock seconds (the coordinating node's launch → quiesce).
    pub wall_s: f64,
    /// `ops / wall_s`.
    pub ops_per_sec: f64,
    /// Summed wire telemetry (zero for `in-process`).
    pub wire: WireSnapshot,
}

fn point(mode: &str, nodes: usize, processes: usize, total: &CounterSummary) -> TransportPoint {
    let ops = total.total_ops();
    TransportPoint {
        mode: mode.to_string(),
        nodes,
        processes,
        ops,
        wall_s: total.wall_s,
        ops_per_sec: if total.wall_s > 0.0 {
            ops as f64 / total.wall_s
        } else {
            0.0
        },
        wire: total.wire,
    }
}

/// Spawn this binary again as an E12 cluster child.
fn spawn_child(arg: String) -> io::Result<std::process::Child> {
    std::process::Command::new(std::env::current_exe()?)
        .env(CHILD_ENV, arg)
        .spawn()
}

/// Run this process's half of a two-process cluster (`parent`, on a
/// helper thread) while supervising the child process. Fails fast —
/// instead of wedging in `accept()`/quiesce — when the child dies
/// before (or during) the run, and enforces an overall deadline. On
/// the failure paths the helper thread is abandoned (the caller exits
/// with an error; reaping a thread blocked on a dead cluster is not
/// worth more machinery).
fn run_parent_with_child<T: Send + 'static>(
    mut child: std::process::Child,
    what: &str,
    parent: impl FnOnce() -> io::Result<T> + Send + 'static,
) -> io::Result<T> {
    let handle = std::thread::spawn(parent);
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut child_ok = false;
    loop {
        if handle.is_finished() {
            let out = handle
                .join()
                .map_err(|_| io::Error::other(format!("{what} parent node panicked")))??;
            if !child_ok {
                // The cluster quiesced, so the child is exiting too;
                // reap it and propagate its status.
                let st = child.wait()?;
                if !st.success() {
                    return Err(io::Error::other(format!("{what} child failed: {st}")));
                }
            }
            return Ok(out);
        }
        if !child_ok {
            match child.try_wait()? {
                Some(st) if st.success() => child_ok = true,
                Some(st) => {
                    return Err(io::Error::other(format!(
                        "{what} child failed before the cluster quiesced: {st}"
                    )));
                }
                None => {}
            }
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            return Err(io::Error::other(format!("{what} cluster timed out")));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The E12 transport calibration: the quick OCEAN replay under pure
/// EM² in three configurations — in-process baseline, two-node
/// loopback cluster (same process), and a **two-OS-process** UDS
/// cluster (this binary re-executed as node 1). Counters are asserted
/// bit-equal across all three before any number is reported.
pub fn measure_transport() -> io::Result<Vec<TransportPoint>> {
    let w = workloads::ocean(Scale::Quick);
    let cores = Scale::Quick.cores();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, cores, 64));
    let w = Arc::new(w);
    let cfg = RtConfig::eviction_free(cores, threads);
    let mut points = Vec::new();

    // Baseline: today's single-process runtime.
    let single = em2_rt::run_workload(cfg.clone(), &w, Arc::clone(&placement), scheme);
    let expected = CounterSummary::from_rt(&single);
    points.push(point("in-process", 1, 1, &expected));

    // Two-node loopback cluster in this process.
    let reports = run_workload_cluster_in_process(
        &ClusterSpec::loopback(2, cores),
        &cfg,
        &w,
        &placement,
        scheme,
        &[],
    )?;
    let loopback = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));
    assert!(
        loopback.counters_equal(&expected),
        "loopback cluster diverged from the in-process run"
    );
    points.push(point("loopback-2node", 2, 1, &loopback));

    // Two real OS processes over UDS (Unix only).
    if cfg!(unix) {
        let dir = std::env::temp_dir().join(format!("em2-e12-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let spec_str = format!(
            "uds:{},nodes=2,shards={cores}",
            dir.join("e12.sock").display()
        );
        let spec = ClusterSpec::parse(&spec_str).expect("own spec string");
        let child_out = dir.join("node1.txt");
        let child = spawn_child(format!(
            "role=ocean;node=1;cluster={spec_str};out={}",
            child_out.display()
        ))?;
        let parent = {
            let (w, placement) = (Arc::clone(&w), Arc::clone(&placement));
            run_parent_with_child(child, "e12-ocean", move || {
                Ok(run_workload_cluster(
                    spec.kind.make(),
                    spec,
                    0,
                    cfg,
                    &w,
                    placement,
                    scheme,
                    &[],
                )?)
            })?
        };
        let mut uds = CounterSummary::from_net(&parent);
        uds.merge(&CounterSummary::read_from(&child_out)?);
        assert!(
            uds.counters_equal(&expected),
            "two-process UDS cluster diverged from the in-process run"
        );
        // Throughput from the coordinator's own wall (covers launch →
        // cluster quiesce as this node observed it).
        uds.wall_s = parent.rt.wall.as_secs_f64();
        points.push(point("uds-2proc", 2, 2, &uds));
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(points)
}

/// The distributed KV serving measurement: node 0 (this process)
/// fronts a two-process UDS cluster and submits `requests` closed-loop
/// KV transactions whose keys stripe across **both** processes' shard
/// ranges; every request verifies read-your-writes, so the numbers
/// double as a cross-process consistency check.
pub struct KvUdsPoint {
    /// Requests served.
    pub requests: u64,
    /// Memory operations executed cluster-wide.
    pub ops: u64,
    /// Front-end wall-clock seconds.
    pub wall_s: f64,
    /// Requests retired per second.
    pub requests_per_sec: f64,
    /// Cluster-summed wire telemetry.
    pub wire: WireSnapshot,
}

/// Measure the UDS KV point (Unix only; `Err(Unsupported)` elsewhere).
pub fn measure_kv_uds(requests: u64) -> io::Result<KvUdsPoint> {
    if !cfg!(unix) {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "UDS serving needs unix sockets",
        ));
    }
    let dir = std::env::temp_dir().join(format!("em2-e12kv-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let spec_str = format!(
        "uds:{},nodes=2,shards={KV_SHARDS}",
        dir.join("kv.sock").display()
    );
    let spec = ClusterSpec::parse(&spec_str).expect("own spec string");
    let child_out = dir.join("kv-node1.txt");
    let child = spawn_child(format!(
        "role=kv;node=1;cluster={spec_str};out={}",
        child_out.display()
    ))?;

    let parent = run_parent_with_child(child, "e12-kv", move || {
        let placement: Arc<dyn Placement> = Arc::new(Striped::new(KV_SHARDS, 64));
        let mut nrt = NodeRuntime::start_with_transport(
            spec.kind.make(),
            spec.clone(),
            0,
            RtConfig::with_shards(KV_SHARDS),
            "kv-uds",
            placement,
            kv_registry(),
            scheme,
            Vec::new(),
        )?;
        let (first, count) = spec.span(0);
        let mut rng = em2_model::DetRng::new(0x4b58);
        for i in 0..requests {
            // Native shards are the front-end's own; the keys stripe
            // over the whole cluster, so work crosses the process
            // boundary.
            nrt.submit(
                TaskSpec::new(
                    Box::new(crate::serving::KvRequest::new(i, &mut rng)),
                    em2_model::CoreId::from(first + (i as usize % count)),
                ),
                em2_model::ThreadId(i as u32),
            );
        }
        Ok(nrt.finish()?)
    })?;
    let mut total = CounterSummary::from_net(&parent);
    total.merge(&CounterSummary::read_from(&child_out)?);
    let wall_s = parent.rt.wall.as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(KvUdsPoint {
        requests,
        ops: total.total_ops(),
        wall_s,
        requests_per_sec: if wall_s > 0.0 {
            requests as f64 / wall_s
        } else {
            0.0
        },
        wire: total.wire,
    })
}

/// One fault class's row in the chaos matrix: how many injected runs
/// completed vs. failed typed, and how long the cluster took to come
/// to rest after the first injection.
pub struct FaultClassPoint {
    /// Fault class label (`drop`, `delay`, …, `crash`, `refuse`).
    pub class: &'static str,
    /// Injected cluster runs.
    pub runs: u64,
    /// Runs where every node completed (possible for benign classes
    /// and for faults that landed on frames never sent).
    pub completed: u64,
    /// Runs where at least one node returned a typed `ClusterError`.
    pub errored: u64,
    /// Mean milliseconds from the first injection to *every* node
    /// having returned — an upper bound on detection latency (it
    /// includes the survivors' drain + teardown).
    pub settle_ms_mean: f64,
    /// Worst settle time across the class's runs.
    pub settle_ms_max: f64,
}

/// A labeled fault-class generator: frame index → plan for that class.
type FaultClassGen = (&'static str, Box<dyn Fn(u64) -> em2_net::FaultPlan>);

/// The chaos calibration: for each fault class, inject it at several
/// frame positions into a two-node loopback cluster and record the
/// outcome mix plus injection→rest latency. Deterministic plans, tiny
/// workload — the matrix is telemetry for `BENCH.json`, while the
/// correctness property itself is pinned by `crates/net/tests/chaos.rs`.
pub fn measure_fault_matrix() -> Vec<FaultClassPoint> {
    use em2_net::{ClusterTimeouts, FaultAction, FaultPlan};
    const NODES: usize = 2;
    const SHARDS: usize = 8;
    let w = em2_trace::gen::micro::uniform(SHARDS, SHARDS, 60, 64, 0.3, 13);
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let cfg = RtConfig::eviction_free(SHARDS, threads);
    let nths: [u64; 5] = [1, 2, 4, 8, 16];
    let classes: Vec<FaultClassGen> = vec![
        (
            "drop",
            Box::new(|n| FaultPlan::new().fault(0, 1, n, FaultAction::Drop)),
        ),
        (
            "delay",
            Box::new(|n| FaultPlan::new().fault(0, 1, n, FaultAction::Delay { ms: 5 })),
        ),
        (
            "duplicate",
            Box::new(|n| FaultPlan::new().fault(0, 1, n, FaultAction::Duplicate)),
        ),
        (
            "truncate",
            Box::new(|n| FaultPlan::new().fault(1, 0, n, FaultAction::Truncate { keep: 5 })),
        ),
        (
            "corrupt",
            Box::new(|n| {
                FaultPlan::new().fault(
                    1,
                    0,
                    n,
                    FaultAction::Corrupt {
                        offset: n as usize,
                        xor: 0x10,
                    },
                )
            }),
        ),
        (
            "sever",
            Box::new(|n| FaultPlan::new().fault(0, 1, n, FaultAction::Sever)),
        ),
        ("crash", Box::new(|n| FaultPlan::new().crash_node(1, 4 + n))),
        (
            "refuse",
            Box::new(|_| FaultPlan::new().refuse_accepts(0, 1)),
        ),
    ];
    let mut out = Vec::with_capacity(classes.len());
    for (class, mk) in classes {
        let mut completed = 0u64;
        let mut errored = 0u64;
        let mut settle = Vec::new();
        for (i, &nth) in nths.iter().enumerate() {
            let spec = ClusterSpec::even(
                em2_net::TransportKind::Loopback,
                &format!("em2-fault-matrix-{class}-{i}-{}", std::process::id()),
                NODES,
                SHARDS,
            )
            .with_timeouts(ClusterTimeouts {
                connect_ms: 2_000,
                run_ms: 1_500,
                heartbeat_ms: 25,
            });
            let plan = Arc::new(mk(nth));
            let results = em2_net::run_workload_cluster_chaos(
                &spec,
                &cfg,
                &w,
                &placement,
                scheme,
                &plan,
                &[],
            );
            let rest = Instant::now();
            if results.iter().all(|(r, _)| r.is_ok()) {
                completed += 1;
            } else {
                errored += 1;
            }
            if let Some(t0) = results.iter().filter_map(|(_, st)| st.injected_at()).min() {
                settle.push(rest.duration_since(t0).as_secs_f64() * 1e3);
            }
        }
        let (mean, max) = if settle.is_empty() {
            (0.0, 0.0)
        } else {
            (
                settle.iter().sum::<f64>() / settle.len() as f64,
                settle.iter().cloned().fold(0.0f64, f64::max),
            )
        };
        out.push(FaultClassPoint {
            class,
            runs: nths.len() as u64,
            completed,
            errored,
            settle_ms_mean: mean,
            settle_ms_max: max,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_matrix_covers_every_class_and_disruptive_classes_error() {
        let rows = measure_fault_matrix();
        let classes: Vec<&str> = rows.iter().map(|r| r.class).collect();
        assert_eq!(
            classes,
            [
                "drop",
                "delay",
                "duplicate",
                "truncate",
                "corrupt",
                "sever",
                "crash",
                "refuse"
            ]
        );
        for r in &rows {
            assert_eq!(
                r.completed + r.errored,
                r.runs,
                "{}: every run accounted",
                r.class
            );
            assert!(
                r.settle_ms_max >= r.settle_ms_mean,
                "{}: max >= mean",
                r.class
            );
        }
        for class in ["truncate", "corrupt", "sever", "crash", "refuse"] {
            let r = rows.iter().find(|r| r.class == class).expect("row");
            assert!(
                r.errored > 0,
                "{class}: a disruptive fault class must produce typed errors"
            );
        }
        let dup = rows.iter().find(|r| r.class == "duplicate").expect("row");
        assert_eq!(
            dup.completed, dup.runs,
            "duplicates are benign: the seq layer dedups them"
        );
    }

    #[test]
    fn child_arg_parsing_rejects_malformed_input() {
        assert!(run_child("nonsense").is_err());
        assert!(run_child("role=ocean;node=x;cluster=loopback:a,nodes=1,shards=4;out=/x").is_err());
        assert!(run_child("role=bogus;node=0;cluster=loopback:b,nodes=1,shards=4;out=/x").is_err());
        assert!(
            run_child("role=ocean;node=0;out=/x").is_err(),
            "missing cluster"
        );
    }

    #[test]
    fn loopback_transport_point_is_exact_and_counts_wire_bytes() {
        // The cheap two-mode slice of measure_transport (the UDS
        // process spawn only works from the experiments binary).
        let w = workloads::ocean(Scale::Quick);
        let cores = Scale::Quick.cores();
        let threads = w.num_threads();
        let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, cores, 64));
        let w = Arc::new(w);
        let cfg = RtConfig::eviction_free(cores, threads);
        let single = em2_rt::run_workload(cfg.clone(), &w, Arc::clone(&placement), scheme);
        let expected = CounterSummary::from_rt(&single);
        let reports = run_workload_cluster_in_process(
            &ClusterSpec::loopback(2, cores),
            &cfg,
            &w,
            &placement,
            scheme,
            &[],
        )
        .expect("loopback cluster");
        let total = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));
        assert!(total.counters_equal(&expected));
        let p = point("loopback-2node", 2, 1, &total);
        assert!(p.wire.arrives_tx > 0, "contexts crossed nodes");
        assert!(p.wire.bytes_tx > 0);
        assert_eq!(p.ops, expected.total_ops());
    }
}
