//! `ocean-1node` and `ocean-2node`: the OCEAN trace replayed on the
//! in-process runtime and on a two-node cluster over Unix-domain
//! sockets, under pure EM² (`AlwaysMigrate`) with an eviction-free
//! configuration.
//!
//! Both workloads replay the same trace under the same placement, so
//! their counters must agree bit for bit, and the gap between their
//! throughputs is the cost of the cluster. The seed fixes the order in
//! which the replay's tasks are submitted; the counters do not depend
//! on it.

use crate::calib::Bracket;
use crate::report::Outcome;
use crate::span::SpanLog;
use crate::stats::median;
use crate::tap::{self, NetTap, TracedScheme, TracedTask, TracedTransport};
use crate::{finish_within, same_counters, Args};
use em2_core::decision::{AlwaysMigrate, DecisionScheme};
use em2_core::machine::MachineConfig;
use em2_net::{
    ClusterSpec, ClusterTimeouts, CounterSummary, NetReport, NodeRuntime, Transport, TransportKind,
    UdsTransport,
};
use em2_placement::{FirstTouch, Placement};
use em2_rt::{RtConfig, Runtime, SchedStats, Task, TaskRegistry, TaskSpec, TraceTask};
use em2_trace::gen::ocean::OceanConfig;
use em2_trace::{FlatWorkload, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Shards, threads and cores of the replayed machine.
pub const SHARDS: usize = 16;

/// The quick OCEAN shape (16 threads on 16 cores, 128² grid, 3
/// multigrid levels) with 96 solver iterations: about 12.9M accesses,
/// so one in-process replay is a timed region of about half a second.
pub fn config() -> OceanConfig {
    OceanConfig {
        interior: 128,
        threads: SHARDS,
        cores: SHARDS,
        iterations: 96,
        levels: 3,
        ..OceanConfig::default()
    }
}

/// How long a cluster may take to quiesce before the run fails typed
/// instead of hanging.
const CLUSTER_RUN_MS: u64 = 20_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Replays per run at the least; `ops_per_s` is their median.
const MIN_REPLAYS: usize = 3;

/// Workers of the in-process runtime. One, not `nproc`: with two
/// workers the in-process runtime sometimes stops short of quiescence
/// on this replay (14–15 of 16 tasks parked at a barrier, nothing
/// runnable), a defect of the runtime that `em2_rt::run_workload`
/// shows as well. A benchmark whose runs fail measures nothing, so the
/// in-process replays run one worker beside the submitting thread
/// until that defect is fixed.
const IN_PROCESS_WORKERS: usize = 1;

/// The generated inputs of one run.
pub struct Inputs {
    /// The trace.
    pub workload: Arc<Workload>,
    /// First-touch placement at line granularity.
    pub placement: Arc<dyn Placement>,
    /// Submission order: a seeded permutation of thread indices.
    pub order: Vec<usize>,
    quotas: Vec<usize>,
}

/// Generate the trace and build the placement, timing each.
pub fn setup(seed: u64, log: &SpanLog) -> (Inputs, f64, f64) {
    let root = log.begin("setup", None, seed);
    let s = log.begin("trace.gen", Some(root.id()), seed);
    let w = config().generate();
    let gen_s = log.end(s).dur_ns() as f64 / 1e9;
    let s = log.begin("placement.build", Some(root.id()), seed);
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let place_s = log.end(s).dur_ns() as f64 / 1e9;
    log.end(root);
    let mut order: Vec<usize> = (0..w.num_threads()).collect();
    em2_model::DetRng::new(seed).shuffle(&mut order);
    let quotas = em2_engine::barrier_quotas(w.threads.iter().map(|t| t.barriers.len()));
    (
        Inputs {
            workload: Arc::new(w),
            placement,
            order,
            quotas,
        },
        gen_s,
        place_s,
    )
}

fn rt_config(threads: usize, workers: usize) -> RtConfig {
    RtConfig {
        workers,
        obs: Some(em2_obs::ObsConfig::off()),
        ..RtConfig::eviction_free(SHARDS, threads)
    }
}

fn plain_scheme() -> Box<dyn DecisionScheme> {
    Box::new(AlwaysMigrate)
}

fn traced_scheme() -> Box<dyn DecisionScheme> {
    Box::new(TracedScheme(Box::new(AlwaysMigrate)))
}

/// One finished replay.
#[derive(Clone)]
pub struct Replay {
    /// Counters summed over nodes, wire counters included.
    pub counters: CounterSummary,
    /// Runtime (or slowest node) start-up, handshake included.
    pub start_s: f64,
    /// First submit to the last `finish` return.
    pub timed_s: f64,
    /// Last submit to the last `finish` return.
    pub drain_s: f64,
    /// Scheduling counters summed over nodes.
    pub sched: SchedStats,
}

impl Replay {
    /// Memory operations executed.
    pub fn ops(&self) -> u64 {
        self.counters.total_ops()
    }

    /// Memory operations per second of the timed region.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.timed_s
    }
}

/// Replay on the in-process runtime with `workers` workers.
pub fn replay_1node(
    inp: &Inputs,
    workers: usize,
    traced: bool,
    log: &SpanLog,
    req: u64,
) -> Result<Replay, String> {
    let w = &inp.workload;
    let root = log.begin("ocean.replay", None, req);
    let s = log.begin("rt.start", Some(root.id()), req);
    let mut rt = Runtime::start(
        rt_config(w.num_threads(), workers),
        w.name.clone(),
        Arc::clone(&inp.placement),
        if traced { traced_scheme } else { plain_scheme },
        inp.quotas.clone(),
    );
    let start_s = log.end(s).dur_ns() as f64 / 1e9;
    let t0 = Instant::now();
    for &i in &inp.order {
        let th = &w.threads[i];
        let task: Box<dyn Task> = Box::new(TraceTask::new(Arc::clone(w), th.thread));
        let task: Box<dyn Task> = if traced {
            Box::new(TracedTask::new(task))
        } else {
            task
        };
        let s = log.begin("rt.submit", Some(root.id()), th.thread.0 as u64);
        rt.submit_as(TaskSpec::new(task, th.native), th.thread);
        log.end(s);
    }
    let drain = log.begin("rt.drain", Some(root.id()), req);
    let t_last = Instant::now();
    let report = finish_within(rt);
    let t_end = Instant::now();
    log.end_at(drain, t_end);
    log.end_at(root, t_end);
    let report = report?;
    Ok(Replay {
        counters: CounterSummary::from_rt(&report),
        start_s,
        timed_s: (t_end - t0).as_secs_f64(),
        drain_s: (t_end - t_last).as_secs_f64(),
        sched: report.sched,
    })
}

/// What one node thread of a cluster replay saw.
struct NodeRun {
    report: Result<NetReport, String>,
    /// `NodeRuntime::start`, handshake included.
    start_s: f64,
    /// Both nodes started; submission begins.
    t0: Instant,
    /// This node's last submit.
    t_last: Instant,
    /// This node's `finish` returned.
    t_end: Instant,
}

/// Replay on a two-node cluster inside this process, one worker per
/// node, over Unix-domain sockets at `sock_base.{0,1}`. With `tap`,
/// both nodes' connections report into it.
pub fn replay_2node(
    inp: &Inputs,
    sock_base: &str,
    tap: Option<&Arc<NetTap>>,
    log: &SpanLog,
    req: u64,
) -> Result<Replay, String> {
    let w = &inp.workload;
    let spec = ClusterSpec::even(TransportKind::Uds, sock_base, 2, SHARDS).with_timeouts(
        ClusterTimeouts {
            connect_ms: 10_000,
            run_ms: CLUSTER_RUN_MS,
            heartbeat_ms: 0,
        },
    );
    let cfg = rt_config(w.num_threads(), 1);
    let scheme = if tap.is_some() {
        traced_scheme
    } else {
        plain_scheme
    };
    let both_started = Barrier::new(2);
    let start_failed = AtomicBool::new(false);
    let root = log.begin("ocean.replay", None, req);
    let root_id = root.id();
    let outs: Vec<Result<NodeRun, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..spec.num_nodes())
            .map(|node| {
                let (spec, cfg) = (spec.clone(), cfg.clone());
                let (both_started, start_failed) = (&both_started, &start_failed);
                sc.spawn(move || -> NodeRun {
                    let transport: Box<dyn Transport> = match tap {
                        Some(t) => {
                            Box::new(TracedTransport::new(Box::new(UdsTransport), Arc::clone(t)))
                        }
                        None => Box::new(UdsTransport),
                    };
                    let (first, count) = spec.span(node);
                    let s = log.begin("net.start", Some(root_id), node as u64);
                    let started = NodeRuntime::start_with_transport(
                        transport,
                        spec,
                        node,
                        cfg,
                        w.name.clone(),
                        Arc::clone(&inp.placement),
                        TaskRegistry::for_workload(Arc::clone(w)),
                        scheme,
                        inp.quotas.clone(),
                    );
                    let start_s = log.end(s).dur_ns() as f64 / 1e9;
                    if started.is_err() {
                        start_failed.store(true, Ordering::SeqCst);
                    }
                    // Both nodes begin submitting only once both have
                    // finished the handshake, so the timed region holds
                    // no set-up.
                    both_started.wait();
                    let t0 = Instant::now();
                    let mut nrt = match started {
                        Ok(n) => n,
                        Err(e) => {
                            return NodeRun {
                                report: Err(format!("node {node} start: {e}")),
                                start_s,
                                t0,
                                t_last: t0,
                                t_end: t0,
                            }
                        }
                    };
                    if !start_failed.load(Ordering::SeqCst) {
                        for &i in &inp.order {
                            let th = &w.threads[i];
                            let native = th.native.index();
                            if native >= first && native < first + count {
                                let task = Box::new(TraceTask::new(Arc::clone(w), th.thread));
                                let s = log.begin("rt.submit", Some(root_id), th.thread.0 as u64);
                                nrt.submit(TaskSpec::new(task, th.native), th.thread);
                                log.end(s);
                            }
                        }
                    }
                    let t_last = Instant::now();
                    let s = log.begin("net.finish", Some(root_id), node as u64);
                    let report = nrt.finish().map_err(|e| format!("node {node}: {e}"));
                    let t_end = Instant::now();
                    log.end_at(s, t_end);
                    NodeRun {
                        report,
                        start_s,
                        t0,
                        t_last,
                        t_end,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|p| crate::panic_text(&*p)))
            .collect()
    });
    let runs = outs.into_iter().collect::<Result<Vec<NodeRun>, String>>()?;
    let start_s = runs.iter().map(|r| r.start_s).fold(0.0, f64::max);
    let t0 = runs.iter().map(|r| r.t0).min().expect("two nodes");
    let t_last = runs.iter().map(|r| r.t_last).max().expect("two nodes");
    let t_end = runs.iter().map(|r| r.t_end).max().expect("two nodes");
    log.end_at(root, t_end);
    let reports = runs
        .into_iter()
        .map(|r| r.report)
        .collect::<Result<Vec<NetReport>, String>>()?;
    let mut sched = SchedStats::default();
    for r in &reports {
        sched.workers += r.rt.sched.workers;
        sched.polls += r.rt.sched.polls;
        sched.steals += r.rt.sched.steals;
        sched.parks += r.rt.sched.parks;
    }
    Ok(Replay {
        counters: CounterSummary::sum(reports.iter().map(CounterSummary::from_net)),
        start_s,
        timed_s: (t_end - t0).as_secs_f64(),
        drain_s: (t_end - t_last).as_secs_f64(),
        sched,
    })
}

/// The E11 reference: the simulator's counters for the same trace,
/// placement and scheme with guest pools sized eviction-free.
fn e11_check(inp: &Inputs, r: &Replay) -> Result<(), String> {
    let w = &inp.workload;
    let flat = FlatWorkload::build_homes_only(w, 64, |a| inp.placement.home_of(a));
    let mut cfg = MachineConfig::with_cores(SHARDS);
    cfg.guest_contexts = w.num_threads();
    let sim = em2_core::sim::run_em2ra_flat(cfg, &flat, plain_scheme());
    let c = &r.counters;
    let h = &sim.run_lengths;
    let agree = sim.flow.evictions == 0
        && c.migrations == sim.flow.migrations
        && c.remote_reads == sim.flow.remote_reads
        && c.remote_writes == sim.flow.remote_writes
        && c.local_accesses == sim.flow.local_accesses
        && c.hist_bins == (0..=h.max_bin()).map(|v| h.count(v)).collect::<Vec<_>>()
        && c.hist_overflow == h.overflow()
        && c.hist_total_value == h.total_value()
        && c.hist_total_count == h.total_count()
        && c.hist_max_seen == h.max_seen();
    if agree {
        Ok(())
    } else {
        Err(format!(
            "runtime counters differ from the simulator's: rt migrations {} remote {}+{} local {}; sim migrations {} remote {}+{} local {} evictions {}",
            c.migrations, c.remote_reads, c.remote_writes, c.local_accesses,
            sim.flow.migrations, sim.flow.remote_reads, sim.flow.remote_writes,
            sim.flow.local_accesses, sim.flow.evictions
        ))
    }
}

/// Which of the two OCEAN workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Nodes {
    /// In-process, on one worker.
    One,
    /// Two nodes over UDS, one worker each.
    Two,
}

/// Run one OCEAN workload.
pub fn run(args: &Args, nodes: Nodes, out: &mut Outcome, log: &SpanLog) {
    // Every set-up and replay is bracketed by calibration probes and
    // reported in reference seconds.
    let mut clock = Bracket::start();
    let mut gen = Vec::new();
    let mut place = Vec::new();
    let mut setup_scale = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        // Drop the previous inputs first: two traces never coexist.
        drop(inputs.take());
        let (inp, g, p) = setup(args.seed, log);
        gen.push(g);
        place.push(p);
        setup_scale.push(clock.scale());
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one set-up");
    let sock = |k: u64| format!("{}/o2n-{}-{k}", crate::OUT_DIR, std::process::id());

    let mut next_req = 0u64;
    let mut replay = |traced: bool, tap: Option<&Arc<NetTap>>| {
        next_req += 1;
        match nodes {
            Nodes::One => replay_1node(&inp, IN_PROCESS_WORKERS, traced, log, next_req),
            Nodes::Two => replay_2node(&inp, &sock(next_req), tap, log, next_req),
        }
    };

    // The E12 reference for the cluster: an untimed in-process replay.
    let reference = match nodes {
        Nodes::One => None,
        Nodes::Two => {
            let r = replay_1node(&inp, IN_PROCESS_WORKERS, false, log, 0);
            let ok = r.as_ref().map(|_| ()).map_err(Clone::clone);
            out.check("ocean-1node reference replay", ok);
            // Not measured: probe again so that the first measured
            // replay's bracket starts after it.
            let _ = clock.scale();
            r.ok()
        }
    };

    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(
        measure_s,
        MIN_REPLAYS,
        || replay(false, None),
        &mut clock,
        out,
        "replay",
    );
    let Some((first, _)) = plain.first() else {
        return;
    };
    for (r, _) in &plain[1..] {
        out.check(
            "replays agree",
            same_counters(&first.counters, &r.counters, true),
        );
    }
    // Read before the E11 check, whose flattened trace is not part of
    // the workload.
    out.set("peak_rss_mb", crate::host::workload_peak_rss_mb());
    match &reference {
        Some(one) => out.check(
            "cluster sums equal the in-process replay (E12)",
            same_counters(&one.counters, &first.counters, false),
        ),
        None => out.check("runtime equals simulator (E11)", e11_check(&inp, first)),
    }

    let ops_per_s: Vec<f64> = plain.iter().map(|(r, k)| r.ops_per_s() / k).collect();
    // A set-up is trace generation and placement build, then the
    // runtime start of a replay.
    let setup_of = |i: usize, k: f64| {
        let (r, rk) = &plain[i.min(plain.len() - 1)];
        (gen[i] + place[i]) * k + r.start_s * rk
    };
    let setups: Vec<f64> = (0..SETUPS).map(|i| setup_of(i, setup_scale[i])).collect();
    out.set("ops_per_s", median(&ops_per_s));
    out.set("setup_s", median(&setups));
    out.raw(
        "ops_per_s",
        median(&plain.iter().map(|(r, _)| r.ops_per_s()).collect::<Vec<_>>()),
    );
    out.raw(
        "setup_s",
        median(
            &(0..SETUPS)
                .map(|i| gen[i] + place[i] + plain[i.min(plain.len() - 1)].0.start_s)
                .collect::<Vec<_>>(),
        ),
    );
    out.probes(&clock.probes);
    if !args.trace {
        return;
    }
    tap::DECIDE.reset();
    tap::RESUME_GAP.reset();
    // Only the first traced replay keeps copies of its frames.
    let net_tap = NetTap::new(true);
    let mut capture = Some(Arc::clone(&net_tap));
    let traced = measure(
        args.seconds / 2.0,
        1,
        || {
            let t = capture.take().unwrap_or_else(|| NetTap::new(false));
            replay(true, (nodes == Nodes::Two).then_some(&t))
        },
        &mut clock,
        out,
        "traced replay",
    );
    for (r, _) in &traced {
        out.check(
            "traced counters equal untraced",
            same_counters(&first.counters, &r.counters, true),
        );
    }
    let n = traced.len().max(1) as f64;
    let per_op = |f: fn(&SchedStats) -> u64| {
        median(
            &plain
                .iter()
                .map(|(r, _)| f(&r.sched) as f64 / r.ops() as f64)
                .collect::<Vec<_>>(),
        )
    };
    let traced_ops: Vec<f64> = traced.iter().map(|(r, k)| r.ops_per_s() / k).collect();
    out.set(
        "bench.trace_overhead_pct",
        (median(&ops_per_s) / median(&traced_ops) - 1.0) * 100.0,
    );
    out.set("trace.gen_s", median(&gen));
    out.set("placement.build_s", median(&place));
    out.set("rt.polls", per_op(|s| s.polls));
    out.set("rt.steals", per_op(|s| s.steals));
    out.set("rt.parks", per_op(|s| s.parks));
    out.set(
        "rt.drain_s",
        median(&plain.iter().map(|(r, _)| r.drain_s).collect::<Vec<_>>()),
    );
    out.set("rt.migrations", first.counters.migrations as f64);
    out.set(
        "rt.remote_accesses",
        (first.counters.remote_reads + first.counters.remote_writes) as f64,
    );
    out.set("rt.context_bytes", first.counters.context_bytes_sent as f64);
    out.set("core.decide_calls", tap::DECIDE.count() as f64 / n);
    out.set("core.decide_ns", tap::DECIDE.mean_ns());
    out.set("rt.resume_gap_ns", tap::RESUME_GAP.mean_ns());
    let spans = log.spans();
    let submits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "rt.submit")
        .map(|s| s.dur_ns() as f64)
        .collect();
    out.set("rt.submit_ns", median(&submits));
    if nodes == Nodes::Two {
        let wire = &first.counters.wire;
        let starts: Vec<f64> = plain.iter().map(|(r, _)| r.start_s).collect();
        out.set("net.start_s", median(&starts));
        out.set("net.bytes_tx", wire.bytes_tx as f64);
        out.set("net.frames_tx", wire.frames_tx as f64);
        out.set(
            "wire_bytes_per_op",
            wire.bytes_tx as f64 / first.ops() as f64,
        );
        out.set(
            "net.egress_hwm",
            plain
                .iter()
                .map(|(r, _)| r.counters.wire.egress_hwm)
                .max()
                .unwrap_or(0) as f64,
        );
        out.set("net.send_ns", net_tap.send.mean_ns());
        out.set("net.flushes", net_tap.send.count() as f64);
        out.set(
            "net.frames_per_flush",
            net_tap.frames.load(Ordering::Relaxed) as f64 / net_tap.send.count().max(1) as f64,
        );
        out.set("net.recv_wait_ns", net_tap.recv.mean_ns());
        let frames = std::mem::take(
            &mut *net_tap
                .captured
                .lock()
                .expect("no sender panicked while capturing"),
        );
        match crate::codec::frame_mix(&frames) {
            Ok(mix) => {
                out.check("captured frames re-encode bit-equal", Ok(()));
                out.set("net.journey_bytes", mix.journey_bytes as f64);
                out.set("rt.wire_decode_ns", mix.decode_ns);
                out.set("rt.wire_encode_ns", mix.encode_ns);
            }
            Err(e) => out.check("captured frames re-encode bit-equal", Err(e)),
        }
    }
}

/// Repeat `once` for at least `secs` seconds and `min` times, checking
/// each result and probing the host's speed after each; returns the
/// successes, each with its interval's scale (reference seconds per
/// wall second).
fn measure(
    secs: f64,
    min: usize,
    mut once: impl FnMut() -> Result<Replay, String>,
    clock: &mut Bracket,
    out: &mut Outcome,
    what: &str,
) -> Vec<(Replay, f64)> {
    let t = Instant::now();
    let mut done = Vec::new();
    let mut tries = 0;
    while tries < min || t.elapsed().as_secs_f64() < secs {
        tries += 1;
        let r = once();
        let k = clock.scale();
        match r {
            Ok(r) => {
                out.check(what, Ok(()));
                done.push((r, k));
            }
            Err(e) => {
                out.check(what, Err(e));
                break;
            }
        }
    }
    done
}
