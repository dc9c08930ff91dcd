//! `kv-open`: an open-loop stream of KV transactions on the in-process
//! runtime (16 shards, `Striped` placement, `HistoryPredictor`).
//!
//! Each transaction reads a hot key, writes a key of its own and reads
//! it back, verifying the value (a mismatch panics the task, which
//! fails the run). The stream runs at fixed absolute rates with
//! `nproc - 1` workers beside the injector: one fixed low rate for the
//! latency percentiles, then a rate ramp for the highest rate that
//! holds the latency limit without a growing backlog. A closed-loop
//! burst gives the throughput. The seed drives the hot-key stream.

use crate::calib::Bracket;
use crate::inject;
use crate::report::Outcome;
use crate::span::SpanLog;
use crate::stats::{median, quantile_sorted};
use crate::tap::{self, Agg, TracedScheme, TracedTask};
use crate::{finish_within, same_counters, Args};
use em2_bench::serving::KvRequest;
use em2_core::decision::{DecisionScheme, HistoryPredictor};
use em2_model::{CoreId, DetRng};
use em2_net::CounterSummary;
use em2_placement::{Placement, Striped};
use em2_rt::{RtConfig, RtReport, Runtime, Task, TaskSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 16;

/// The fixed low rate the latency percentiles are measured at (about
/// a fifth of one worker's capacity).
pub const LATENCY_RPS: f64 = 50_000.0;

/// The rate ramp, requests per second: absolute steps, not fractions of
/// a probed capacity, so the offered load never depends on the code
/// under test.
pub const RAMP_RPS: &[f64] = &[
    100_000.0, 150_000.0, 200_000.0, 250_000.0, 300_000.0, 350_000.0, 400_000.0,
];

/// Length of one ramp step: long enough that one host stall of a few
/// milliseconds does not decide a step's p99 on its own.
const STEP_S: f64 = 1.0;

/// A ramp step passes when its p99 stays under this …
const LIMIT_P99_US: f64 = 5_000.0;

/// … and the runtime drains within this after the last submit (a
/// longer drain is a backlog that grew during the step).
const LIMIT_DRAIN_S: f64 = 0.005;

/// Requests in one closed-loop burst.
const BURST: u64 = 25_000;

/// Bursts per run at the least; `ops_per_s` is their median.
const MIN_BURSTS: usize = 3;

/// Lead time between runtime start and the first due instant.
const LEAD: Duration = Duration::from_millis(1);

fn scheme() -> Box<dyn DecisionScheme> {
    Box::new(HistoryPredictor::new(1.0, 0.5))
}

fn traced_scheme() -> Box<dyn DecisionScheme> {
    Box::new(TracedScheme(scheme()))
}

fn rt_config(workers: usize) -> RtConfig {
    RtConfig {
        workers,
        obs: Some(em2_obs::ObsConfig::off()),
        ..RtConfig::with_shards(SHARDS)
    }
}

/// One runtime's worth of requests: set-up, submission, drain.
struct Phase {
    report: RtReport,
    injected: inject::Injected,
    /// Request generation + placement build + `Runtime::start`.
    setup_s: f64,
    gen_s: f64,
    place_s: f64,
    /// First submit to `finish` return.
    timed_s: f64,
    /// Last submit to `finish` return.
    drain_s: f64,
    /// Latency samples that read 0: a request's latency runs from its
    /// due instant, which is never after its submit.
    zero_samples: u64,
}

impl Phase {
    fn p_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.report.task_latency_ns, q) as f64 / 1e3
    }
}

/// How a phase submits.
enum Load {
    /// Open loop at a fixed rate.
    Rate(f64),
    /// Everything at once, stamped at submit.
    Burst,
}

/// Run `n` requests, the key stream seeded by `seed`.
fn phase(
    seed: u64,
    n: u64,
    load: Load,
    workers: usize,
    traced: Option<&Agg>,
    log: &SpanLog,
    req: u64,
) -> Result<Phase, String> {
    let root = log.begin("kv.phase", None, req);
    let s = log.begin("trace.gen", Some(root.id()), req);
    let mut rng = DetRng::new(seed);
    let mut tasks: Vec<Box<dyn Task>> = (0..n)
        .map(|i| {
            let t: Box<dyn Task> = Box::new(KvRequest::new(i, &mut rng));
            if traced.is_some() {
                Box::new(TracedTask::new(t))
            } else {
                t
            }
        })
        .collect();
    tasks.reverse();
    let gen_s = log.end(s).dur_ns() as f64 / 1e9;
    let s = log.begin("placement.build", Some(root.id()), req);
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(SHARDS, 64));
    let place_s = log.end(s).dur_ns() as f64 / 1e9;
    let s = log.begin("rt.start", Some(root.id()), req);
    let mut rt = Runtime::start(
        rt_config(workers),
        "kv-open",
        placement,
        if traced.is_some() {
            traced_scheme
        } else {
            scheme
        },
        Vec::new(),
    );
    let start_s = log.end(s).dur_ns() as f64 / 1e9;
    let mut submit = |i: u64, arrival: Option<Instant>| {
        let spec = TaskSpec {
            task: tasks.pop().expect("one task per request"),
            native: CoreId::from((i % SHARDS as u64) as usize),
            arrival,
        };
        match traced {
            Some(agg) => {
                let t = Instant::now();
                rt.submit(spec);
                agg.add(t.elapsed());
            }
            None => {
                rt.submit(spec);
            }
        }
    };
    let t0 = Instant::now();
    let injected = match load {
        Load::Rate(rate) => inject::run(t0 + LEAD, rate, n, |i, due| submit(i, Some(due))),
        Load::Burst => {
            for i in 0..n {
                submit(i, None);
            }
            inject::Injected {
                submitted: n,
                last_submit: Some(Instant::now()),
                ..inject::Injected::default()
            }
        }
    };
    let first = match load {
        Load::Rate(_) => t0 + LEAD,
        Load::Burst => t0,
    };
    let t_last = injected.last_submit.unwrap_or(first);
    let drain = log.begin("rt.drain", Some(root.id()), req);
    let report = finish_within(rt);
    let t_end = Instant::now();
    log.end_at(drain, t_end);
    log.end_at(root, t_end);
    let report = report?;
    let retired = report.task_latency_ns.len() as u64;
    if retired != n || report.total_ops() != 3 * n {
        return Err(format!(
            "{retired} of {n} requests retired after {} memory ops",
            report.total_ops()
        ));
    }
    let zero_samples = match load {
        Load::Rate(_) => report.task_latency_ns.iter().filter(|&&l| l == 0).count() as u64,
        Load::Burst => 0,
    };
    Ok(Phase {
        setup_s: gen_s + place_s + start_s,
        gen_s,
        place_s,
        timed_s: (t_end - first).as_secs_f64(),
        drain_s: (t_end - t_last).as_secs_f64(),
        zero_samples,
        report,
        injected,
    })
}

/// Run `kv-open`.
pub fn run(args: &Args, out: &mut Outcome, log: &SpanLog) {
    let workers = crate::host::nproc().saturating_sub(1).max(1);
    let t_run = Instant::now();
    let mut req = 0u64;
    let mut seed_of = |salt: u64| {
        req += 1;
        (args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt, req)
    };
    let mut phases: Vec<Phase> = Vec::new();
    // Every phase is bracketed by calibration probes; its set-up is
    // reported in reference seconds.
    let mut clock = Bracket::start();
    let mut setups: Vec<f64> = Vec::new();
    let mut zero_samples = 0u64;

    // 1. Latency at the fixed low rate.
    let lat_n = (LATENCY_RPS * args.seconds * 0.3) as u64;
    let (seed, r) = seed_of(1);
    let lat = match phase(seed, lat_n, Load::Rate(LATENCY_RPS), workers, None, log, r) {
        Ok(p) => p,
        Err(e) => return fail(out, "latency phase", e),
    };
    out.check("latency phase", Ok(()));
    // The memory mark of the fixed-rate phase: the ramp and the bursts
    // that follow run as far and as long as the host's speed allows, so
    // their memory is not a property of the input.
    let peak_rss_mb = crate::host::workload_peak_rss_mb();
    setups.push(lat.setup_s * clock.scale());
    zero_samples += lat.zero_samples;

    // 2. The rate ramp.
    let mut max_rps = 0.0;
    for (k, &rate) in RAMP_RPS.iter().enumerate() {
        let (seed, r) = seed_of(2 + k as u64);
        let n = (rate * STEP_S) as u64;
        match phase(seed, n, Load::Rate(rate), workers, None, log, r) {
            Ok(p) => {
                out.check("ramp step", Ok(()));
                setups.push(p.setup_s * clock.scale());
                zero_samples += p.zero_samples;
                let holds = p.p_us(0.99) <= LIMIT_P99_US && p.drain_s <= LIMIT_DRAIN_S;
                eprintln!(
                    "  ramp {rate:>8.0} req/s: p50 {:.1} us, p99 {:.1} us, drain {:.4} s: {}",
                    p.p_us(0.50),
                    p.p_us(0.99),
                    p.drain_s,
                    if holds { "holds" } else { "breaks the limit" }
                );
                phases.push(p);
                if !holds {
                    break;
                }
                max_rps = rate;
            }
            Err(e) => return fail(out, "ramp step", e),
        }
    }

    // 3. Closed-loop bursts for throughput, until the run's time is up.
    // A traced run gives them half the time left, for the traced
    // repeats that follow.
    let budget = if args.trace {
        (args.seconds + t_run.elapsed().as_secs_f64()) / 2.0
    } else {
        args.seconds
    };
    let (mut bursts, mut bursts_raw) = (Vec::new(), Vec::new());
    while bursts.len() < MIN_BURSTS || t_run.elapsed().as_secs_f64() < budget {
        let (seed, r) = seed_of(100);
        match phase(seed, BURST, Load::Burst, workers, None, log, r) {
            Ok(p) => {
                out.check("burst", Ok(()));
                let k = clock.scale();
                setups.push(p.setup_s * k);
                bursts.push(3.0 * BURST as f64 / (p.timed_s * k));
                bursts_raw.push(3.0 * BURST as f64 / p.timed_s);
                phases.push(p);
            }
            Err(e) => return fail(out, "burst", e),
        }
    }
    // The injector never submits before a due instant (its tests prove
    // it), so a request's latency, measured by the runtime from that
    // instant, can read 0 only if the runtime lost the arrival stamp.
    out.check(
        "no zero latency samples",
        if zero_samples == 0 {
            Ok(())
        } else {
            Err(format!("{zero_samples} latency samples read 0"))
        },
    );
    out.set("ops_per_s", median(&bursts));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb);
    out.raw("ops_per_s", median(&bursts_raw));
    out.raw(
        "setup_s",
        median(
            &std::iter::once(&lat)
                .chain(&phases)
                .map(|p| p.setup_s)
                .collect::<Vec<_>>(),
        ),
    );
    out.probes(&clock.probes);
    if !args.trace {
        return;
    }

    // The traced repeat of the latency phase and of one burst.
    tap::DECIDE.reset();
    tap::RESUME_GAP.reset();
    let submit = Agg::new();
    let (seed, r) = seed_of(1);
    let traced_lat = match phase(
        seed,
        lat_n,
        Load::Rate(LATENCY_RPS),
        workers,
        Some(&submit),
        log,
        r,
    ) {
        Ok(p) => p,
        Err(e) => return fail(out, "traced latency phase", e),
    };
    out.check(
        "traced counters equal untraced",
        same_counters(
            &CounterSummary::from_rt(&lat.report),
            &CounterSummary::from_rt(&traced_lat.report),
            false,
        ),
    );
    let (decide_calls, decide_ns) = (tap::DECIDE.count(), tap::DECIDE.mean_ns());
    let resume_gap_ns = tap::RESUME_GAP.mean_ns();
    let (seed, r) = seed_of(100);
    let traced_burst = match phase(seed, BURST, Load::Burst, workers, Some(&Agg::new()), log, r) {
        Ok(p) => p,
        Err(e) => return fail(out, "traced burst", e),
    };
    out.check("traced burst", Ok(()));
    let per_op = |f: fn(&RtReport) -> u64| f(&lat.report) as f64 / lat.report.total_ops() as f64;
    let mut late = lat.injected.late_ns.clone();
    late.sort_unstable();
    out.set("kv_p50_us", lat.p_us(0.50));
    out.set("kv_p99_us", lat.p_us(0.99));
    out.set("kv_max_rps", max_rps);
    out.set(
        "bench.injector_late_us",
        quantile_sorted(&late, 0.99) as f64 / 1e3,
    );
    out.set("bench.clamped_samples", zero_samples as f64);
    out.set(
        "bench.trace_overhead_pct",
        (median(&bursts_raw) / (3.0 * BURST as f64 / traced_burst.timed_s) - 1.0) * 100.0,
    );
    out.set("rt.polls", per_op(|r| r.sched.polls));
    out.set("rt.steals", per_op(|r| r.sched.steals));
    out.set("rt.parks", per_op(|r| r.sched.parks));
    out.set("rt.drain_s", lat.drain_s);
    out.set("rt.migrations", lat.report.flow.migrations as f64);
    out.set(
        "rt.remote_accesses",
        (lat.report.flow.remote_reads + lat.report.flow.remote_writes) as f64,
    );
    out.set("rt.context_bytes", lat.report.context_bytes_sent as f64);
    out.set("rt.submit_ns", submit.mean_ns());
    out.set("rt.resume_gap_ns", resume_gap_ns);
    out.set("core.decide_calls", decide_calls as f64);
    out.set("core.decide_ns", decide_ns);
    out.set(
        "trace.gen_s",
        median(&phases.iter().map(|p| p.gen_s).collect::<Vec<_>>()),
    );
    out.set(
        "placement.build_s",
        median(&phases.iter().map(|p| p.place_s).collect::<Vec<_>>()),
    );
}

fn fail(out: &mut Outcome, what: &str, e: String) {
    out.check(what, Err(e));
}
