//! Experiment runner: regenerates every figure/table of the paper.
//!
//! ```text
//! experiments [all|e1|e2|...|e14] [--quick] [--chart] [--serial]
//!             [--threads N] [--bench-json PATH] [--no-bench-json]
//! ```
//!
//! * `--quick` runs the 16-core CI scale instead of the paper's
//!   64-core scale;
//! * `--chart` additionally renders the Figure-2 histogram as an ASCII
//!   bar chart;
//! * `--serial` forces one sweep worker (baseline for speedup and
//!   determinism comparisons); `--threads N` pins the worker count;
//! * a full run writes perf telemetry to `BENCH.json`
//!   (`--bench-json PATH` overrides the path and also enables the
//!   write for subset runs; `--no-bench-json` suppresses it).

use em2_bench::experiments as ex;
use em2_bench::workloads::Scale;
use em2_bench::{netproc, par, perf};
use std::path::PathBuf;

fn main() {
    // Cluster-child mode: this binary re-executed as node 1 of the
    // E12 two-process measurement (selected by an env var, so the
    // flag surface stays clean).
    if netproc::maybe_run_child() {
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    const FLAGS: [&str; 6] = [
        "--quick",
        "--chart",
        "--serial",
        "--threads",
        "--bench-json",
        "--no-bench-json",
    ];
    let mut expect_value = false;
    for a in &args {
        if expect_value {
            expect_value = false;
            continue;
        }
        if a.starts_with("--") {
            if !FLAGS.contains(&a.as_str()) {
                eprintln!(
                    "error: unknown flag {a:?} (expected one of: {})",
                    FLAGS.join(", ")
                );
                std::process::exit(2);
            }
            expect_value = *a == "--threads" || *a == "--bench-json";
        }
    }
    let quick = flag("--quick");
    let chart = flag("--chart");
    if flag("--serial") {
        par::set_threads(1);
    } else if let Some(v) = value_of("--threads") {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => par::set_threads(n),
            _ => {
                eprintln!("error: --threads expects a positive integer, got {v:?}");
                std::process::exit(2);
            }
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };

    let mut skip_next = false;
    let which: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--threads" || *a == "--bench-json" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .filter(|s| *s != "all")
        .collect();
    if let Some(bad) = which.iter().find(|id| !ex::ALL_IDS.contains(id)) {
        eprintln!(
            "error: unknown experiment {bad:?} (expected one of: {})",
            ex::ALL_IDS.join(", ")
        );
        std::process::exit(2);
    }

    println!(
        "EM2 reproduction experiments — scale: {:?} ({} cores), sweep workers: {}\n",
        scale,
        scale.cores(),
        par::threads()
    );

    let suite = ex::run_suite(scale, &which);

    for run in &suite.runs {
        for t in &run.tables {
            println!("{t}");
        }
        if run.id == "e2" && chart {
            if let Some(hist) = &suite.figure2 {
                println!("{}", hist.ascii_chart_weighted(1, 40, 50));
            }
        }
        println!();
    }

    println!("== suite timing ==");
    for run in &suite.runs {
        println!("  {:>3}: {:8.3} s", run.id, run.wall.as_secs_f64());
    }
    println!(
        "  total wall-clock {:.3} s over {} experiments ({} sweep workers)",
        suite.wall.as_secs_f64(),
        suite.runs.len(),
        suite.threads
    );

    // Perf telemetry: always for full runs, opt-in for subsets.
    let full_run = suite.runs.len() == ex::ALL_IDS.len();
    let bench_path = value_of("--bench-json").map(PathBuf::from);
    if !flag("--no-bench-json") && (full_run || bench_path.is_some()) {
        let path = bench_path.unwrap_or_else(|| PathBuf::from("BENCH.json"));
        let cal = perf::calibrate();
        println!(
            "  calibration: {:.0} simulated cycles/s ({:.0} accesses/s) on {}",
            cal.sim_cycles_per_sec(),
            cal.accesses_per_sec(),
            cal.workload
        );
        let rt_cal = perf::calibrate_runtime();
        println!(
            "  runtime: {:.0} ops/s on {} ({} shards / {} workers, host parallelism {})",
            rt_cal.ops_per_sec(),
            rt_cal.workload,
            rt_cal.report.shards,
            rt_cal.report.sched.workers,
            perf::host_parallelism(),
        );
        let obs_overhead = perf::calibrate_obs_overhead();
        println!(
            "  obs overhead: off {:.0} ops/s, on {:.0} ops/s ({:+.2}%)",
            obs_overhead.off.ops_per_sec(),
            obs_overhead.on.ops_per_sec(),
            obs_overhead.overhead_pct()
        );
        let placement = em2_bench::scorecard::PlacementScorecard::measure(scale);
        for sc in &placement.scores {
            println!(
                "  placement {:<16}: attributed cost {:>10} vs DP bound {:>10} ({:.0}%)",
                sc.scheme,
                sc.observed,
                placement.bound,
                if placement.bound > 0 {
                    100.0 * sc.observed as f64 / placement.bound as f64
                } else {
                    0.0
                }
            );
        }
        let scaling = perf::shard_scaling_sweep();
        for p in &scaling {
            println!(
                "  scaling S={:>4}: multiplexed {:>12.0} ops/s",
                p.shards,
                p.ops_per_sec()
            );
        }
        let latency = em2_bench::serving::measure_latency_panel();
        for l in &latency {
            println!(
                "  kv-open-loop {:<16} @{:>8.0} rps: p50 {:>7.1} us, p95 {:>7.1} us, p99 {:>7.1} us",
                l.scheme, l.offered_rps, l.p50_us, l.p95_us, l.p99_us
            );
        }
        let transport = match netproc::measure_transport() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: transport calibration failed: {e}");
                std::process::exit(1);
            }
        };
        for p in &transport {
            println!(
                "  transport {:<14} ({} node(s), {} process(es)): {:>12.0} ops/s, \
                 {:>9} wire bytes, {:>7} x-node ctxs",
                p.mode, p.nodes, p.processes, p.ops_per_sec, p.wire.bytes_tx, p.wire.arrives_tx
            );
        }
        let kv_uds = match netproc::measure_kv_uds(2_000) {
            Ok(k) => {
                println!(
                    "  kv over uds (2 processes): {:.0} requests/s over {} requests, \
                     {} wire bytes ({} x-node ctxs), read-your-writes verified",
                    k.requests_per_sec, k.requests, k.wire.bytes_tx, k.wire.arrives_tx
                );
                Some(k)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                println!("  kv over uds: skipped ({e})");
                None
            }
            Err(e) => {
                eprintln!("error: uds kv serving failed: {e}");
                std::process::exit(1);
            }
        };
        let fault_matrix = netproc::measure_fault_matrix();
        for f in &fault_matrix {
            println!(
                "  fault {:<10}: {} runs, {} completed, {} typed errors, \
                 settle {:>7.1} ms mean / {:>7.1} ms max",
                f.class, f.runs, f.completed, f.errored, f.settle_ms_mean, f.settle_ms_max
            );
        }
        match perf::write_bench_json(
            &path,
            &suite,
            &cal,
            &rt_cal,
            &obs_overhead,
            &placement,
            &scaling,
            &latency,
            &transport,
            kv_uds.as_ref(),
            &fault_matrix,
        ) {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
