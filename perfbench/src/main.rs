//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of
//! standard output; exits nonzero when a check failed. Run it from the
//! repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ocean-1node --seed 1 --seconds 15 --trace 0
//! ```

use perfbench::report::{json_str, Outcome, END_TO_END, PER_LAYER};
use perfbench::span::{self, SpanLog};
use perfbench::{host, kv, ocean, sim, Args, OUT_DIR};
use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;

/// Held while the result line is printed, so the watchdog and the main
/// thread never both print one.
static RESULT: Mutex<()> = Mutex::new(());

fn main() {
    // Before any thread starts: no ambient EM2_* setting may change a
    // result.
    let removed_env = host::clear_em2_env();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let fingerprint = host::fingerprint();
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };

    // A wedged run fails within the deadline instead of hanging.
    let deadline = Duration::from_secs_f64((args.seconds * 3.0 + 60.0).min(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        let _held = RESULT.lock();
        let mut out = Outcome::default();
        out.check(
            "deadline",
            Err(format!("the workload ran past {deadline:?}")),
        );
        eprintln!("perfbench: the workload ran past {deadline:?}; its threads:");
        eprint!("{}", host::thread_states());
        println!("{}", out.json(wanted));
        let _ = std::io::stdout().flush();
        std::process::exit(3);
    });

    let log = SpanLog::new();
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "ocean-1node" => ocean::run(&args, ocean::Nodes::One, &mut out, &log),
        "ocean-2node" => ocean::run(&args, ocean::Nodes::Two, &mut out, &log),
        "kv-open" => kv::run(&args, &mut out, &log),
        "sim-ocean" => sim::run(&args, &mut out, &log),
        other => unreachable!("Args::parse accepted {other}"),
    }
    if !args.trace {
        for (name, _) in END_TO_END {
            let ok = out
                .values
                .get(name)
                .is_some_and(|v| *v > 0.0 && v.is_finite());
            if !ok && out.failed == 0 {
                out.check(name, Err("not measured".into()));
            }
        }
    }

    let spans = log.spans();
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = write_record(
        &args,
        &tag,
        &fingerprint,
        &removed_env,
        &out,
        wanted,
        &spans,
    ) {
        eprintln!("perfbench: writing the result record: {e}");
    }

    eprintln!(
        "perfbench {} seed {} trace {} on {} ({} CPUs, {}, {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        fingerprint.cpu_model,
        fingerprint.nproc,
        fingerprint.rustc,
        fingerprint.kernel
    );
    for (k, v) in &removed_env {
        eprintln!("  cleared {k}={v}");
    }
    for (name, unit) in wanted {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<26} {v:>16.4} {unit}");
    }
    for (name, v) in &out.raw {
        eprintln!("  wall-clock {name:<15} {v:>16.4}");
    }
    if !out.probes.is_empty() {
        let p = &out.probes;
        eprintln!(
            "  probes {} from {:.5} to {:.5} s, median {:.5} s",
            p.len(),
            p.iter().copied().fold(f64::INFINITY, f64::min),
            p.iter().copied().fold(0.0, f64::max),
            perfbench::stats::median(p)
        );
    }
    eprintln!(
        "  failed_frac {} ({} of {} checks failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        eprintln!("  FAILED {f}");
    }
    let _held = RESULT.lock();
    println!("{}", out.json(wanted));
    let _ = std::io::stdout().flush();
    std::process::exit(if out.correct() { 0 } else { 1 });
}

/// Write the run's record (host fingerprint, cleared environment,
/// result, span summary) and, for a traced run, every span.
fn write_record(
    args: &Args,
    tag: &str,
    fingerprint: &host::Fingerprint,
    removed_env: &[(String, String)],
    out: &Outcome,
    wanted: &[(&str, &str)],
    spans: &[span::Span],
) -> std::io::Result<()> {
    let env: Vec<String> = removed_env
        .iter()
        .map(|(k, v)| format!("[{}, {}]", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let summary: Vec<String> = span::summarize(spans)
        .into_iter()
        .map(|(name, (n, total, own))| {
            format!(
                "{}: {{\"count\": {n}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                json_str(name)
            )
        })
        .collect();
    let raw: Vec<String> = out
        .raw
        .iter()
        .map(|(k, v)| format!("{}: {v:?}", json_str(k)))
        .collect();
    let probes: Vec<String> = out.probes.iter().map(|p| format!("{p:?}")).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"cleared_env\": [{}], \"result\": {}, \"wall_clock\": {{{}}}, \"probes_s\": [{}], \"failures\": [{}], \"spans\": {{{}}}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        fingerprint.json(),
        env.join(", "),
        out.json(wanted),
        raw.join(", "),
        probes.join(", "),
        failures.join(", "),
        summary.join(", ")
    );
    std::fs::write(format!("{OUT_DIR}/result-{tag}.json"), record)?;
    if args.trace {
        let mut w = std::io::BufWriter::new(std::fs::File::create(format!(
            "{OUT_DIR}/spans-{tag}.jsonl"
        ))?);
        span::write_jsonl(spans, &mut w)?;
        w.flush()?;
    }
    Ok(())
}
