//! The repository benchmark.
//!
//! One command runs a named workload against the public APIs of
//! `em2-rt`, `em2-net`, `em2-core` and `em2-optimal`, checks its
//! outputs, and prints its metrics as one JSON line. A traced run
//! (`--trace 1`) swaps wrappers into the program's public seams
//! ([`tap`]) and reports per-layer numbers instead; the program itself
//! carries no tracing.

pub mod calib;
pub mod codec;
pub mod host;
pub mod inject;
pub mod kv;
pub mod ocean;
pub mod report;
pub mod sim;
pub mod span;
pub mod stats;
pub mod tap;

use em2_core::decision::{AlwaysMigrate, DecisionScheme};
use em2_net::CounterSummary;
use em2_rt::{RtReport, Runtime, TaskRegistry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Where runs write sockets, result records and spans (relative to the
/// repository root the benchmark runs from).
pub const OUT_DIR: &str = "perfbench/out";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["ocean-1node", "ocean-2node", "kv-open", "sim-ocean"];

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Traced run: report per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds {seconds} is outside (0, 60]"));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The deterministic counters of `a` and `b` agree; with `wire`, so
/// do their wire byte and frame counts.
pub fn same_counters(a: &CounterSummary, b: &CounterSummary, wire: bool) -> Result<(), String> {
    if !a.counters_equal(b) {
        return Err(format!(
            "counters differ:\n{}\nvs\n{}",
            a.render(),
            b.render()
        ));
    }
    let (x, y) = (&a.wire, &b.wire);
    if wire && (x.bytes_tx, x.frames_tx) != (y.bytes_tx, y.frames_tx) {
        return Err(format!(
            "wire counters differ: {} B in {} frames vs {} B in {} frames",
            x.bytes_tx, x.frames_tx, y.bytes_tx, y.frames_tx
        ));
    }
    Ok(())
}

/// The text of a panic payload.
pub fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .map_or_else(|| "panicked".into(), |s| format!("panicked: {s}"))
}

/// Run `f`, turning a panic (a task assertion re-raised by the
/// runtime) into an error.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_text(&*p))
}

/// How long one in-process runtime may take to drain after its last
/// submit before the run counts it as wedged (a healthy drain takes
/// at most a few seconds here).
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// `rt.finish()`, bounded by [`DRAIN_DEADLINE`]. A task panic is an
/// error; so is a runtime that has not quiesced by the deadline, whose
/// error names the envelopes still resident on its shards. A wedged
/// runtime's threads are left behind: the run fails and the process
/// exits.
pub fn finish_within(rt: Runtime) -> Result<RtReport, String> {
    // A weak census handle; it never delivers anything.
    let census = rt.remote_inbox(TaskRegistry::new(), || -> Box<dyn DecisionScheme> {
        Box::new(AlwaysMigrate)
    });
    let (done_tx, done_rx) = mpsc::channel();
    let finisher = std::thread::spawn(move || {
        let r = catch(move || rt.finish());
        let _ = done_tx.send(());
        r
    });
    match done_rx.recv_timeout(DRAIN_DEADLINE) {
        Ok(()) => finisher.join().map_err(|p| panic_text(&*p)).and_then(|r| r),
        Err(_) => Err(format!(
            "the runtime did not quiesce within {DRAIN_DEADLINE:?}; still resident: {:?}",
            census.backlog()
        )),
    }
}
