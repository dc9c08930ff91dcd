//! Metric names, units, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every run with `--trace 0` reports each of
/// these, on every workload, and none of them can read 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every run with `--trace 1` reports each of these.
/// A layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire_bytes_per_op", "B/op"),
    ("kv_p50_us", "us"),
    ("kv_p99_us", "us"),
    ("kv_max_rps", "1/s"),
    ("net.bytes_tx", "B"),
    ("net.frames_tx", "count"),
    ("net.journey_bytes", "B"),
    ("net.send_ns", "ns/call"),
    ("net.flushes", "count"),
    ("net.frames_per_flush", "frames"),
    ("net.recv_wait_ns", "ns/frame"),
    ("net.egress_hwm", "frames"),
    ("net.start_s", "s"),
    ("rt.wire_encode_ns", "ns/frame"),
    ("rt.wire_decode_ns", "ns/frame"),
    ("rt.polls", "1/op"),
    ("rt.steals", "1/op"),
    ("rt.parks", "1/op"),
    ("rt.resume_gap_ns", "ns"),
    ("rt.submit_ns", "ns/call"),
    ("rt.drain_s", "s"),
    ("rt.migrations", "count"),
    ("rt.remote_accesses", "count"),
    ("rt.context_bytes", "B"),
    ("core.decide_calls", "count"),
    ("core.decide_ns", "ns/call"),
    ("core.sim_s", "s"),
    ("core.sim_cycles", "cycles"),
    ("optimal.dp_s", "s"),
    ("optimal.dp_cost", "cycles"),
    ("trace.gen_s", "s"),
    ("placement.build_s", "s"),
    ("bench.injector_late_us", "us"),
    ("bench.clamped_samples", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Whether `name` is a valid metric name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Checked operations that failed (a mismatch, an error, a panic).
    pub failed: u64,
    /// Why each failure happened (printed to stderr).
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// The wall-clock values of the metrics reported in reference
    /// seconds ([`crate::calib`]), for the run's record.
    pub raw: BTreeMap<&'static str, f64>,
    /// Every calibration probe of the run, in seconds.
    pub probes: Vec<f64>,
}

impl Outcome {
    /// Count one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record the wall-clock value of a metric reported in reference
    /// seconds.
    pub fn raw(&mut self, name: &'static str, value: f64) {
        self.raw.insert(name, value);
    }

    /// Record calibration probes.
    pub fn probes(&mut self, probes: &[f64]) {
        self.probes.extend_from_slice(probes);
    }

    /// Whether every check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding each metric of `wanted`. A metric
    /// a workload did not measure reads 0.
    pub fn json(&self, wanted: &[(&str, &str)]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
