//! The benchmark's own tests: metric names, the injector's schedule,
//! span arithmetic, the result line, host calibration and hop-log
//! bytes.

use em2_rt::wire::{HopCause, Journey, JourneyHop, WireEnvelope};
use perfbench::report::{valid_name, Outcome, END_TO_END, PER_LAYER};
use perfbench::span::{self_time_ns, summarize, Span, SpanLog};
use perfbench::{calib, codec, inject};
use perfbench::{Args, WORKLOADS};
use std::time::{Duration, Instant};

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} of {name}");
        assert!(seen.insert(*name), "metric {name} listed twice");
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "invalid workload name {w:?}");
        assert!(seen.insert(*w), "workload {w} reuses a metric name");
    }
    assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
}

#[test]
fn name_rule_rejects_what_it_should() {
    for bad in ["", ".rt", "-x", "a b", "rt/polls", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    for good in [
        "rt.polls",
        "kv_p50_us",
        "0x",
        "net.frames-tx",
        &"x".repeat(64),
    ] {
        assert!(valid_name(good), "{good:?} rejected");
    }
}

/// The manifest at the repository root names exactly the workloads and
/// metrics the benchmark prints.
#[test]
fn manifest_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = text
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
        })
        .collect();
    let want: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|(n, _)| *n))
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .collect();
    assert_eq!(names, want);
}

#[test]
fn injector_never_submits_early() {
    let start = Instant::now() + Duration::from_millis(2);
    let rate = 200_000.0;
    let mut seen = Vec::new();
    let got = inject::run(start, rate, 2_000, |i, due| {
        seen.push((i, due, Instant::now()));
    });
    assert_eq!(got.submitted, 2_000);
    assert_eq!(got.late_ns.len(), 2_000);
    for (k, (i, due, at)) in seen.into_iter().enumerate() {
        assert_eq!(i, k as u64);
        assert_eq!(
            due,
            inject::due(start, rate, i),
            "arrival is the due instant"
        );
        assert!(at >= due, "request {i} submitted before its due instant");
    }
}

#[test]
fn a_stalled_injector_catches_up_late_but_never_early() {
    let start = Instant::now();
    let rate = 10_000.0;
    let mut seen = Vec::new();
    let got = inject::run(start, rate, 50, |i, due| {
        seen.push((due, Instant::now()));
        if i == 10 {
            std::thread::sleep(Duration::from_millis(3));
        }
    });
    assert!(seen.iter().all(|(due, at)| at >= due));
    // The 3 ms stall makes the next requests (due every 100 µs) late.
    assert!(got.late_ns[11] >= 2_000_000, "lateness {}", got.late_ns[11]);
}

#[test]
fn wait_until_returns_no_earlier_than_due() {
    for us in [0u64, 5, 50, 500, 3_000] {
        let due = Instant::now() + Duration::from_micros(us);
        assert!(inject::wait_until(due) >= due);
    }
}

fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "s",
        req: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_clipped_children() {
    let p = span(0, None, 0, 100);
    assert_eq!(self_time_ns(&p, &[]), 100);
    // Overlapping children count once; a child running past the parent
    // is clipped; one outside it counts nothing.
    let kids = [
        span(1, Some(0), 10, 30),
        span(2, Some(0), 20, 40),
        span(3, Some(0), 90, 120),
        span(4, Some(0), 150, 160),
    ];
    let refs: Vec<&Span> = kids.iter().collect();
    assert_eq!(self_time_ns(&p, &refs), 100 - 30 - 10);
    // A child covering the parent leaves no self time.
    let all = span(5, Some(0), 0, 100);
    assert_eq!(self_time_ns(&p, &[&all]), 0);
    // A nested child is contained in its parent: adjacent intervals.
    let a = span(6, Some(0), 0, 50);
    let b = span(7, Some(0), 50, 100);
    assert_eq!(self_time_ns(&p, &[&a, &b]), 0);
}

#[test]
fn summary_charges_self_time_to_each_level() {
    let spans = vec![
        Span {
            name: "root",
            ..span(0, None, 0, 100)
        },
        Span {
            name: "mid",
            ..span(1, Some(0), 10, 60)
        },
        Span {
            name: "leaf",
            ..span(2, Some(1), 20, 30)
        },
        Span {
            name: "leaf",
            ..span(3, Some(1), 40, 45)
        },
    ];
    let s = summarize(&spans);
    assert_eq!(s["root"], (1, 100, 50));
    assert_eq!(s["mid"], (1, 50, 35));
    assert_eq!(s["leaf"], (2, 15, 15));
}

#[test]
fn span_log_links_children_to_parents() {
    let log = SpanLog::new();
    let root = log.begin("root", None, 7);
    let child = log.begin("child", Some(root.id()), 7);
    let c = log.end(child);
    let r = log.end(root);
    assert_eq!(c.parent, Some(r.id));
    assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
    assert_eq!(log.spans().len(), 2);
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let mut out = Outcome::default();
    out.check("a", Ok(()));
    out.set("ops_per_s", 1.5);
    let line = out.json(END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{line}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
    }
    out.check("b", Err("mismatch".into()));
    assert!(out
        .json(END_TO_END)
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}

#[test]
fn args_parse_the_benchmark_command_line() {
    let a = Args::parse(
        [
            "--workload",
            "kv-open",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]
        .into_iter()
        .map(String::from),
    )
    .expect("valid");
    assert_eq!(
        a,
        Args {
            workload: "kv-open".into(),
            seed: 7,
            seconds: 15.0,
            trace: true
        }
    );
    for bad in [
        vec!["--workload", "nope"],
        vec!["--workload", "kv-open", "--trace", "2"],
        vec!["--workload", "kv-open", "--seconds", "0"],
        vec!["--workload", "kv-open", "--seed"],
        vec!["--seed", "1"],
    ] {
        assert!(Args::parse(bad.into_iter().map(String::from)).is_err());
    }
}

#[test]
fn calibration_scales_by_the_mean_probe() {
    let r = calib::REF_PROBE_S;
    assert_eq!(calib::scale(r, r), 1.0);
    // A host running at half speed reads twice the reference probe: a
    // second of its wall clock is half a reference second.
    assert_eq!(calib::scale(2.0 * r, 2.0 * r), 0.5);
    assert_eq!(calib::scale(r, 3.0 * r), 0.5);
}

#[test]
fn a_probe_reads_a_positive_time() {
    let p = calib::probe();
    assert!(p > 0.0 && p < 1.0, "probe {p} s");
}

fn envelope(hops: usize) -> WireEnvelope {
    let mut journey = Journey::default();
    for i in 0..hops {
        journey.push(JourneyHop {
            shard: i as u32,
            node: 1,
            epoch: 7,
            cause: HopCause::Migrate,
        });
    }
    WireEnvelope {
        thread: 3,
        native: 2,
        task_kind: 1,
        task_ctx: vec![9; 24],
        scheme_state: vec![1, 2, 3],
        pending_op: None,
        pending_reply: None,
        parked_at: None,
        run: Some((4, 10)),
        journey,
    }
}

#[test]
fn journey_bytes_follow_the_encoder() {
    assert_eq!(codec::journey_len(&envelope(0)), 0);
    let mut last = 0;
    for hops in 1..6 {
        let n = codec::journey_len(&envelope(hops));
        assert!(
            n > last,
            "{hops} hops: {n} bytes, {} hops: {last}",
            hops - 1
        );
        last = n;
    }
}
