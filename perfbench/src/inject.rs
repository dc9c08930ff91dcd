//! The open-loop injector.
//!
//! Request `i` of a stream at `rate` per second is due at
//! `start + i / rate`, a fixed absolute schedule that does not depend
//! on how fast the system under test runs. The injector never submits
//! a request before its due instant; when it runs late it submits the
//! overdue requests back to back and records each one's lateness, and
//! each request's latency is measured from its due instant, so a stall
//! charges its wait to every request queued behind it.

use std::time::{Duration, Instant};

/// Sleeping is only trusted this far ahead of the due instant; the
/// rest of the wait polls the clock, since a sleep can overshoot by the
/// timer slack.
const POLL_WINDOW: Duration = Duration::from_micros(500);

/// What one injected stream did.
#[derive(Debug, Default)]
pub struct Injected {
    /// Requests submitted.
    pub submitted: u64,
    /// Per-request lateness, submit instant minus due instant, in ns.
    pub late_ns: Vec<u64>,
    /// When the last request was submitted.
    pub last_submit: Option<Instant>,
}

/// Block until `due` has passed and return the instant observed. Never
/// returns earlier than `due`.
pub fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > POLL_WINDOW * 2 {
            std::thread::sleep(left - POLL_WINDOW);
        } else {
            // Yield rather than spin: on a host with as many CPUs as
            // busy threads, a spinning injector leaves the kernel's
            // own work nowhere to run but on a worker's CPU.
            std::thread::yield_now();
        }
    }
}

/// The due instant of request `i` in a stream at `rate` per second.
pub fn due(start: Instant, rate: f64, i: u64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// Submit `n` requests at a fixed `rate` per second from `start`:
/// `submit(i, due)` is called for each in order, no earlier than its
/// due instant, with the due instant as the request's arrival time.
pub fn run(start: Instant, rate: f64, n: u64, mut submit: impl FnMut(u64, Instant)) -> Injected {
    assert!(rate > 0.0, "the injection rate must be positive");
    let mut out = Injected {
        late_ns: Vec::with_capacity(n as usize),
        ..Injected::default()
    };
    for i in 0..n {
        let due = due(start, rate, i);
        let now = wait_until(due);
        out.late_ns
            .push(now.saturating_duration_since(due).as_nanos() as u64);
        submit(i, due);
        out.submitted += 1;
    }
    out.last_submit = Some(Instant::now());
    out
}
