//! Traced wrappers around the program's public seams.
//!
//! The traced run swaps in these wrappers; the program itself carries
//! no tracing. Each wrapper delegates every call unchanged and times
//! it, so the deterministic counters of a traced run equal those of an
//! untraced one:
//!
//! * [`TracedScheme`] wraps a `DecisionScheme` (state bytes included,
//!   so it is wire-transparent);
//! * [`TracedTask`] wraps a `Task`. A task that crosses a process
//!   boundary is rebuilt from its registry without the wrapper, so it
//!   is used only on in-process runtimes;
//! * [`TracedTransport`] wraps a `Transport` the way the chaos harness
//!   does, and can keep a copy of every frame sent for decoding later.

use em2_core::decision::{Decision, DecisionCtx, DecisionScheme, SchemeStateError};
use em2_model::{CoreId, ThreadId};
use em2_net::{Acceptor, Duplex, FrameRx, FrameTx, Transport};
use em2_rt::{Op, Task};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A count and a summed duration, bumped from any thread. Relaxed:
/// the values publish no other data and are read after the threads
/// that bump them have been joined.
#[derive(Debug, Default)]
pub struct Agg {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Agg {
    /// Zeroed.
    pub const fn new() -> Self {
        Agg {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    /// Add one event that took `d`.
    pub fn add(&self, d: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Events added.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Summed duration in ns.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Mean duration per event in ns (0 with no events).
    pub fn mean_ns(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.total_ns() as f64 / n as f64,
        }
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// `DecisionScheme::decide` calls of traced schemes.
pub static DECIDE: Agg = Agg::new();

/// Gaps between one task's consecutive `Task::resume` calls.
pub static RESUME_GAP: Agg = Agg::new();

/// A decision scheme that times each `decide` into [`DECIDE`].
pub struct TracedScheme(pub Box<dyn DecisionScheme>);

impl DecisionScheme for TracedScheme {
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        let t = Instant::now();
        let d = self.0.decide(ctx);
        DECIDE.add(t.elapsed());
        d
    }

    fn observe_run(&mut self, thread: ThreadId, home: CoreId, len: u64) {
        self.0.observe_run(thread, home, len);
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.0.state_bytes()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SchemeStateError> {
        self.0.load_state(bytes)
    }
}

/// A task that records the gap between its consecutive resumes into
/// [`RESUME_GAP`]: the time the runtime held it between two steps.
pub struct TracedTask {
    inner: Box<dyn Task>,
    last: Option<Instant>,
}

impl TracedTask {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Task>) -> Self {
        TracedTask { inner, last: None }
    }
}

impl Task for TracedTask {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        if let Some(last) = self.last {
            RESUME_GAP.add(last.elapsed());
        }
        let op = self.inner.resume(reply);
        self.last = Some(Instant::now());
        op
    }

    fn context_bytes(&self) -> Vec<u8> {
        self.inner.context_bytes()
    }

    fn context_len(&self) -> u64 {
        self.inner.context_len()
    }

    fn wire_kind(&self) -> Option<u32> {
        self.inner.wire_kind()
    }
}

/// What the traced transport saw, summed over every connection.
#[derive(Default)]
pub struct NetTap {
    /// `send_frame`/`send_frames` calls: each is one flush.
    pub send: Agg,
    /// Frames passed to those calls.
    pub frames: AtomicU64,
    /// `recv_frame` calls that returned a frame, timed from the call.
    pub recv: Agg,
    /// Copies of sent frames, kept when capturing.
    pub captured: Mutex<Vec<Vec<u8>>>,
    capture: bool,
}

impl NetTap {
    /// A tap that keeps a copy of every frame sent iff `capture`.
    pub fn new(capture: bool) -> Arc<Self> {
        Arc::new(NetTap {
            capture,
            ..NetTap::default()
        })
    }

    fn sent(&self, took: Duration, frames: &[&[u8]]) {
        self.send.add(took);
        self.frames
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        if self.capture {
            self.captured
                .lock()
                .expect("no sender panicked while capturing")
                .extend(frames.iter().map(|f| f.to_vec()));
        }
    }
}

/// A transport whose connections report into a [`NetTap`].
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    tap: Arc<NetTap>,
}

impl TracedTransport {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Transport>, tap: Arc<NetTap>) -> Self {
        TracedTransport { inner, tap }
    }
}

fn wrap(d: Duplex, tap: &Arc<NetTap>) -> Duplex {
    Duplex {
        tx: Box::new(TracedTx {
            inner: d.tx,
            tap: Arc::clone(tap),
        }),
        rx: Box::new(TracedRx {
            inner: d.rx,
            tap: Arc::clone(tap),
        }),
    }
}

impl Transport for TracedTransport {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Acceptor>> {
        Ok(Box::new(TracedAcceptor {
            inner: self.inner.listen(addr)?,
            tap: Arc::clone(&self.tap),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        Ok(wrap(self.inner.connect(addr)?, &self.tap))
    }
}

struct TracedAcceptor {
    inner: Box<dyn Acceptor>,
    tap: Arc<NetTap>,
}

impl Acceptor for TracedAcceptor {
    fn accept(&mut self) -> io::Result<Duplex> {
        Ok(wrap(self.inner.accept()?, &self.tap))
    }

    fn accept_deadline(&mut self, deadline: Instant) -> io::Result<Duplex> {
        Ok(wrap(self.inner.accept_deadline(deadline)?, &self.tap))
    }
}

struct TracedTx {
    inner: Box<dyn FrameTx>,
    tap: Arc<NetTap>,
}

impl FrameTx for TracedTx {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        self.inner.send_frame(payload)?;
        self.tap.sent(t.elapsed(), &[payload]);
        Ok(())
    }

    fn send_frames(&mut self, payloads: &[Vec<u8>]) -> io::Result<()> {
        let t = Instant::now();
        self.inner.send_frames(payloads)?;
        let frames: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
        self.tap.sent(t.elapsed(), &frames);
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        self.inner.close()
    }
}

struct TracedRx {
    inner: Box<dyn FrameRx>,
    tap: Arc<NetTap>,
}

impl FrameRx for TracedRx {
    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let t = Instant::now();
        let r = self.inner.recv_frame();
        if let Ok(Some(_)) = &r {
            self.tap.recv.add(t.elapsed());
        }
        r
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }
}
