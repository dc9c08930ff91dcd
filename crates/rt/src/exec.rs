//! The multiplexed work-stealing executor: the only scheduler the
//! runtime has.
//!
//! `W` worker threads cooperatively run `S ≫ W` shard state machines.
//! Each shard's mailbox carries a scheduling state
//! (`IDLE/QUEUED/RUNNING/RUNNING_DIRTY`, see `shard.rs`); a message
//! send transitions an idle shard to QUEUED and pushes its id onto a
//! per-worker run queue (home queue = `shard % W`, for affinity). A
//! worker pops its own queue front, steals from other queues' backs
//! when empty, and **parks on a condvar** when nothing is runnable
//! anywhere — there are no spin loops: every poll is provoked by a
//! message or a requeue, and an idle runtime performs zero polls (the
//! regression test in `crates/rt/tests/executor.rs` pins this).
//!
//! A shard that blocks on a remote reply or a barrier parks its
//! *continuation* (the envelope sits in `awaiting`/`parked` inside the
//! shard core); the worker moves on to the next shard. This is what
//! lets S = 1024 shards run on a 1-CPU host without standing up 1024
//! OS threads.
//!
//! Wakeup correctness: a parking worker increments `sleepers` and
//! re-checks `pending` *after* that increment (both SeqCst, under the
//! sleep mutex); a scheduler increments `pending` *before* loading
//! `sleepers`. In any sequentially-consistent interleaving, either the
//! scheduler sees the sleeper (and notifies under the mutex) or the
//! sleeper sees the pending work (and never waits) — lost wakeups are
//! impossible.

use crate::shard::{Shared, SHARD_IDLE, SHARD_QUEUED, SHARD_RUNNING};
use em2_obs::{SingleWriterCounter, WorkerObs};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Scheduler state of the executor.
pub(crate) struct Sched {
    workers: usize,
    /// Per-worker run queues of shard ids. Sharded locks: a queue is
    /// touched by its owner (front) and by stealers (back).
    runqs: Vec<Mutex<VecDeque<usize>>>,
    /// Shards currently queued across all run queues (sleep gate).
    pending: AtomicUsize,
    /// Workers committed to sleeping (wakeup handshake; see module
    /// docs).
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    /// Telemetry: shards taken from another worker's queue.
    pub(crate) steals: AtomicU64,
    /// Telemetry: times a worker went to sleep.
    pub(crate) parks: AtomicU64,
}

impl Sched {
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers > 0);
        Sched {
            workers,
            runqs: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Enqueue a shard (its state is already QUEUED) and wake a worker
    /// if any is sleeping.
    pub(crate) fn schedule(&self, shard: usize) {
        {
            let mut q = self.runqs[shard % self.workers].lock().expect("run queue");
            q.push_back(shard);
            // Increment while still holding the queue lock: a pop (and
            // its decrement) requires this lock, so every decrement is
            // preceded by its matching increment and `pending` can
            // never underflow — an underflowed (huge) `pending` would
            // turn park() into a busy-spin.
            self.pending.fetch_add(1, Ordering::SeqCst);
        }
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep_lock.lock().expect("sleep lock");
            self.sleep_cv.notify_one();
        }
    }

    /// Wake every sleeping worker (shutdown).
    pub(crate) fn wake_all(&self) {
        drop(self.sleep_lock.lock());
        self.sleep_cv.notify_all();
    }

    /// Next shard for worker `w`: own queue first (FIFO), then steal
    /// from the other queues' backs.
    fn next(&self, w: usize, obs: Option<&WorkerObs>) -> Option<usize> {
        {
            let mut q = self.runqs[w].lock().expect("run queue");
            if let Some(s) = q.pop_front() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(s);
            }
        }
        for i in 1..self.workers {
            if let Some(o) = obs {
                o.steal_attempts.bump(1);
            }
            let mut q = self.runqs[(w + i) % self.workers]
                .lock()
                .expect("run queue");
            if let Some(s) = q.pop_back() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = obs {
                    o.steals.bump(1);
                }
                return Some(s);
            }
        }
        None
    }

    /// Park until scheduled work exists or shutdown is flagged. May
    /// wake spuriously; the caller's loop re-scans.
    fn park(&self, shared: &Shared, obs: Option<&WorkerObs>) {
        let guard = self.sleep_lock.lock().expect("sleep lock");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.pending.load(Ordering::SeqCst) > 0 || shared.shutdown.load(Ordering::SeqCst) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = obs {
            o.parks.bump(1);
        }
        drop(self.sleep_cv.wait(guard).expect("sleep cv"));
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Body of one executor worker thread.
pub(crate) fn worker_loop(shared: &Shared, w: usize) {
    let sched = &shared.sched;
    // Timing-plane handle for this worker (`None` when obs is off).
    let wobs = shared
        .obs
        .as_ref()
        .map(|o| std::sync::Arc::clone(o.worker(w)));
    let wobs = wobs.as_deref();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match sched.next(w, wobs) {
            Some(shard) => {
                if let Some(o) = wobs {
                    o.shard_polls.bump(1);
                }
                run_shard(shared, shard);
            }
            None => sched.park(shared, wobs),
        }
    }
}

/// Poll one shard and settle its scheduling state: requeue while it
/// has runnable tasks or undrained messages, otherwise return it to
/// IDLE (re-arming the send path), catching the message-raced-in case
/// via RUNNING_DIRTY.
fn run_shard(shared: &Shared, shard: usize) {
    let mb = &shared.mailboxes[shard];
    mb.state.store(SHARD_RUNNING, Ordering::SeqCst);
    let more = {
        let mut core = shared.cores[shard].lock().expect("shard core");
        core.poll(shared)
    };
    // `ready()`, not `is_empty()`: the poller is the consumer here, so
    // it may inspect the pop link directly — `len`'s transient
    // over-report during a mid-flight push would requeue for a drain
    // that finds nothing (the pusher's own DIRTY transition already
    // covers that item), inflating the O(work) poll bound.
    let requeue = more
        || mb.queue.ready()
        || mb
            .state
            .compare_exchange(
                SHARD_RUNNING,
                SHARD_IDLE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err();
    if requeue && !shared.shutdown.load(Ordering::Acquire) {
        mb.state.store(SHARD_QUEUED, Ordering::SeqCst);
        shared.sched.schedule(shard);
    }
}
