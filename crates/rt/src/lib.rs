//! # em2-rt
//!
//! An **executable** computation-migration DSM runtime — the paper's
//! EM²/EM²-RA machine run on real OS threads instead of a simulated
//! clock. Where `em2-core` *models* the machine, this crate *is* one:
//!
//! * each "core" is a **shard**: a poll-able state machine owning a
//!   partition of a word-granular sharded heap (address → home via an
//!   [`em2_placement::Placement`] policy) and a mailbox serviced in
//!   arrival order. A **multiplexed work-stealing executor** runs
//!   `S ≫ W` shards on `W` worker threads (default: the host's
//!   parallelism) — the paper's 64–1024-core geometries instantiate
//!   on any host, and a shard blocked on a remote reply or barrier
//!   parks its continuation, never a thread;
//! * user code runs as **migratable task continuations**
//!   ([`Task`]): sequential programs yielding memory operations, whose
//!   live state serializes to a small context ([`Task::context_bytes`])
//!   — a trace-replay continuation is 24 bytes;
//! * a non-local access consults a reused `em2-core`
//!   [`em2_core::decision::DecisionScheme`] — one instance per thread,
//!   carried in the migrating envelope, so the hot path takes **no
//!   lock** (the run monitor and barriers are likewise shard-local or
//!   atomic; DESIGN.md §8 has the lock-elimination table) — and either
//!   **migrates**
//!   (the context ships to the home shard's mailbox, admitted into a
//!   bounded guest pool with eviction-back-to-native for deadlock
//!   avoidance — [`em2_core::context::ContextPool`], executed for
//!   real) or performs a word-granular **remote access**
//!   (request/reply messages, serviced at the home in arrival order);
//! * the same counters come out: Figure-1/3 flow edges and the
//!   Figure-2 run-length histogram via the engine's
//!   [`em2_engine::RunMonitor`].
//!
//! **Cross-process seam** (PR 5): the message protocol is public as
//! [`wire`] — a versioned binary codec for the Arrive / Request /
//! Response / BarrierRelease seam — and the runtime can run as one
//! **node** of a multi-process cluster ([`Runtime::start_node`]):
//! messages addressed outside the locally owned shard range leave
//! through a [`NodeLink`], inbound frames inject through
//! [`Runtime::remote_inbox`], and migrated-in continuations are
//! rebuilt by a [`TaskRegistry`]. The `em2-net` crate supplies the
//! transports (loopback/UDS/TCP), membership, and cluster-wide
//! barriers/quiesce; DESIGN.md §9 documents the wire format and the
//! distribution-invariance argument.
//!
//! **Cross-validation** (experiment E11, `crates/rt/tests`): with an
//! eviction-free guest pool the runtime's migration / remote-access
//! counts and run-length histogram are *bit-identical* to the
//! simulator's on the same workload, placement, and scheme — the
//! decision sequence is a pure function of per-thread program order,
//! which real concurrency only permutes across threads. Wall-clock
//! timing is the one axis that does **not** carry over; the runtime
//! reports measured ops/sec instead of simulated cycles. DESIGN.md §7
//! documents the model and the invariant argument.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod exec;
mod shard;

pub mod directory;
pub mod mpsc;
pub mod runtime;
pub mod task;
pub mod wire;

pub use directory::ShardDirectory;
pub use runtime::{
    run_tasks, run_workload, InboxBacklog, NodeLink, NodeRole, RemoteInbox, RtConfig, RtReport,
    Runtime, SchedStats, TaskSpec,
};
pub use task::{Op, Task, TaskRegistry, TraceTask};
