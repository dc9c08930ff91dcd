//! A benchmark-grade sharded key-value service on the **executable**
//! `em2-rt` runtime: the multiplexed executor serves KV traffic, and
//! every non-local operation either migrates the request task to the
//! key's home shard or performs a word-granular remote access —
//! decided per access by the same `em2-core` decision schemes the
//! simulator uses.
//!
//! Two measurements per scheme:
//!
//! 1. **Closed-loop clients** — 16 long-lived clients issue mixed
//!    reads/writes as fast as the runtime retires them, each verifying
//!    read-your-writes on its own key range; the table shows how the
//!    scheme splits the same workload between migration and remote
//!    access, and the throughput it gets.
//! 2. **Open-loop serving** — a fixed-rate injector submits
//!    independent KV request *tasks* at 50% of the scheme's measured
//!    capacity; every request is stamped with its intended arrival
//!    time, so the p50/p95/p99 latencies include queueing delay even
//!    when the injector falls behind (no coordinated omission). The
//!    same panel is recorded in `BENCH.json` under `runtime.latency`.
//!
//! ```text
//! cargo run --release --example runtime_kv
//! ```
//!
//! `--stats-interval <ms>` (in either mode) adds a live one-line
//! metrics summary per tick — requests/s, task-latency p50/p99, guest
//! occupancy, egress queue depth — sampled from the `em2-obs` plane,
//! which the flag forces on programmatically.
//!
//! **Cluster mode** (`--node <id> --cluster <spec>`) launches the same
//! KV service as a *real multi-process distributed DSM* over `em2-net`:
//! every process owns a contiguous shard range, clients migrate (or
//! remote-access) across address spaces, and each client still
//! verifies read-your-writes — now across processes. Run each node in
//! its own terminal with the same spec:
//!
//! ```text
//! cargo run --release --example runtime_kv -- \
//!     --node 0 --cluster uds:/tmp/em2-kv.sock,nodes=2,shards=16 &
//! cargo run --release --example runtime_kv -- \
//!     --node 1 --cluster uds:/tmp/em2-kv.sock,nodes=2,shards=16
//! ```
//!
//! (`tcp:127.0.0.1:7600,nodes=2,shards=16` works across hosts.)

use em2::core::decision::DecisionScheme;
use em2::model::{Addr, CoreId, DetRng, ThreadId};
use em2::net::{ClusterSpec, NodeRuntime};
use em2::obs::{NodeObs, ObsConfig};
use em2::placement::{Placement, Striped};
use em2::rt::{Op, RtConfig, RtReport, Runtime, Task, TaskRegistry, TaskSpec};
use em2_bench::serving::{kv_open_loop, scheme_panel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 16;
const CLIENTS: usize = 16;
const OPS_PER_CLIENT: usize = 4_000;
/// Keys per client's private range.
const OWN_KEYS: u64 = 64;
/// Hot keys shared by every client.
const HOT_KEYS: u64 = 16;
/// Open-loop requests per scheme.
const REQUESTS: u64 = 4_000;

fn addr_of(key: u64) -> Addr {
    Addr(key * 8)
}

/// What the client is in the middle of.
enum KvState {
    /// Free to issue the next operation.
    Idle,
    /// A put to an owned key completed; read it back next.
    ReadBack { key: u64, want: u64 },
    /// The read-back is in flight; verify its reply.
    Verify { want: u64 },
}

/// One closed-loop KV client: a migratable continuation issuing gets
/// and puts.
struct KvClient {
    rng: DetRng,
    own_base: u64,
    version: u64,
    ops_left: usize,
    state: KvState,
    verified: u64,
}

impl KvClient {
    /// Wire kind tag (1 and 2 are taken by `TraceTask`/`KvRequest`).
    const WIRE_KIND: u32 = 3;

    fn new(id: usize) -> Self {
        KvClient {
            rng: DetRng::new(0x4b56).fork(id as u64),
            own_base: HOT_KEYS + id as u64 * OWN_KEYS,
            version: 0,
            ops_left: OPS_PER_CLIENT,
            state: KvState::Idle,
            verified: 0,
        }
    }

    /// Rebuild a migrated-in client from its context bytes (the
    /// receiving half of a cross-process migration).
    fn from_context_bytes(ctx: &[u8]) -> Result<Self, String> {
        (|| {
            let mut r = em2::model::bytes::Cursor::new(ctx);
            let rng = DetRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
            let own_base = r.u64()?;
            let version = r.u64()?;
            let ops_left = r.u64()? as usize;
            let verified = r.u64()?;
            let (tag, a, v) = (r.u8()?, r.u64()?, r.u64()?);
            r.finish()?;
            let state = match tag {
                0 => KvState::Idle,
                1 => KvState::ReadBack { key: a, want: v },
                2 => KvState::Verify { want: v },
                tag => {
                    return Err(em2::model::bytes::CodecError::BadTag {
                        what: "kv client state",
                        tag,
                    })
                }
            };
            Ok(KvClient {
                rng,
                own_base,
                version,
                ops_left,
                verified,
                state,
            })
        })()
        .map_err(|e: em2::model::bytes::CodecError| format!("kv client context: {e}"))
    }

    fn registry() -> TaskRegistry {
        let mut r = TaskRegistry::new();
        r.register(KvClient::WIRE_KIND, |ctx| {
            KvClient::from_context_bytes(ctx).map(|t| Box::new(t) as Box<dyn Task>)
        });
        r
    }
}

impl Task for KvClient {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        match std::mem::replace(&mut self.state, KvState::Idle) {
            KvState::Verify { want } => {
                let got = reply.expect("a read returns a value");
                assert_eq!(got, want, "read-your-writes violated across shards");
                self.verified += 1;
            }
            KvState::ReadBack { key, want } => {
                self.state = KvState::Verify { want };
                return Op::Read(addr_of(key));
            }
            KvState::Idle => {}
        }
        if self.ops_left == 0 {
            assert!(self.verified > 0, "a client must verify some writes");
            return Op::Done;
        }
        self.ops_left -= 1;
        match self.rng.below(100) {
            // put an owned key, then verify the round trip
            0..=39 => {
                let key = self.own_base + self.rng.below(OWN_KEYS);
                self.version += 1;
                let value = self.version ^ (key << 20);
                self.state = KvState::ReadBack { key, want: value };
                Op::Write(addr_of(key), value)
            }
            // get a hot shared key
            40..=79 => Op::Read(addr_of(self.rng.below(HOT_KEYS))),
            // put a hot shared key
            _ => {
                let key = self.rng.below(HOT_KEYS);
                Op::Write(addr_of(key), self.version)
            }
        }
    }

    fn context_bytes(&self) -> Vec<u8> {
        // The client's live registers: version, ops_left, verified,
        // state tag + operands, and the RNG state — 81 bytes, the
        // "small serialized context" migrations actually ship.
        let mut b = Vec::with_capacity(81);
        for w in self.rng.state() {
            b.extend_from_slice(&w.to_le_bytes());
        }
        b.extend_from_slice(&self.own_base.to_le_bytes());
        b.extend_from_slice(&self.version.to_le_bytes());
        b.extend_from_slice(&(self.ops_left as u64).to_le_bytes());
        b.extend_from_slice(&self.verified.to_le_bytes());
        let (tag, a, v): (u8, u64, u64) = match self.state {
            KvState::Idle => (0, 0, 0),
            KvState::ReadBack { key, want } => (1, key, want),
            KvState::Verify { want } => (2, 0, want),
        };
        b.push(tag);
        b.extend_from_slice(&a.to_le_bytes());
        b.extend_from_slice(&v.to_le_bytes());
        debug_assert_eq!(b.len() as u64, self.context_len());
        b
    }

    fn context_len(&self) -> u64 {
        81
    }

    fn wire_kind(&self) -> Option<u32> {
        Some(KvClient::WIRE_KIND)
    }
}

/// Live metrics printer behind `--stats-interval <ms>`: a thread that
/// samples the obs registry every tick (relaxed atomic reads; it never
/// locks the runtime) and prints one summary line — requests retired
/// per second over the window, cumulative task-latency p50/p99 bounds,
/// current guest-pool occupancy, current egress queue depth, the top-3
/// hot home shards by attributed placement cost, and the current
/// directory epoch. Dropping the ticker stops the thread.
struct StatsTicker {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StatsTicker {
    fn spawn(obs: Arc<NodeObs>, interval_ms: u64) -> StatsTicker {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (mut last_retired, mut last_at) = (0u64, Instant::now());
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(interval_ms));
                let s = obs.snapshot();
                let now = Instant::now();
                let dt = now.duration_since(last_at).as_secs_f64();
                let rps = (s.retired.saturating_sub(last_retired)) as f64 / dt.max(1e-9);
                let h = &s.task_latency_ns;
                let heat: String = obs
                    .placement_heat(3)
                    .iter()
                    .map(|(shard, cost)| format!(" s{shard}:{cost}"))
                    .collect();
                eprintln!(
                    "[obs] {rps:>9.0} req/s | task p50 {:>7.1}us p99 {:>8.1}us | \
                     guests {:>2} | egress {:>3} | heat{} | epoch {}",
                    h.quantile(0.50) as f64 / 1e3,
                    h.quantile(0.99) as f64 / 1e3,
                    s.guest_occupancy,
                    s.egress_depth,
                    if heat.is_empty() { " -" } else { &heat },
                    s.dir_epoch,
                );
                (last_retired, last_at) = (s.retired, now);
            }
        });
        StatsTicker {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for StatsTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The example's `RtConfig`: `--stats-interval` forces the obs plane
/// on programmatically (no env var involved) so the ticker has a
/// registry to sample.
fn kv_config(stats_ms: Option<u64>) -> RtConfig {
    let mut cfg = RtConfig::with_shards(SHARDS);
    if stats_ms.is_some() {
        cfg.obs = Some(ObsConfig::on());
    }
    cfg
}

fn run_closed_loop(
    scheme_factory: fn() -> Box<dyn DecisionScheme>,
    stats_ms: Option<u64>,
) -> RtReport {
    let tasks: Vec<TaskSpec> = (0..CLIENTS)
        .map(|i| {
            TaskSpec::new(
                Box::new(KvClient::new(i)) as Box<dyn Task>,
                em2::model::CoreId::from(i % SHARDS),
            )
        })
        .collect();
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(SHARDS, 64));
    let mut rt = Runtime::start(
        kv_config(stats_ms),
        "kv-mixed",
        placement,
        scheme_factory,
        Vec::new(),
    );
    let _ticker = stats_ms.map(|ms| StatsTicker::spawn(rt.obs().expect("obs forced on"), ms));
    for spec in tasks {
        rt.submit(spec);
    }
    rt.finish()
}

/// One scheme's closed-loop run as one node of a multi-process
/// cluster: this process submits the clients native to its shard
/// range; the rest of the traffic arrives over the wire.
fn run_closed_loop_cluster(
    spec: &ClusterSpec,
    node: usize,
    scheme_factory: fn() -> Box<dyn DecisionScheme>,
    stats_ms: Option<u64>,
) -> em2::net::NetReport {
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(SHARDS, 64));
    let mut nrt = NodeRuntime::start_with_transport(
        spec.kind.make(),
        spec.clone(),
        node,
        kv_config(stats_ms),
        "kv-mixed",
        placement,
        KvClient::registry(),
        scheme_factory,
        Vec::new(),
    )
    .expect("join the cluster (is every node running with the same --cluster spec?)");
    let _ticker = stats_ms.map(|ms| StatsTicker::spawn(nrt.obs().expect("obs forced on"), ms));
    let (first, count) = spec.span(node);
    for i in 0..CLIENTS {
        let native = i % SHARDS;
        if native >= first && native < first + count {
            nrt.submit(
                TaskSpec::new(
                    Box::new(KvClient::new(i)) as Box<dyn Task>,
                    CoreId::from(native),
                ),
                ThreadId(i as u32),
            );
        }
    }
    nrt.finish()
        .expect("cluster run failed (a peer died or timed out)")
}

/// The multi-process service: each node runs the scheme panel in
/// lockstep (same order, fresh cluster per scheme) and prints its
/// local slice of the counters plus the wire telemetry.
fn main_cluster(spec: ClusterSpec, node: usize, stats_ms: Option<u64>) {
    if node >= spec.num_nodes() {
        eprintln!(
            "--node {node} is not in a {}-node cluster",
            spec.num_nodes()
        );
        std::process::exit(2);
    }
    assert_eq!(
        spec.total_shards, SHARDS,
        "this service is built for {SHARDS} shards; pass shards={SHARDS} in --cluster"
    );
    let (first, count) = spec.span(node);
    println!(
        "distributed KV service on em2-net: node {node}/{} over {}, owning shards {first}..{}",
        spec.num_nodes(),
        spec.kind.name(),
        first + count
    );
    println!(
        "{CLIENTS} clients x {OPS_PER_CLIENT} ops cluster-wide; every client verifies \
         read-your-writes across process boundaries\n"
    );
    println!(
        "{:<18} {:>10} {:>9} {:>10} {:>12} {:>12} {:>9}",
        "scheme", "migrations", "RA", "local", "x-node ctxs", "wire bytes", "Mops/s"
    );
    for factory in scheme_panel() {
        let r = run_closed_loop_cluster(&spec, node, factory, stats_ms);
        println!(
            "{:<18} {:>10} {:>9} {:>10} {:>12} {:>12} {:>9.2}",
            r.rt.scheme,
            r.rt.flow.migrations,
            r.rt.flow.remote_reads + r.rt.flow.remote_writes,
            r.rt.flow.local_accesses,
            r.wire.arrives_tx,
            r.wire.bytes_tx,
            r.rt.ops_per_sec() / 1e6,
        );
    }
    println!(
        "\ncounters above are this node's local slice (each access executes on exactly one \
         node); E12 pins the cluster-wide sums bit-equal to the single-process run"
    );
}

/// Remove `name <value>` from `args`, returning the value.
fn take_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        eprintln!("{name} takes a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stats_ms: Option<u64> = take_value(&mut args, "--stats-interval").map(|v| {
        let ms = v.parse().expect("--stats-interval takes milliseconds");
        assert!(ms > 0, "--stats-interval must be positive");
        ms
    });
    let cluster = take_value(&mut args, "--cluster");
    let node = take_value(&mut args, "--node");
    if !args.is_empty() {
        eprintln!(
            "usage: runtime_kv [--stats-interval <ms>] \
             [--node <id> --cluster <kind>:<base>,nodes=<N>,shards=16]"
        );
        std::process::exit(2);
    }
    if let Some(cluster) = cluster {
        let node: usize = node
            .expect("--cluster requires --node <id>")
            .parse()
            .expect("--node takes a node id");
        let spec = ClusterSpec::parse(&cluster).unwrap_or_else(|e| {
            eprintln!("bad --cluster spec: {e}");
            std::process::exit(2);
        });
        main_cluster(spec, node, stats_ms);
        return;
    }

    println!(
        "sharded KV service on em2-rt: {SHARDS} shards on the multiplexed executor, \
         {CLIENTS} clients x {OPS_PER_CLIENT} ops"
    );
    println!("(8-byte values, 64-byte-line striped placement, 2 guest contexts per shard)\n");

    println!("== closed-loop clients (verified read-your-writes) ==");
    println!(
        "{:<18} {:>10} {:>9} {:>9} {:>10} {:>12} {:>9}",
        "scheme", "migrations", "RA", "evictions", "local", "ctx bytes", "Mops/s"
    );
    for factory in scheme_panel() {
        let r = run_closed_loop(factory, stats_ms);
        println!(
            "{:<18} {:>10} {:>9} {:>9} {:>10} {:>12} {:>9.2}",
            r.scheme,
            r.flow.migrations,
            r.flow.remote_reads + r.flow.remote_writes,
            r.flow.evictions,
            r.flow.local_accesses,
            r.context_bytes_sent,
            r.ops_per_sec() / 1e6,
        );
    }
    println!("\nevery client verified read-your-writes on its own key range\n");

    println!("== open-loop serving ({REQUESTS} requests/scheme @ 50% of measured capacity) ==");
    println!(
        "{:<18} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "scheme", "offered/s", "served/s", "p50 us", "p95 us", "p99 us", "max us"
    );
    for factory in scheme_panel() {
        let l = kv_open_loop(SHARDS, REQUESTS, 0.5, factory);
        println!(
            "{:<18} {:>10.0} {:>10.0} {:>9.1} {:>9.1} {:>9.1} {:>10.1}",
            l.scheme, l.offered_rps, l.achieved_rps, l.p50_us, l.p95_us, l.p99_us, l.max_us
        );
    }
    println!(
        "\nlatency measured from each request's intended arrival instant \
         (queueing included; no coordinated omission)"
    );
}
