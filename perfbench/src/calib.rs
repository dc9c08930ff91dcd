//! Host-speed calibration.
//!
//! On a shared virtual machine the same code runs at different speeds
//! from one minute to the next and from one CPU to the other: on the
//! 2-vCPU host this benchmark was sized on, a fixed loop ran in 9.7 ms
//! for twenty seconds and in 7.3 ms for the next forty, and the two
//! CPUs differed by a third at the same moment. Wall-clock figures of
//! whole runs taken minutes apart therefore differ by more than any
//! regression bound worth having.
//!
//! So every measured interval is bracketed by [`probe`]s, which time a
//! fixed reference kernel on every CPU, and reported in *reference
//! seconds*: `interval × REF_PROBE_S / probe`, with `probe` the mean of
//! the probes before and after it. The kernel is the benchmark's own
//! code, so a change to the program moves a normalised figure exactly
//! as much as the raw one, while a slow spell of the host slows the
//! probe too and cancels. The raw figures are kept in each run's record.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// About the probe's time on the reference host (Intel Xeon, 2 vCPUs),
/// so that reference seconds stay close to wall seconds there.
pub const REF_PROBE_S: f64 = 0.0023;

/// Words of the kernel's table: 4 MiB, larger than the per-core caches,
/// so the kernel waits on memory as well as computing, like the
/// workloads do.
const TABLE_WORDS: usize = 1 << 19;

/// The table's size in MiB. It stays resident from the first probe
/// on, so the process's memory high-water mark includes it.
pub const TABLE_MIB: f64 = (TABLE_WORDS * 8) as f64 / (1 << 20) as f64;

/// Rounds per kernel pass; each round makes one lookup in each of
/// [`CHAINS`] independent chains.
const ROUNDS: u64 = 50_000;

/// Independent lookup chains, so the kernel overlaps memory accesses
/// the way ordinary code does rather than waiting on one at a time.
const CHAINS: usize = 4;

/// Kernel passes per CPU per probe; the fastest counts, so a probe
/// that is preempted once still reads the CPU's speed.
const PASSES: usize = 3;

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    })
}

/// One kernel pass: [`CHAINS`] chains of random reads, each read mixed
/// into its chain's next index. Returns its duration in seconds.
fn kernel(t: &[u64], seed: u64) -> f64 {
    let start = Instant::now();
    let mask = (t.len() - 1) as u64;
    let mut xs = [0u64; CHAINS];
    for (i, x) in xs.iter_mut().enumerate() {
        *x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (2 * i as u64 + 1);
    }
    for _ in 0..ROUNDS {
        for x in xs.iter_mut() {
            let v = t[(*x & mask) as usize];
            *x = (*x ^ v).wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
        }
    }
    black_box(xs);
    start.elapsed().as_secs_f64()
}

/// Time the reference kernel on every CPU at once and return the mean
/// over CPUs of each one's fastest pass, in seconds.
pub fn probe() -> f64 {
    let t = table();
    let cpus = crate::host::nproc();
    let times: Vec<f64> = std::thread::scope(|sc| {
        let hs: Vec<_> = (0..cpus)
            .map(|c| {
                sc.spawn(move || {
                    (0..PASSES)
                        .map(|p| kernel(t, (c * PASSES + p) as u64))
                        .fold(f64::INFINITY, f64::min)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("the kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// A run of measured intervals, each bracketed by probes: the probe
/// after one interval is the probe before the next.
pub struct Bracket {
    last: f64,
    /// Every probe taken, in seconds.
    pub probes: Vec<f64>,
}

impl Bracket {
    /// Take the first probe.
    pub fn start() -> Bracket {
        let last = probe();
        Bracket {
            last,
            probes: vec![last],
        }
    }

    /// Probe again and return the scale of the interval since the
    /// previous probe: reference seconds per wall second, from the
    /// mean of the two probes.
    pub fn scale(&mut self) -> f64 {
        let now = probe();
        self.probes.push(now);
        let k = scale(self.last, now);
        self.last = now;
        k
    }
}

/// Reference seconds per wall second between probes reading `before`
/// and `after`.
pub fn scale(before: f64, after: f64) -> f64 {
    REF_PROBE_S * 2.0 / (before + after)
}
