//! `sim-ocean`: the paper-scale OCEAN trace (64 threads on 64 cores,
//! first-touch placement) through the `em2-core` simulator, as pure
//! EM² (`run_em2`) and as EM²-RA with a history predictor
//! (`run_em2ra`), and through the `em2-optimal` migrate/remote-access
//! DP.
//!
//! The trace is fixed, so the simulated cycle counts and the DP cost
//! are checked against the reference values below. The seed is recorded
//! but drives no input: a seeded trace would have no reference.

use crate::calib::Bracket;
use crate::report::Outcome;
use crate::span::SpanLog;
use crate::stats::median;
use crate::Args;
use em2_core::decision::HistoryPredictor;
use em2_core::machine::MachineConfig;
use em2_placement::FirstTouch;
use em2_trace::gen::ocean::OceanConfig;
use em2_trace::Workload;
use std::time::Instant;

/// Reference accesses of the paper-scale trace.
pub const REF_ACCESSES: u64 = 2_247_005;
/// Reference `run_em2` simulated cycles.
pub const REF_EM2_CYCLES: u64 = 264_076;
/// Reference `run_em2ra` (history predictor) simulated cycles.
pub const REF_EM2RA_CYCLES: u64 = 253_643;
/// Reference DP optimum (network cost).
pub const REF_DP_COST: u64 = 730_484;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Passes per run at the least; `ops_per_s` is their median.
const MIN_PASSES: usize = 3;

const CORES: usize = 64;

fn setup(log: &SpanLog, req: u64) -> (Workload, FirstTouch, f64, f64) {
    let root = log.begin("setup", None, req);
    let s = log.begin("trace.gen", Some(root.id()), req);
    let w = OceanConfig::default().generate();
    let gen_s = log.end(s).dur_ns() as f64 / 1e9;
    let s = log.begin("placement.build", Some(root.id()), req);
    let p = FirstTouch::build(&w, CORES, 64);
    let place_s = log.end(s).dur_ns() as f64 / 1e9;
    log.end(root);
    (w, p, gen_s, place_s)
}

/// One pass of the trace through the three models.
struct Pass {
    em2_cycles: u64,
    em2ra_cycles: u64,
    dp_cost: u64,
    /// Wall-clock time of both simulator runs.
    sim_s: f64,
    /// Wall-clock time of the DP.
    dp_s: f64,
    /// The time of `run_em2`, `run_em2ra` and the DP, each in reference
    /// seconds.
    ref_s: [f64; 3],
}

/// Run the three models, each bracketed by calibration probes.
fn pass(
    w: &Workload,
    p: &FirstTouch,
    log: &SpanLog,
    req: u64,
    clock: &mut Bracket,
) -> Result<Pass, String> {
    let cfg = MachineConfig::with_cores(CORES);
    let s = log.begin("core.sim", None, req);
    let em2 = em2_core::sim::run_em2(cfg.clone(), w, p);
    let em2_s = log.end(s).dur_ns() as f64 / 1e9;
    let em2_ref = em2_s * clock.scale();
    let s = log.begin("core.sim", None, req);
    let em2ra =
        em2_core::sim::run_em2ra(cfg.clone(), w, p, Box::new(HistoryPredictor::new(1.0, 0.5)));
    let em2ra_s = log.end(s).dur_ns() as f64 / 1e9;
    let em2ra_ref = em2ra_s * clock.scale();
    let s = log.begin("optimal.dp", None, req);
    let (dp_cost, _) =
        em2_optimal::migrate_ra::workload_optimal_par(w, p, &cfg.cost, crate::host::nproc());
    let dp_s = log.end(s).dur_ns() as f64 / 1e9;
    let dp_ref = dp_s * clock.scale();
    for r in [&em2, &em2ra] {
        if !r.violations.is_empty() {
            return Err(format!(
                "{}: invariant violations {:?}",
                r.scheme, r.violations
            ));
        }
    }
    Ok(Pass {
        em2_cycles: em2.cycles,
        em2ra_cycles: em2ra.cycles,
        dp_cost,
        sim_s: em2_s + em2ra_s,
        dp_s,
        ref_s: [em2_ref, em2ra_ref, dp_ref],
    })
}

fn expect(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} is {got}, the reference is {want}"))
    }
}

/// Run `sim-ocean`.
pub fn run(args: &Args, out: &mut Outcome, log: &SpanLog) {
    let (mut gen, mut place, mut setups, mut last) = (Vec::new(), Vec::new(), Vec::new(), None);
    let mut clock = Bracket::start();
    for k in 0..SETUPS {
        // Drop the previous set-up first: two traces never coexist.
        drop(last.take());
        let (w, p, g, pl) = setup(log, k as u64);
        gen.push(g);
        place.push(pl);
        setups.push((g + pl) * clock.scale());
        last = Some((w, p));
    }
    let (w, p) = last.expect("at least one set-up");
    let accesses = w.total_accesses() as u64;
    out.check("trace size", expect("accesses", accesses, REF_ACCESSES));
    let t = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || t.elapsed().as_secs_f64() < args.seconds {
        match pass(&w, &p, log, passes.len() as u64, &mut clock) {
            Ok(ps) => {
                out.check(
                    "em2 cycles",
                    expect("run_em2 cycles", ps.em2_cycles, REF_EM2_CYCLES),
                );
                out.check(
                    "em2ra cycles",
                    expect("run_em2ra cycles", ps.em2ra_cycles, REF_EM2RA_CYCLES),
                );
                out.check("dp cost", expect("DP cost", ps.dp_cost, REF_DP_COST));
                passes.push(ps);
            }
            Err(e) => {
                out.check("sim pass", Err(e));
                return;
            }
        }
    }
    let col = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // A pass takes the median time of each model.
    let pass_ref_s: f64 = (0..3).map(|m| col(&|p| p.ref_s[m])).sum();
    out.set("ops_per_s", accesses as f64 / pass_ref_s);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", crate::host::workload_peak_rss_mb());
    out.raw(
        "ops_per_s",
        accesses as f64 / (col(&|p| p.sim_s) + col(&|p| p.dp_s)),
    );
    out.raw(
        "setup_s",
        median(
            &gen.iter()
                .zip(&place)
                .map(|(g, p)| g + p)
                .collect::<Vec<_>>(),
        ),
    );
    out.probes(&clock.probes);
    if args.trace {
        out.set("core.sim_s", col(&|p| p.sim_s));
        out.set("core.sim_cycles", passes[0].em2_cycles as f64);
        out.set("optimal.dp_s", col(&|p| p.dp_s));
        out.set("optimal.dp_cost", passes[0].dp_cost as f64);
        out.set("trace.gen_s", median(&gen));
        out.set("placement.build_s", median(&place));
    }
}
