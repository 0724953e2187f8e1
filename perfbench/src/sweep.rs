//! `sweep`: the Figure 7/9 reliability sweep through `engine::Sweep`.
//!
//! A run is a fixed number of units; each unit is one `run_all` over all
//! seven schemes at the workload's `life_trials` per scheme on 2 worker threads
//! (Table I fault rates times the workload's `fit_scale`),
//! followed by a fixed-budget importance-sampled `TailSimulator` unit for
//! the two schemes whose failures are too rare for plain Monte Carlo.
//! The bit-sliced trial kernel, its scalar spill path and the
//! work-stealing scheduler do nearly all of the work.

use crate::golden::{fingerprint, Goldens};
use crate::util::{median, secs, Checks, Output, Tracer};
use crate::{Ctx, Mix, Section};
use std::hint::black_box;
use std::time::Instant;
use xed_faultsim::engine::Sweep;
use xed_faultsim::fit::{FitRates, ModeRate};
use xed_faultsim::montecarlo::SchemeResult;
use xed_faultsim::rareevent::{TailConfig, TailEstimate, TailSimulator};
use xed_faultsim::schemes::Scheme;
use xed_telemetry::registry::metrics;

/// Worker threads (the host has 2 vCPUs; never `0` = "all cores").
pub const THREADS: usize = 2;
/// Conditioned trials per scheme in one tail unit.
const TAIL_TRIALS: u64 = 1 << 16;
/// Input pools: unit seeds whose outputs are pinned in `goldens.txt`.
const LIFE_POOL: usize = 12;
const TAIL_POOL: usize = 6;
/// The lifetime part's share of an untraced unit's nominal cost.
const LIFE_PART: f64 = 0.65;
/// Schemes of the tail estimate (Figure 9's rare-failure pair).
const TAIL_SCHEMES: [Scheme; 2] = [Scheme::XedChipkill, Scheme::DoubleChipkill];

fn life_seed(idx: usize) -> u64 {
    0x5EED_0100 + idx as u64
}

fn tail_seed(idx: usize) -> u64 {
    0x5EED_0200 + idx as u64
}

/// Metric-name suffix of a scheme.
fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::NonEcc => "NonEcc",
        Scheme::EccDimm => "EccDimm",
        Scheme::Xed => "Xed",
        Scheme::Chipkill => "Chipkill",
        Scheme::ChipkillX4 => "ChipkillX4",
        Scheme::XedChipkill => "XedChipkill",
        Scheme::DoubleChipkill => "DoubleChipkill",
    }
}

/// The workload's fault rates: every Table I rate times `fit_scale`.
fn rates(mix: &Mix) -> FitRates {
    FitRates::custom(
        FitRates::table_i()
            .rows()
            .iter()
            .map(|r| ModeRate {
                transient_fit: r.transient_fit * mix.fit_scale,
                permanent_fit: r.permanent_fit * mix.fit_scale,
                ..*r
            })
            .collect(),
    )
}

fn sweep_of(mix: &Mix, trials: u64, seed: u64, threads: usize) -> Sweep {
    Sweep::new(trials, seed)
        .with_rates(rates(mix))
        .with_threads(threads)
}

fn life_unit(mix: &Mix, idx: usize, threads: usize) -> Vec<SchemeResult> {
    sweep_of(mix, mix.life_trials, life_seed(idx), threads)
        .run_all(&Scheme::ALL)
        .0
}

fn tail_sim(mix: &Mix, idx: usize, threads: usize) -> TailSimulator {
    TailSimulator::new(TailConfig {
        samples: TAIL_TRIALS,
        seed: tail_seed(idx),
        threads,
        rates: rates(mix),
        ..TailConfig::default()
    })
}

fn tail_unit(mix: &Mix, idx: usize, threads: usize) -> Vec<TailEstimate> {
    tail_sim(mix, idx, threads).run_all(&TAIL_SCHEMES)
}

fn check_life(
    g: &mut Goldens,
    checks: &mut Checks,
    mix: &Mix,
    idx: usize,
    results: &[SchemeResult],
) {
    for r in results {
        let value = format!(
            "{}/{}/{}",
            r.due,
            r.sdc,
            fingerprint(&format!(
                "{:?}{:?}",
                r.failures_by_year, r.failures_by_extent
            ))
        );
        g.expect(
            checks,
            format!("{}.sweep.life.{idx}.{}", mix.name, scheme_name(r.scheme)),
            value,
        );
    }
}

fn check_tail(
    g: &mut Goldens,
    checks: &mut Checks,
    mix: &Mix,
    idx: usize,
    estimates: &[TailEstimate],
) {
    for t in estimates {
        // Wall time and thread count are metadata; everything else is a
        // pure function of (seed, scheme, samples).
        let value = format!(
            "{}/{}/{}",
            t.mode.label(),
            t.failures,
            fingerprint(&format!(
                "{:?} {:?} {:?} {:?} {:?} {:?}",
                t.p_fail, t.p_due, t.p_sdc, t.variance, t.conditioning_probability, t.clique_rho
            ))
        );
        g.expect(
            checks,
            format!("{}.sweep.tail.{idx}.{}", mix.name, scheme_name(t.scheme)),
            value,
        );
    }
}

/// Records the goldens of both pools (1 thread, so the 2-thread runs
/// also check thread-count invariance).
pub fn record(g: &mut Goldens, mix: &Mix) {
    let mut scratch = Checks::default();
    for idx in 0..LIFE_POOL {
        check_life(g, &mut scratch, mix, idx, &life_unit(mix, idx, 1));
    }
    for idx in 0..TAIL_POOL {
        check_tail(g, &mut scratch, mix, idx, &tail_unit(mix, idx, 1));
    }
}

/// Fixed warm-up work: two lifetime units and one tail unit.
fn warm_up(ctx: &mut Ctx) {
    let mix = ctx.mix;
    for idx in [0, 1] {
        let r = life_unit(mix, idx, THREADS);
        check_life(&mut ctx.goldens, &mut ctx.checks, mix, idx, &r);
    }
    let t = tail_unit(mix, 0, THREADS);
    check_tail(&mut ctx.goldens, &mut ctx.checks, mix, 0, &t);
}

/// The untraced section: each unit is one lifetime `run_all` and one
/// tail estimate, timed separately.
struct Run {
    life_sched: Vec<usize>,
    tail_sched: Vec<usize>,
    life_rates: Vec<f64>,
    tail_rates: Vec<f64>,
}

pub fn start(ctx: &mut Ctx, units: usize) -> (f64, Box<dyn Section>) {
    let (setup_s, ()) = ctx.setup(warm_up);
    let run = Run {
        life_sched: ctx.rng.schedule(units, LIFE_POOL),
        tail_sched: ctx.rng.schedule(units, TAIL_POOL),
        life_rates: Vec::with_capacity(units),
        tail_rates: Vec::with_capacity(units),
    };
    (setup_s, Box::new(run))
}

impl Section for Run {
    fn unit(&mut self, ctx: &mut Ctx) {
        let i = self.life_rates.len();
        let (life_idx, tail_idx) = (self.life_sched[i], self.tail_sched[i]);
        let mix = ctx.mix;
        let t = Instant::now();
        let r = life_unit(mix, life_idx, THREADS);
        self.life_rates
            .push((mix.life_trials * Scheme::ALL.len() as u64) as f64 / secs(t));
        let t = Instant::now();
        let e = tail_unit(mix, tail_idx, THREADS);
        self.tail_rates
            .push((TAIL_TRIALS * TAIL_SCHEMES.len() as u64) as f64 / secs(t));
        check_life(&mut ctx.goldens, &mut ctx.checks, mix, life_idx, &r);
        check_tail(&mut ctx.goldens, &mut ctx.checks, mix, tail_idx, &e);
    }

    fn finish(self: Box<Self>, _ctx: &mut Ctx) -> Output {
        let mut out = Output::default();
        out.metric("trials_per_s", median(&self.life_rates), "1/s");
        out.metric("tail_trials_per_s", median(&self.tail_rates), "1/s");
        out.note(
            "units",
            format!(
                "{{\"units\":{},\"median_trials_per_s\":{:.0},\"median_tail_trials_per_s\":{:.0}}}",
                self.life_rates.len(),
                median(&self.life_rates),
                median(&self.tail_rates)
            ),
        );
        out
    }
}

/// Traced share of the run: per-layer figures of the Monte-Carlo stack.
pub fn traced(ctx: &mut Ctx, share: f64, tracer: &mut Tracer) -> Output {
    let mut out = Output::default();
    let mix = ctx.mix;
    warm_up(ctx);

    // Untraced/traced unit pairs at 2 threads (trace overhead, spill
    // ratio), interleaved with 1-thread units (scheduler scaling).
    let pairs = ctx
        .budget
        .units(share * 0.6, 3.0 * LIFE_PART * mix.unit_ms[0], 2);
    let sched = ctx.rng.schedule(pairs, LIFE_POOL);
    let trials0 = metrics::FAULTSIM_TRIALS.value();
    let spills0 = metrics::FAULTSIM_BITSLICE_SPILLS.value();
    let (mut plain, mut traced, mut single) = (Vec::new(), Vec::new(), Vec::new());
    for &idx in &sched {
        let t = Instant::now();
        let r = life_unit(mix, idx, THREADS);
        plain.push(secs(t));
        check_life(&mut ctx.goldens, &mut ctx.checks, mix, idx, &r);

        let t = Instant::now();
        let r = tracer.span("engine.sweep.run_all", 0, || life_unit(mix, idx, THREADS));
        traced.push(secs(t));
        check_life(&mut ctx.goldens, &mut ctx.checks, mix, idx, &r);

        let t = Instant::now();
        let r = tracer.span("engine.sweep.run_all_1t", 0, || life_unit(mix, idx, 1));
        single.push(secs(t));
        check_life(&mut ctx.goldens, &mut ctx.checks, mix, idx, &r);
    }
    let trials = metrics::FAULTSIM_TRIALS.value() - trials0;
    let spills = metrics::FAULTSIM_BITSLICE_SPILLS.value() - spills0;
    out.metric(
        "faultsim.spill_ratio",
        spills as f64 / trials.max(1) as f64,
        "ratio",
    );
    out.metric(
        "faultsim.scaling_2t",
        median(&single) / median(&plain),
        "ratio",
    );
    out.metric(
        "telemetry.trace_overhead.sweep",
        median(&plain) / median(&traced) - 1.0,
        "ratio",
    );
    out.note(
        "sweep_rates",
        format!(
            "{{\"trials_per_s_2t\":{:.0},\"trials_per_s_1t\":{:.0},\"spills\":{spills},\"trials\":{trials}}}",
            mix.life_trials as f64 * 7.0 / median(&plain),
            mix.life_trials as f64 * 7.0 / median(&single)
        ),
    );

    // The ledger's `thread_scaling` measurement (EccDimm alone, 1 vs 2
    // threads), for comparison with the all-scheme ratio above.
    let reps = if ctx.budget.smoke { 1 } else { 3 };
    let ecc_rate = |threads: usize, tracer: &mut Tracer| {
        let sweep = sweep_of(mix, mix.life_trials, life_seed(0), threads);
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(
                    tracer.span("engine.sweep.run_one", 0, || sweep.run_one(Scheme::EccDimm)),
                );
                secs(t)
            })
            .collect();
        mix.life_trials as f64 / median(&times)
    };
    let (one, two) = (ecc_rate(1, tracer), ecc_rate(2, tracer));
    out.note(
        "eccdimm_thread_scaling",
        format!(
            "{{\"trials_per_s_1t\":{one:.0},\"trials_per_s_2t\":{two:.0},\"ratio\":{:.3}}}",
            two / one
        ),
    );

    // Per-scheme trial cost at 1 thread (`Sweep::run_one`).
    for scheme in Scheme::ALL {
        let n = 200_000u64;
        let sweep = sweep_of(mix, n, life_seed(0), 1);
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(tracer.span("engine.sweep.run_one", 0, || sweep.run_one(scheme)));
                secs(t)
            })
            .collect();
        out.metric(
            format!("faultsim.trial_ns.{}", scheme_name(scheme)),
            median(&times) * 1e9 / n as f64,
            "ns",
        );
    }

    // Per-scheme tail trial cost at 1 thread.
    for scheme in TAIL_SCHEMES {
        let sim = tail_sim(mix, 0, 1);
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(tracer.span("faultsim.tail.run", 0, || sim.run(scheme)));
                secs(t)
            })
            .collect();
        out.metric(
            format!("faultsim.tail_trial_ns.{}", scheme_name(scheme)),
            median(&times) * 1e9 / TAIL_TRIALS as f64,
            "ns",
        );
    }
    out
}
