//! `memsim`: the Figure 11/12 performance simulation.
//!
//! A run is a fixed number of rounds; each round runs the workload's
//! roster (three contrasting inputs, each under the ECC-DIMM baseline and
//! a chipkill overlay) through `Simulation::run` with the functional ECC
//! datapath on. Single-threaded: the CPU front end, the
//! FR-FCFS scheduler with write drain, the DRAM state machines and the
//! eccpath decode do all the work.

use crate::golden::{fingerprint, Goldens};
use crate::util::{median, secs, Checks, Output, Tracer};
use crate::{Ctx, Mix, Section};
use std::hint::black_box;
use std::time::Instant;
use xed_memsim::eccpath::EccDatapath;
use xed_memsim::scheduler::{MemController, SchedConfig};
use xed_memsim::timing::DdrTiming;
use xed_memsim::trace::TraceGen;
use xed_memsim::{ReliabilityScheme, SimConfig, SimResult, Simulation, Workload};

/// The inputs of the per-input layer figures: read-heavy with low row
/// locality and a large footprint, write-heavy, and streaming.
const INPUTS: [&str; 3] = ["mcf", "lbm", "libquantum"];
/// Instructions each of the 8 cores retires per simulation.
const INSTRUCTIONS: u64 = 50_000;
/// Trace-generator seeds whose results are pinned in `goldens.txt`.
const SEED_POOL: usize = 4;

fn trace_seed(idx: usize) -> u64 {
    0xD1_5EED + 0x100 * idx as u64
}

fn config(input: &str, scheme: ReliabilityScheme, seed_idx: usize, ecc: bool) -> SimConfig {
    SimConfig {
        workload: Workload::by_name(input).expect("roster input is a known workload"),
        scheme,
        instructions_per_core: INSTRUCTIONS,
        seed: trace_seed(seed_idx),
        functional_ecc: ecc,
        ..SimConfig::default()
    }
}

fn simulate(input: &str, scheme: ReliabilityScheme, seed_idx: usize) -> SimResult {
    Simulation::new(config(input, scheme, seed_idx, true)).run()
}

fn check(g: &mut Goldens, checks: &mut Checks, seed_idx: usize, r: &SimResult) {
    let scheme: String = r
        .scheme_name
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect();
    g.expect(
        checks,
        format!("memsim.{}.{scheme}.{seed_idx}", r.workload_name),
        format!("{}/{}", r.cycles, fingerprint(&format!("{r:?}"))),
    );
}

pub fn record(g: &mut Goldens, mix: &Mix) {
    let mut scratch = Checks::default();
    for seed_idx in 0..SEED_POOL {
        for (input, scheme) in mix.roster {
            check(
                g,
                &mut scratch,
                seed_idx,
                &simulate(input, scheme, seed_idx),
            );
        }
    }
}

/// One round of the roster in a seeded order; returns the results in
/// roster order and the host seconds of each simulation.
fn round(ctx: &mut Ctx, seed_idx: usize, mut tracer: Option<&mut Tracer>) -> Vec<(SimResult, f64)> {
    let roster = ctx.mix.roster;
    let order = ctx.rng.schedule(roster.len(), roster.len());
    let mut out: Vec<Option<(SimResult, f64)>> = vec![None; roster.len()];
    for i in order {
        let (input, scheme) = roster[i];
        let t = Instant::now();
        let r = match tracer.as_deref_mut() {
            Some(tr) => tr.span("memsim.simulation.run", 0, || {
                simulate(input, scheme, seed_idx)
            }),
            None => simulate(input, scheme, seed_idx),
        };
        out[i] = Some((r, secs(t)));
    }
    out.into_iter()
        .map(|r| r.expect("every roster entry ran"))
        .collect()
}

fn span_name(input: &str) -> &'static str {
    match input {
        "mcf" => "memsim.simulation.run.mcf",
        "lbm" => "memsim.simulation.run.lbm",
        _ => "memsim.simulation.run.libquantum",
    }
}

/// Simulated memory cycles per host second over a round.
fn round_rate(results: &[(SimResult, f64)]) -> f64 {
    let cycles: u64 = results.iter().map(|(r, _)| r.cycles).sum();
    let host: f64 = results.iter().map(|(_, t)| t).sum();
    cycles as f64 / host
}

/// The untraced section: each unit is one round of the roster.
struct Run {
    sched: Vec<usize>,
    rates: Vec<f64>,
}

pub fn start(ctx: &mut Ctx, units: usize) -> (f64, Box<dyn Section>) {
    // Fixed warm-up: the first two roster entries.
    let (setup_s, ()) = ctx.setup(|ctx| {
        for (input, scheme) in &ctx.mix.roster[..2] {
            let r = simulate(input, *scheme, 0);
            check(&mut ctx.goldens, &mut ctx.checks, 0, &r);
        }
    });
    let run = Run {
        sched: ctx.rng.schedule(units, SEED_POOL),
        rates: Vec::with_capacity(units),
    };
    (setup_s, Box::new(run))
}

impl Section for Run {
    fn unit(&mut self, ctx: &mut Ctx) {
        let seed_idx = self.sched[self.rates.len()];
        let results = round(ctx, seed_idx, None);
        self.rates.push(round_rate(&results));
        for (r, _) in &results {
            check(&mut ctx.goldens, &mut ctx.checks, seed_idx, r);
        }
    }

    fn finish(self: Box<Self>, _ctx: &mut Ctx) -> Output {
        let mut out = Output::default();
        out.metric("sim_cycles_per_s", median(&self.rates), "1/s");
        out.note(
            "units",
            format!(
                "{{\"rounds\":{},\"sims_per_round\":6,\"median_sim_cycles_per_s\":{:.0}}}",
                self.rates.len(),
                median(&self.rates)
            ),
        );
        out
    }
}

pub fn traced(ctx: &mut Ctx, share: f64, tracer: &mut Tracer) -> Output {
    let mut out = Output::default();
    let pairs = ctx.budget.units(share * 0.6, 2.0 * ctx.mix.unit_ms[2], 1);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for p in 0..pairs {
        let seed_idx = p % SEED_POOL;
        for with_spans in [false, true] {
            let results = if with_spans {
                round(ctx, seed_idx, Some(tracer))
            } else {
                round(ctx, seed_idx, None)
            };
            let rate = round_rate(&results);
            if with_spans {
                traced.push(rate);
            } else {
                plain.push(rate);
            }
            for (r, _) in &results {
                check(&mut ctx.goldens, &mut ctx.checks, seed_idx, r);
            }
        }
    }
    out.metric(
        "telemetry.trace_overhead.memsim",
        median(&traced) / median(&plain) - 1.0,
        "ratio",
    );

    // Per-input figures: the baseline simulation of each input on pool
    // seed 0. Host cost per DRAM request is timed; the simulated
    // statistics are exact, and identical in every run.
    let reps = if ctx.budget.smoke { 1 } else { 3 };
    let mut profile = Vec::new();
    for input in INPUTS {
        let runs: Vec<(f64, SimResult)> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                let r = tracer.span(span_name(input), 0, || {
                    simulate(input, ReliabilityScheme::baseline_secded(), 0)
                });
                (secs(t), r)
            })
            .collect();
        for (_, r) in &runs {
            check(&mut ctx.goldens, &mut ctx.checks, 0, r);
        }
        let r = &runs[0].1;
        let host: Vec<f64> = runs.iter().map(|(t, _)| *t).collect();
        out.metric(
            format!("memsim.host_ns_per_request.{input}"),
            median(&host) * 1e9 / (r.reads + r.writes).max(1) as f64,
            "ns",
        );
        out.metric(
            format!("memsim.row_hit_rate.{input}"),
            r.row_hit_rate,
            "ratio",
        );
        out.metric(
            format!("memsim.bus_utilization.{input}"),
            r.bus_utilization,
            "ratio",
        );
        let target = Workload::by_name(input).map_or(f64::NAN, |w| w.row_hit);
        profile.push(format!(
            "\"{input}\":{{\"simulated_row_hit\":{:.4},\"profile_row_hit\":{target}}}",
            r.row_hit_rate
        ));
    }
    out.note(
        "memsim_row_hit_vs_profile",
        format!("{{{}}}", profile.join(",")),
    );

    // Functional-ECC cost: the same simulation with the decode path on
    // and off (timing must be identical; only the ecc counters differ).
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for ecc in [true, false] {
            let cfg = config("mcf", ReliabilityScheme::baseline_secded(), 0, ecc);
            let t = Instant::now();
            let r = Simulation::new(cfg).run();
            let dt = secs(t);
            if ecc {
                on.push((dt, r));
            } else {
                off.push((dt, r));
            }
        }
    }
    for ((_, a), (_, b)) in on.iter().zip(&off) {
        ctx.checks.check(
            a.cycles == b.cycles && a.reads == b.reads && a.writes == b.writes,
            || "functional ECC changed the simulated timing".into(),
        );
    }
    let t_on: Vec<f64> = on.iter().map(|(t, _)| *t).collect();
    let t_off: Vec<f64> = off.iter().map(|(t, _)| *t).collect();
    out.metric(
        "memsim.functional_ecc_overhead",
        median(&t_on) / median(&t_off),
        "ratio",
    );

    // Layer probes below the simulation driver.
    let mcf = Workload::by_name("mcf").expect("mcf profile");
    let topology = ReliabilityScheme::baseline_secded().topology();
    let n_ops = if ctx.budget.smoke { 20_000 } else { 400_000 };
    let mut gen = TraceGen::new(mcf, topology, 0, 8, trace_seed(0));
    let t = Instant::now();
    for _ in 0..n_ops {
        black_box(gen.next_op());
    }
    out.metric("memsim.tracegen_ns", secs(t) * 1e9 / n_ops as f64, "ns");

    // Scheduler: one core's mcf stream fed as fast as the queues accept.
    let mut gen = TraceGen::new(mcf, topology, 0, 1, trace_seed(0));
    let mut mc = MemController::new(topology, DdrTiming::ddr3_1600(), SchedConfig::default());
    let ticks = if ctx.budget.smoke { 20_000u64 } else { 300_000 };
    let mut pending = gen.next_op();
    let mut completed = 0usize;
    let mut id = 0u64;
    let t = Instant::now();
    for now in 0..ticks {
        let accepted = if pending.is_write {
            mc.enqueue_write(id, pending.line_addr, now)
        } else {
            mc.enqueue_read(id, pending.line_addr, now)
        };
        if accepted {
            id += 1;
            pending = gen.next_op();
        }
        completed += mc.tick(now).len();
    }
    let dt = secs(t);
    ctx.checks
        .check(completed > 0, || "scheduler completed no request".into());
    out.metric("memsim.sched_tick_ns", dt * 1e9 / ticks as f64, "ns");

    let mut path = EccDatapath::new();
    let n_lines = if ctx.budget.smoke { 20_000u64 } else { 400_000 };
    let t = Instant::now();
    for line in 0..n_lines {
        black_box(path.read_line(black_box(line.wrapping_mul(0x9E37))));
    }
    out.metric(
        "memsim.eccpath_read_ns",
        secs(t) * 1e9 / n_lines as f64,
        "ns",
    );
    out
}
