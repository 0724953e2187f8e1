//! `perfbench`: the XED reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <nominal|stress> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--perturb-golden] [--spans <file>]
//! perfbench --record-goldens
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics untraced;
//! `--trace 1` runs the traced pass that prints every per-layer metric
//! (see BENCHMARK.md for the layer → end-to-end map). The last stdout
//! line is the result object; the line before it is the report (host
//! provenance, sample counts, layer labels).

mod datapath;
mod golden;
mod layers;
mod memsim;
mod serve;
mod sweep;
mod util;

use golden::Goldens;
use std::process::ExitCode;
use std::time::Instant;
use util::{json_num, json_obj, json_str, median, Budget, Checks, Output, Rng, Tracer};
use xed_memsim::ReliabilityScheme;

/// The sections every run drives, in report order, and each one's fixed
/// share of a run's units. Every run reports every end-to-end metric, so
/// every run drives all four; the workloads differ in their inputs.
pub const SECTIONS: [(&str, f64); 4] = [
    ("sweep", 0.25),
    ("serve", 0.3),
    ("memsim", 0.22),
    ("datapath", 0.23),
];

/// A workload: the inputs every section is driven with.
#[derive(Debug)]
pub struct Mix {
    pub name: &'static str,
    /// `sweep`: multiplier on every Table I FIT rate (lifetime and tail),
    /// and lifetime trials per scheme in one unit.
    pub fit_scale: f64,
    pub life_trials: u64,
    /// `serve`: Zipf exponent of key popularity, key population (the
    /// memo cache holds 256), one key in `tail_every` is `kind=tail`,
    /// and the percentage of `partials=1` requests.
    pub zipf_s: f64,
    pub population: usize,
    pub tail_every: usize,
    pub partials_pct: u64,
    /// `memsim`: the roster of inputs × reliability schemes in a round.
    pub roster: [(&'static str, ReliabilityScheme); 6],
    /// `datapath`: rows that have failed permanently, per system, and
    /// transient bit faults injected per system per unit.
    pub failed_rows: u32,
    pub transients: usize,
    /// Nominal unit cost of each section on the reference host, in ms
    /// (sizes the unit counts; never read from the clock).
    pub unit_ms: [f64; 4],
}

/// The workloads.
pub const MIXES: [Mix; 2] = [
    // The paper's operating point: Table I rates, hot keys, three
    // contrasting memsim inputs, a mostly clean line stream.
    Mix {
        name: "nominal",
        fit_scale: 1.0,
        life_trials: 1 << 20,
        zipf_s: 1.0,
        population: 1024,
        tail_every: 25,
        partials_pct: 3,
        roster: [
            ("mcf", ReliabilityScheme::baseline_secded()),
            ("mcf", ReliabilityScheme::chipkill_extra_burst()),
            ("lbm", ReliabilityScheme::baseline_secded()),
            ("lbm", ReliabilityScheme::double_chipkill_extra_burst()),
            ("libquantum", ReliabilityScheme::baseline_secded()),
            ("libquantum", ReliabilityScheme::chipkill_extra_burst()),
        ],
        failed_rows: 1,
        transients: 24,
        unit_ms: [140.0, 420.0, 260.0, 70.0],
    },
    // Worn parts and cold traffic: 10x the fault rates, keys over 8x the
    // cache, other memsim inputs, failed rows (on successive
    // chips) under 3/8 of the lines and 4x the transient faults.
    Mix {
        name: "stress",
        fit_scale: 10.0,
        life_trials: 1 << 17,
        zipf_s: 1.0,
        population: 2048,
        tail_every: 10,
        partials_pct: 6,
        roster: [
            ("omnetpp", ReliabilityScheme::baseline_secded()),
            ("omnetpp", ReliabilityScheme::double_chipkill_extra_burst()),
            ("GemsFDTD", ReliabilityScheme::baseline_secded()),
            ("GemsFDTD", ReliabilityScheme::chipkill_extra_burst()),
            ("comm1", ReliabilityScheme::baseline_secded()),
            ("comm1", ReliabilityScheme::chipkill_extra_transaction()),
        ],
        failed_rows: 12,
        transients: 96,
        unit_ms: [290.0, 600.0, 108.0, 115.0],
    },
];

/// The workload named on the command line.
fn mix(workload: &str) -> Option<&'static Mix> {
    MIXES.iter().find(|m| m.name == workload)
}

/// A seed reserved for confirming later performance claims: not to be
/// used while a change is being written or tuned.
pub const HELD_OUT_SEED: u64 = 20_161_011;

/// Times each set-up is run in a run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Per-run state shared by the workloads.
pub struct Ctx {
    pub mix: &'static Mix,
    pub budget: Budget,
    pub rng: Rng,
    pub goldens: Goldens,
    pub checks: Checks,
    /// Make every reference output wrong (self-test of the checks).
    pub perturb: bool,
    /// The set-up last run by [`Ctx::setup`], for the run to repeat:
    /// runs it again and returns its seconds.
    pub again: Option<Resetup>,
}

/// A section's set-up, repeatable; returns its seconds.
pub type Resetup = Box<dyn FnMut(&mut Ctx) -> f64>;

impl Ctx {
    /// Runs a set-up once and returns its seconds and its product. A
    /// copy is kept in `again`, which times the same set-up later in the
    /// run and drops its product untimed.
    pub fn setup<T: 'static>(&mut self, f: impl Fn(&mut Ctx) -> T + Copy + 'static) -> (f64, T) {
        let t = Instant::now();
        let v = f(self);
        let dt = util::secs(t);
        self.again = Some(Box::new(move |ctx: &mut Ctx| {
            let t = Instant::now();
            let v = f(ctx);
            let dt = util::secs(t);
            drop(v);
            dt
        }));
        (dt, v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    perturb: bool,
    spans: Option<String>,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        perturb: false,
        spans: None,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be an integer")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--perturb-golden" => args.perturb = true,
            "--spans" => args.spans = Some(value("--spans")?),
            "--record-goldens" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.record && mix(&args.workload).is_none() {
        let names: Vec<&str> = MIXES.iter().map(|m| m.name).collect();
        return Err(format!(
            "--workload must be one of {names:?}, got {:?}",
            args.workload
        ));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(args)
}

/// One workload's section of the untraced pass, driven unit by unit.
pub trait Section {
    /// Runs one timed unit (and checks its output).
    fn unit(&mut self, ctx: &mut Ctx);
    /// Runs the checks that need the whole run; returns the metrics.
    fn finish(self: Box<Self>, ctx: &mut Ctx) -> Output;
}

/// A section's constructor: runs its set-ups, returns the set-up median
/// and the section, ready for the given number of units.
type Start = fn(&mut Ctx, usize) -> (f64, Box<dyn Section>);

/// The untraced pass: all four sections, each with its share of units.
/// The sections' units are interleaved evenly over the whole run, so
/// each section samples the host's quiet and busy spells alike. Each
/// section's set-up runs `SETUP_REPS` times: once before the first unit,
/// and again at evenly spaced points of the run, for the same reason.
/// `setup_s` is the sum of the sections' set-up medians; the other
/// timings are rescaled by `normalize`.
fn run_untraced(ctx: &mut Ctx) -> Output {
    let mut setups: Vec<(Vec<f64>, Resetup)> = Vec::new();
    let mut sections: Vec<(&str, usize, Box<dyn Section>)> = Vec::new();
    for (i, (w, share)) in SECTIONS.into_iter().enumerate() {
        let start: Start = match w {
            "sweep" => sweep::start,
            "serve" => serve::start,
            "memsim" => memsim::start,
            _ => datapath::start,
        };
        let units = ctx.budget.units(share, ctx.mix.unit_ms[i], 4);
        let (setup, section) = start(ctx, units);
        let again = ctx
            .again
            .take()
            .expect("every section's start runs a set-up");
        setups.push((vec![setup], again));
        sections.push((w, units, section));
    }
    let reps = if ctx.budget.smoke { 1 } else { SETUP_REPS };
    // Even interleaving: always run the section furthest behind its
    // own schedule. The two host-speed probes (see `normalize`) are
    // timed before every unit.
    let total: usize = sections.iter().map(|(_, n, _)| n).sum();
    let mut done = vec![0usize; sections.len()];
    let mut unit_s: Vec<Vec<f64>> = vec![Vec::new(); sections.len()];
    let mut cal = Vec::with_capacity(total);
    let mut loop_s = Vec::with_capacity(total);
    let mut order = Vec::with_capacity(total);
    let loopback = util::Loopback::start();
    for u in 0..total {
        if u > 0 && u * reps / total != (u - 1) * reps / total {
            for (times, again) in &mut setups {
                times.push(again(ctx));
            }
        }
        cal.push(util::calibrate());
        loop_s.push(median(&loopback.probe(LOOPBACK_TRIPS)));
        let next = (0..sections.len())
            .filter(|&i| done[i] < sections[i].1)
            .min_by(|&a, &b| {
                let pa = (done[a] as f64 + 0.5) / sections[a].1 as f64;
                let pb = (done[b] as f64 + 0.5) / sections[b].1 as f64;
                pa.total_cmp(&pb)
            })
            .expect("a section with units left");
        let t = Instant::now();
        sections[next].2.unit(ctx);
        unit_s[next].push(util::secs(t));
        order.push(next);
        done[next] += 1;
    }
    let mut out = Output::default();
    out.note(
        "unit_ms_by_section",
        json_obj(
            sections
                .iter()
                .zip(&unit_s)
                .map(|((w, ..), t)| (*w, json_num(median(t) * 1e3))),
        ),
    );
    // Every unit's time, in run order, and the probes timed before each
    // unit of the run (for studying the host's noise).
    let list = |v: &[f64], scale: f64| {
        let s: Vec<String> = v.iter().map(|x| format!("{:.2}", x * scale)).collect();
        format!("[{}]", s.join(","))
    };
    out.note(
        "unit_ms",
        json_obj(
            sections
                .iter()
                .zip(&unit_s)
                .map(|((w, ..), t)| (*w, list(t, 1e3))),
        ),
    );
    out.note("probe_calibration_ms", list(&cal, 1e3));
    out.note("probe_loopback_us", list(&loop_s, 1e6));
    out.note("unit_order", format!("{order:?}"));
    for (w, _, section) in sections {
        let part = section.finish(ctx);
        out.metrics.extend(part.metrics);
        out.factors.extend(part.factors);
        for (k, v) in part.report {
            out.note(format!("{w}.{k}"), v);
        }
    }
    drop(loopback);
    let setup: Vec<f64> = setups.iter().map(|(times, _)| median(times)).collect();
    out.metric("setup_s", setup.iter().sum(), "s");
    out.note(
        "setup_s_by_section",
        json_obj(
            SECTIONS
                .iter()
                .zip(&setup)
                .map(|((w, _), s)| (*w, json_num(*s))),
        ),
    );
    normalize(&mut out, median(&cal) * 1e3, median(&loop_s) * 1e6);
    out
}

/// Round trips per loopback probe.
const LOOPBACK_TRIPS: usize = 40;
/// Median calibration-kernel time, and median loopback round trip, on
/// the reference host (the 2-vCPU VM of REPEATABILITY.md, in a quiet
/// spell).
const CALIBRATION_REF_MS: f64 = 2.4;
pub const LOOPBACK_REF_US: f64 = 48.0;

/// Rescales the run's timings to the reference host's speed. This shared
/// VM runs whole minutes 10–40 % slower or faster, and not every section
/// swings alike, so two program-independent probes are timed before
/// every unit: the calibration kernel (integer and L2-bound compute) and
/// 40 loopback round trips (connections, wake-ups, memory traffic). On
/// this host the sweep and memsim rates follow the first; serve's rate
/// and the datapath's line rate follow the second. Each is rescaled by
/// its probe's run median over the reference. A section may measure a
/// metric's factor itself (`Output::factors`): serve's latency
/// percentiles follow the same percentile of round trips timed between
/// its requests (see serve.rs). Rates are multiplied by the factor,
/// times divided. `setup_s` (unit `s`) stays raw. The raw values and the
/// factors go on the report.
fn normalize(out: &mut Output, calibration_ms: f64, loopback_us: f64) {
    let compute = calibration_ms / CALIBRATION_REF_MS;
    let loopback = loopback_us / LOOPBACK_REF_US;
    let raw: Vec<(&str, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), json_num(m.value)))
        .collect();
    let raw = json_obj(raw);
    let mut used = Vec::new();
    for m in &mut out.metrics {
        let factor = match (out.factors.get(&m.name), m.name.as_str()) {
            (Some(f), _) => *f,
            (None, "trials_per_s" | "tail_trials_per_s" | "sim_cycles_per_s") => compute,
            (None, _) => loopback,
        };
        match m.unit {
            "1/s" => {
                m.value *= factor;
                m.unit = REF_RATE;
            }
            "ms" => {
                m.value /= factor;
                m.unit = REF_MS;
            }
            _ => continue,
        }
        used.push((m.name.clone(), json_num(factor)));
    }
    out.note("raw_metrics", raw);
    out.note(
        "normalization",
        json_obj([
            ("calibration_ms", json_num(calibration_ms)),
            ("calibration_ref_ms", json_num(CALIBRATION_REF_MS)),
            ("compute_factor", json_num(compute)),
            ("loopback_us", json_num(loopback_us)),
            ("loopback_ref_us", json_num(LOOPBACK_REF_US)),
            ("loopback_factor", json_num(loopback)),
            (
                "factors",
                json_obj(used.iter().map(|(k, v)| (k.as_str(), v.clone()))),
            ),
        ]),
    );
}

/// Units of the rescaled end-to-end metrics: a rate, and a latency, at
/// the reference host's speed.
pub const REF_RATE: &str = "1/s_ref";
pub const REF_MS: &str = "ms_ref";

/// The traced pass: every section's traced part, at its share of 80 %
/// of the run, plus the per-layer probes.
fn run_traced(ctx: &mut Ctx, tracer: &mut Tracer) -> Output {
    let mut out = Output::default();
    for (w, share) in SECTIONS {
        let share = 0.8 * share;
        let part = match w {
            "sweep" => sweep::traced(ctx, share, tracer),
            "serve" => serve::traced(ctx, share, tracer),
            "memsim" => memsim::traced(ctx, share, tracer),
            _ => datapath::traced(ctx, share, tracer),
        };
        out.metrics.extend(part.metrics);
        out.report.extend(part.report);
    }
    let probes = layers::probes(ctx, 0.2, tracer);
    out.metrics.extend(probes.metrics);
    out.report.extend(probes.report);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        let mut g = Goldens::recording();
        for mix in &MIXES {
            sweep::record(&mut g, mix);
            memsim::record(&mut g, mix);
            datapath::record(&mut g, mix);
        }
        print!("{}", g.dump());
        return ExitCode::SUCCESS;
    }

    let mut ctx = Ctx {
        mix: mix(&args.workload).expect("the workload was validated by parse_args"),
        budget: Budget {
            seconds: args.seconds,
            smoke: args.smoke,
        },
        rng: Rng::new(args.seed),
        goldens: Goldens::load(args.perturb),
        checks: Checks::default(),
        perturb: args.perturb,
        again: None,
    };
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut out = if args.trace {
        run_traced(&mut ctx, &mut tracer)
    } else {
        run_untraced(&mut ctx)
    };
    if !args.trace {
        out.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
        out.metric("success_rate", ctx.checks.success_rate(), "ratio");
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tracer.chrome_json()) {
            eprintln!("perfbench: writing spans to {path}: {e}");
        }
    }
    for f in &ctx.checks.first_failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let mut report: Vec<(&str, String)> = vec![
        ("schema", json_str("xed-perfbench-report-v1")),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.smoke.to_string()),
        ("wall_s", json_num(started.elapsed().as_secs_f64())),
        (
            "host",
            util::host_block(&[
                ("sweep_workers", sweep::THREADS),
                ("xedd_workers", serve::WORKERS),
                ("clients", serve::CLIENTS),
                ("latency_clients", serve::LATENCY_CLIENTS),
                ("memsim", 1),
                ("datapath", 1),
            ]),
        ),
    ];
    for (k, v) in &out.report {
        report.push((k.as_str(), v.clone()));
    }
    if args.trace {
        report.push(("spans", tracer.summary()));
        report.push((
            "moves",
            json_obj(
                out.metrics
                    .iter()
                    .map(|m| (m.name.as_str(), json_str(layers::moves(&m.name)))),
            ),
        ));
    }
    println!("{}", json_obj(report));

    let metrics = json_obj(out.metrics.iter().map(|m| {
        (
            m.name.as_str(),
            json_obj([("value", json_num(m.value)), ("unit", json_str(m.unit))]),
        )
    }));
    let correct = ctx.checks.failed == 0 && ctx.checks.attempted > 0;
    println!(
        "{}",
        json_obj([
            ("correct", correct.to_string()),
            ("attempted", ctx.checks.attempted.to_string()),
            ("failed", ctx.checks.failed.to_string()),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}
