//! `datapath`: a functional cache-line stream through `xed_core`.
//!
//! Each unit boots a fresh x8 `XedDimm` and x4 `XedChipkillSystem`,
//! fills `LINES` lines, then times a seeded 2:1 mix of `read_line` and
//! `write_line` on both under the workload's fault schedule: most lines
//! stay clean, some take transient bit faults, permanently failed rows
//! sit under others, and a few lines carry faults on more
//! chips than the code can correct (the expected typed `XedError`).
//! Without this workload `core`, and the SECDED/CRC8/RS decode kernels
//! on the catch-word and erasure path, go unmeasured.

use crate::golden::{fingerprint, Goldens};
use crate::util::{median, secs, Checks, Output, Rng, Tracer};
use crate::{Ctx, Mix, Section};
use std::time::Instant;
use xed_core::chip::WordAddr;
use xed_core::fault::{FaultKind, InjectedFault};
use xed_core::xed_chipkill::XedChipkillSystem;
use xed_core::{XedConfig, XedDimm, XedError, XedStats};

/// Lines in use per system (banks 0, rows 0–31 of the small geometry).
const LINES: u64 = 4096;
/// Columns per row of the small geometry (lines per row).
const COLS: u64 = 128;
/// Operations per unit (both systems together).
const OPS: usize = 30_000;
/// Unit seeds whose `XedStats` totals are pinned in `goldens.txt`.
const POOL: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sys {
    X8,
    X4,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(Sys, u64, u64),
    Read(Sys, u64),
    /// Inject a transient bit fault: system, line, chip, bit.
    Transient(Sys, u64, usize, u32),
}

/// Line state the checks need: what was written, and which fault (if
/// any) currently sits under the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Under {
    Clean,
    Faulty,
    /// More faulty chips than the code corrects: a typed error is
    /// expected (the goldens pin which).
    Uncorrectable,
}

#[derive(Debug)]
struct Unit {
    x8: XedDimm,
    x4: XedChipkillSystem,
    ops: Vec<Op>,
    written: [Vec<u64>; 2],
    under: [Vec<Under>; 2],
    /// The permanently failed rows of each system.
    failed_rows: [Vec<u64>; 2],
}

fn addr(line: u64) -> WordAddr {
    WordAddr {
        bank: 0,
        row: (line / COLS) as u32,
        col: (line % COLS) as u32,
    }
}

fn line_data8(v: u64) -> [u64; 8] {
    std::array::from_fn(|i| v.rotate_left(8 * i as u32) ^ (i as u64).wrapping_mul(0x9E37_79B9))
}

fn line_data4(v: u64) -> [u32; 16] {
    std::array::from_fn(|i| (v.rotate_left(4 * i as u32) as u32) ^ (i as u32).wrapping_mul(0x2545))
}

fn unit_seed(idx: usize) -> u64 {
    0xDA7A_0000 + idx as u64
}

/// Boots the systems, fills every line, installs the permanent faults
/// and generates the timed operation stream. Untimed.
fn prepare(mix: &Mix, idx: usize) -> Unit {
    let seed = unit_seed(idx);
    let mut rng = Rng::new(seed);
    let mut x8 = XedDimm::new(XedConfig {
        seed,
        ..XedConfig::default()
    });
    let mut x4 = XedChipkillSystem::new(seed);
    let mut written = [vec![0u64; LINES as usize], vec![0u64; LINES as usize]];
    for line in 0..LINES {
        let v = rng.next_u64();
        written[0][line as usize] = v;
        x8.write_line(line, &line_data8(v));
        let v = rng.next_u64();
        written[1][line as usize] = v;
        x4.write_line(line, &line_data4(v));
    }
    let mut under = [
        vec![Under::Clean; LINES as usize],
        vec![Under::Clean; LINES as usize],
    ];
    let rows = (LINES / COLS) as u32;

    // Permanently failed rows, 128 lines each, on successive chips from a
    // seeded first one (so no line has two failed chips, and no chip
    // collects enough failed rows to be condemned).
    let mut failed_rows: [Vec<u64>; 2] = Default::default();
    for (s, chips) in [(0, 9), (1, 18)] {
        let mut first = None;
        while failed_rows[s].len() < mix.failed_rows as usize {
            let row = rng.below(u64::from(rows));
            if failed_rows[s].contains(&row) {
                continue;
            }
            let first = *first.get_or_insert_with(|| rng.below(chips) as usize);
            let chip = (first + failed_rows[s].len()) % chips as usize;
            let fault =
                InjectedFault::row(0, row as u32, FaultKind::Permanent).with_seed(rng.next_u64());
            if s == 0 {
                x8.inject_fault(chip, fault);
            } else {
                x4.inject_fault(chip, fault);
            }
            failed_rows[s].push(row);
            for col in 0..COLS {
                under[s][(row * COLS + col) as usize] = Under::Faulty;
            }
        }
    }

    // Beyond correction: two failed chips under one x8 line (outside the
    // failed rows), three under one x4 line. Each takes two stuck bits in
    // the word, which its on-die SECDED is guaranteed to detect, so the
    // controller sees every failed chip's catch-word. (A wider word fault
    // can be silently miscorrected on die; the reconstruction then
    // returns wrong data, the residual XED accepts in Section VIII.)
    let pick_clean = |rng: &mut Rng, under: &[Under]| loop {
        let line = rng.below(LINES);
        if under[line as usize] == Under::Clean {
            break line;
        }
    };
    let stuck = |rng: &mut Rng, line: u64, bits: u64| {
        let first = rng.below(bits) as u32;
        let second = (first + 1 + rng.below(bits - 1) as u32) % bits as u32;
        [first, second].map(|bit| {
            InjectedFault::bit(addr(line), bit, FaultKind::Permanent).with_seed(rng.next_u64())
        })
    };
    let l8 = pick_clean(&mut rng, &under[0]);
    for chip in [1usize, 6] {
        for fault in stuck(&mut rng, l8, 72) {
            x8.inject_fault(chip, fault);
        }
    }
    under[0][l8 as usize] = Under::Uncorrectable;
    let l4 = pick_clean(&mut rng, &under[1]);
    for chip in [2usize, 9, 15] {
        for fault in stuck(&mut rng, l4, 40) {
            x4.inject_fault(chip, fault);
        }
    }
    under[1][l4 as usize] = Under::Uncorrectable;

    // The timed stream: 2 reads per write, x8 and x4 alternating, with
    // transient bit faults on clean lines spread evenly through it.
    let every = OPS / mix.transients;
    let mut ops = Vec::with_capacity(OPS + 2 * mix.transients);
    let mut planned = [under[0].clone(), under[1].clone()];
    for i in 0..OPS {
        let sys = if i % 2 == 0 { Sys::X8 } else { Sys::X4 };
        let s = sys as usize;
        if i % every == 0 {
            let line = pick_clean(&mut rng, &planned[s]);
            planned[s][line as usize] = Under::Faulty;
            let (chips, bits) = if sys == Sys::X8 { (9, 72) } else { (18, 40) };
            let chip = rng.below(chips) as usize;
            let bit = rng.below(bits) as u32;
            ops.push(Op::Transient(sys, line, chip, bit));
        }
        let line = rng.below(LINES);
        if rng.below(3) == 0 {
            ops.push(Op::Write(sys, line, rng.next_u64()));
        } else {
            ops.push(Op::Read(sys, line));
        }
    }
    Unit {
        x8,
        x4,
        ops,
        written,
        under,
        failed_rows,
    }
}

/// Which span a call belongs to (traced runs).
fn span_of(op: &Op, under: Under) -> &'static str {
    match (op, under) {
        (Op::Write(Sys::X8, ..), _) => "core.write_line",
        (Op::Write(Sys::X4, ..), _) => "core.x4_write_line",
        (Op::Read(Sys::X8, _), Under::Clean) => "core.read_clean",
        (Op::Read(Sys::X8, _), _) => "core.read_faulty",
        (Op::Read(Sys::X4, _), _) => "core.x4_read",
        (Op::Transient(..), _) => "core.inject_fault",
    }
}

/// Executes the stream, checking every read. Returns the reads checked
/// and failed, plus the typed errors seen.
fn execute(u: &mut Unit, mut tracer: Option<&mut Tracer>) -> (Checks, [u64; 2]) {
    let mut checks = Checks::default();
    let mut errors = [0u64; 2];
    let ops = std::mem::take(&mut u.ops);
    for op in &ops {
        let (sys, line) = match *op {
            Op::Write(s, l, _) | Op::Read(s, l) | Op::Transient(s, l, ..) => (s, l),
        };
        let s = sys as usize;
        let under = u.under[s][line as usize];
        let span = tracer
            .as_deref_mut()
            .map(|t| (t.open(), span_of(op, under)));
        let outcome: Option<Result<bool, XedError>> = match *op {
            Op::Write(Sys::X8, l, v) => {
                u.x8.write_line(l, &line_data8(v));
                None
            }
            Op::Write(Sys::X4, l, v) => {
                u.x4.write_line(l, &line_data4(v));
                None
            }
            Op::Read(Sys::X8, l) => Some(
                u.x8.read_line(l)
                    .map(|r| r.data == line_data8(u.written[0][l as usize])),
            ),
            Op::Read(Sys::X4, l) => Some(
                u.x4.read_line(l)
                    .map(|r| r.data == line_data4(u.written[1][l as usize])),
            ),
            Op::Transient(Sys::X8, l, chip, bit) => {
                u.x8.inject_fault(
                    chip,
                    InjectedFault::bit(addr(l), bit, FaultKind::Transient).with_seed(l),
                );
                None
            }
            Op::Transient(Sys::X4, l, chip, bit) => {
                u.x4.inject_fault(
                    chip,
                    InjectedFault::bit(addr(l), bit, FaultKind::Transient).with_seed(l),
                );
                None
            }
        };
        if let (Some(t), Some(((id, start), name))) = (tracer.as_deref_mut(), span) {
            t.close(name, id, 0, start);
        }
        match *op {
            Op::Write(_, l, v) => {
                u.written[s][l as usize] = v;
                if u.under[s][l as usize] == Under::Faulty
                    && !u.failed_rows[s].contains(&(l / COLS))
                {
                    // A write heals a transient fault.
                    u.under[s][l as usize] = Under::Clean;
                }
            }
            Op::Transient(_, l, ..) => u.under[s][l as usize] = Under::Faulty,
            Op::Read(..) => {}
        }
        match outcome {
            None => {}
            Some(Ok(matches)) => checks.check(matches, || {
                format!("{sys:?} line {line} ({under:?}) returned wrong data")
            }),
            Some(Err(e)) => {
                errors[s] += 1;
                checks.check(under == Under::Uncorrectable, || {
                    format!("{sys:?} line {line} ({under:?}) failed: {e}")
                });
            }
        }
    }
    u.ops = ops;
    (checks, errors)
}

fn golden_value(x8: XedStats, x4: XedStats, errors: [u64; 2]) -> String {
    format!(
        "{}/{}/{}/{}/{}",
        x8.reconstructions,
        x4.reconstructions,
        errors[0],
        errors[1],
        fingerprint(&format!("{x8:?}{x4:?}"))
    )
}

fn check_unit(
    goldens: &mut Goldens,
    checks: &mut Checks,
    mix: &Mix,
    idx: usize,
    u: &Unit,
    errors: [u64; 2],
) {
    goldens.expect(
        checks,
        format!("{}.datapath.{idx}", mix.name),
        golden_value(u.x8.stats(), u.x4.stats(), errors),
    );
}

pub fn record(g: &mut Goldens, mix: &Mix) {
    let mut scratch = Checks::default();
    for idx in 0..POOL {
        let mut u = prepare(mix, idx);
        let (c, errors) = execute(&mut u, None);
        assert_eq!(
            c.failed, 0,
            "{} datapath pool entry {idx}: {:?}",
            mix.name, c.first_failures
        );
        check_unit(g, &mut scratch, mix, idx, &u, errors);
    }
}

/// Runs one unit; returns its timed seconds.
fn run_unit(ctx: &mut Ctx, idx: usize, tracer: Option<&mut Tracer>) -> (f64, Unit) {
    let mut u = prepare(ctx.mix, idx);
    let t = Instant::now();
    let (checks, errors) = execute(&mut u, tracer);
    let dt = secs(t);
    ctx.checks.merge(checks);
    check_unit(&mut ctx.goldens, &mut ctx.checks, ctx.mix, idx, &u, errors);
    (dt, u)
}

/// The untraced section: each unit is one prepared stream, timed.
struct Run {
    sched: Vec<usize>,
    rates: Vec<f64>,
}

pub fn start(ctx: &mut Ctx, units: usize) -> (f64, Box<dyn Section>) {
    // Fixed warm-up: two units.
    let (setup_s, ()) = ctx.setup(|ctx| {
        run_unit(ctx, 0, None);
        run_unit(ctx, 1, None);
    });
    let run = Run {
        sched: ctx.rng.schedule(units, POOL),
        rates: Vec::with_capacity(units),
    };
    (setup_s, Box::new(run))
}

impl Section for Run {
    fn unit(&mut self, ctx: &mut Ctx) {
        let idx = self.sched[self.rates.len()];
        let (dt, u) = run_unit(ctx, idx, None);
        self.rates.push(u.ops.len() as f64 / dt);
    }

    fn finish(self: Box<Self>, _ctx: &mut Ctx) -> Output {
        let mut out = Output::default();
        out.metric("lines_per_s", median(&self.rates), "1/s");
        out.note(
            "units",
            format!(
                "{{\"units\":{},\"ops_per_unit\":{OPS},\"median_lines_per_s\":{:.0}}}",
                self.rates.len(),
                median(&self.rates)
            ),
        );
        out
    }
}

pub fn traced(ctx: &mut Ctx, share: f64, tracer: &mut Tracer) -> Output {
    let pairs = ctx.budget.units(share * 0.9, 2.5 * ctx.mix.unit_ms[3], 1);
    let sched = ctx.rng.schedule(pairs, POOL);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut reads, mut corrected) = (0u64, 0u64);
    for &idx in &sched {
        let (dt, u) = run_unit(ctx, idx, None);
        plain.push(u.ops.len() as f64 / dt);
        let (dt, u) = run_unit(ctx, idx, Some(tracer));
        traced.push(u.ops.len() as f64 / dt);
        for s in [u.x8.stats(), u.x4.stats()] {
            reads += s.reads;
            corrected += s.reconstructions;
        }
    }
    let mut out = Output::default();
    for (metric, span) in [
        ("core.write_line_ns", "core.write_line"),
        ("core.read_clean_ns", "core.read_clean"),
        ("core.read_faulty_ns", "core.read_faulty"),
        ("core.x4_read_ns", "core.x4_read"),
    ] {
        out.metric(metric, tracer.median_ns(span), "ns");
    }
    out.metric(
        "core.corrected_ratio",
        corrected as f64 / reads.max(1) as f64,
        "ratio",
    );
    out.metric(
        "telemetry.trace_overhead.datapath",
        median(&traced) / median(&plain) - 1.0,
        "ratio",
    );
    out
}
