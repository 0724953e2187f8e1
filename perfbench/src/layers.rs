//! Per-layer probes for the traced run: direct calls into the public
//! functions of the `ecc`, `engine` and `xedd` layers on the inputs the
//! workloads feed them, timed in batches (one span per batch, so the
//! clock's own cost stays out of nanosecond-scale figures).

use crate::serve::{query_of, sample_target};
use crate::util::{median, secs, Output, Rng, Tracer};
use crate::Ctx;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use xed_ecc::chipkill::Chipkill;
use xed_ecc::secded::BEATS_PER_LINE;
use xed_ecc::{CodeWord72, Crc8Atm, Hamming7264, SecDed};
use xed_faultsim::engine;
use xedd::{http, render, CachedResponse, MemoCache};

/// Which end-to-end metric each per-layer metric is expected to move,
/// by name prefix (first match wins).
const LABELS: [(&str, &str); 17] = [
    (
        "ecc.crc8_line_decode_ns",
        "datapath/lines_per_s; memsim/sim_cycles_per_s",
    ),
    ("ecc.", "datapath/lines_per_s"),
    ("core.", "datapath/lines_per_s"),
    ("faultsim.tail_trial_ns.", "sweep/tail_trials_per_s"),
    ("faultsim.", "sweep/trials_per_s"),
    ("engine.evaluate_small_ms", "serve/miss_p50_ms"),
    ("engine.canonical_key_ns", "serve/hit_p50_ms"),
    ("xedd.phase.", "serve/hit_p99_ms (through admission wait)"),
    ("xedd.hit_ratio", "serve/req_per_s"),
    ("xedd.coalesced_ratio", "serve/req_per_s"),
    ("xedd.", "serve/hit_p50_ms"),
    ("memsim.", "memsim/sim_cycles_per_s"),
    ("telemetry.trace_overhead.sweep", "sweep/trials_per_s"),
    ("telemetry.trace_overhead.serve", "serve/req_per_s"),
    ("telemetry.trace_overhead.memsim", "memsim/sim_cycles_per_s"),
    ("telemetry.trace_overhead.datapath", "datapath/lines_per_s"),
    ("telemetry.", "(tracing cost)"),
];

/// Median nanoseconds per call of `f` over `batches` batches of `n`
/// calls, each batch one span named `name`.
fn per_call_ns(
    tracer: &mut Tracer,
    name: &'static str,
    batches: usize,
    n: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            tracer.span(name, 0, || {
                for i in 0..n {
                    f(i);
                }
            });
            secs(t) * 1e9 / n as f64
        })
        .collect();
    median(&times)
}

pub fn probes(ctx: &mut Ctx, share: f64, tracer: &mut Tracer) -> Output {
    let mut out = Output::default();
    // Batch size scales with the run; smoke runs one small batch each.
    let scale = if ctx.budget.smoke {
        0.02
    } else {
        share * ctx.budget.seconds as f64 / 2.5
    };
    let n = |base: f64| ((base * scale) as usize).max(64);
    let batches = if ctx.budget.smoke { 1 } else { 5 };
    let mut rng = Rng::new(0xECC);

    // ECC kernels on an errored-word mix: 1 word in 8 with a single-bit
    // error, 1 in 64 with a double-bit error.
    let hamming = Hamming7264::new();
    let crc = Crc8Atm::new();
    let mix = |code: &dyn SecDed, rng: &mut Rng| -> Vec<CodeWord72> {
        (0..4096)
            .map(|i| {
                let w = code.encode(rng.next_u64());
                match i % 64 {
                    0 => w.with_bit_flipped(3).with_bit_flipped(40),
                    k if k % 8 == 1 => w.with_bit_flipped((rng.below(72)) as u32),
                    _ => w,
                }
            })
            .collect()
    };
    let words = mix(&hamming, &mut rng);
    let v = per_call_ns(tracer, "ecc.hamming.decode", batches, n(400_000.0), |i| {
        black_box(hamming.decode(black_box(words[i & 4095])));
    });
    out.metric("ecc.secded_decode_ns", v, "ns");

    let cwords = mix(&crc, &mut rng);
    let lines: Vec<[CodeWord72; BEATS_PER_LINE]> = cwords
        .chunks_exact(BEATS_PER_LINE)
        .map(|c| std::array::from_fn(|b| c[b]))
        .collect();
    let v = per_call_ns(tracer, "ecc.crc8.decode_line", batches, n(100_000.0), |i| {
        black_box(crc.decode_line(black_box(&lines[i % lines.len()])));
    });
    out.metric("ecc.crc8_line_decode_ns", v, "ns");

    let ck = Chipkill::new();
    let beats: Vec<Vec<u8>> = (0..1024)
        .map(|i| {
            let data: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
            let mut beat = ck.encode(&data);
            if i % 4 == 0 {
                let at = rng.below(beat.len() as u64) as usize;
                beat[at] ^= 1 + (rng.below(255) as u8);
            }
            beat
        })
        .collect();
    let v = per_call_ns(tracer, "ecc.chipkill.decode", batches, n(60_000.0), |i| {
        black_box(ck.decode(black_box(&beats[i & 1023])));
    });
    out.metric("ecc.rs_decode_ns", v, "ns");

    // Engine: the serve workload's miss-sized query, in process.
    let target = sample_target();
    let query = query_of(&target);
    let evals = if ctx.budget.smoke { 2 } else { 15 };
    let times: Vec<f64> = (0..evals)
        .map(|_| {
            let t = Instant::now();
            let est = tracer.span("engine.evaluate", 0, || engine::evaluate(&query));
            ctx.checks
                .check(est.is_ok(), || "engine::evaluate failed".into());
            secs(t)
        })
        .collect();
    out.metric("engine.evaluate_small_ms", median(&times) * 1e3, "ms");
    let v = per_call_ns(
        tracer,
        "engine.canonical_key",
        batches,
        n(400_000.0),
        |_| {
            black_box(black_box(&query).canonical_key());
        },
    );
    out.metric("engine.canonical_key_ns", v, "ns");

    // xedd request-path pieces.
    let qs = target.split_once('?').map_or("", |(_, q)| q).to_string();
    let v = per_call_ns(tracer, "xedd.parse", batches, n(100_000.0), |_| {
        let params = http::parse_query_string(black_box(&qs)).expect("valid query string");
        black_box(http::query_from_params(&params).expect("valid query"));
    });
    out.metric("xedd.parse_ns", v, "ns");

    let cache = MemoCache::new(256, 8);
    let keys: Vec<_> = (0..256u64)
        .map(|s| {
            let mut q = query.clone();
            q.seed = s;
            let key = q.canonical_key();
            cache.insert(
                key,
                Arc::new(CachedResponse {
                    key,
                    progress_lines: Vec::new(),
                    body: format!("{{\"seed\":{s}}}"),
                }),
            );
            key
        })
        .collect();
    let mut hits = 0usize;
    let v = per_call_ns(tracer, "xedd.cache.lookup", batches, n(400_000.0), |i| {
        hits += usize::from(cache.lookup(black_box(&keys[i & 255])).is_some());
    });
    ctx.checks.check(hits > 0, || "memo cache never hit".into());
    out.metric("xedd.cache_lookup_ns", v, "ns");

    let estimate = engine::evaluate(&query).expect("sample query evaluates");
    let key = query.canonical_key();
    let direct = render::evaluate_to_response(&query, |_| {}).expect("sample query evaluates");
    ctx.checks.check(
        render::final_body(&query, &key, &estimate) == direct.body,
        || "render::final_body differs from the daemon's compute path".into(),
    );
    let v = per_call_ns(
        tracer,
        "xedd.render.final_body",
        batches,
        n(60_000.0),
        |_| {
            black_box(render::final_body(&query, &key, black_box(&estimate)));
        },
    );
    out.metric("xedd.render_ns", v, "ns");
    out
}

/// The end-to-end metric a per-layer metric is expected to move.
pub fn moves(metric: &str) -> &'static str {
    LABELS
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("", |(_, target)| target)
}
