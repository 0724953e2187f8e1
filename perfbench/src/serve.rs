//! `serve`: `xedd` over loopback TCP, in-process, `workers: 2`.
//!
//! Closed-loop clients send a seeded Zipf stream of `/v1/query` keys:
//! schemes mixed, a few percent `kind=tail`, a few percent `partials=1`,
//! all `threads=1`. Each timed unit is a throughput batch of 2 clients
//! (`req_per_s`) followed by a latency batch of 1 client (the hit and
//! miss percentiles). With 2 clients, 2 workers and the acceptor on 2
//! vCPUs, a request's tail is decided by where the scheduler puts the
//! next thread to wake, not by the daemon; one client keeps the tails a
//! property of the request path. Before each request of a latency batch
//! the client times one round trip to the benchmark's own echo server
//! (`util::Loopback`); each latency percentile is rescaled by the same
//! percentile of those round trips, which saw the same moments of the
//! host as the requests. The workload sets the Zipf
//! exponent, the key population (4× or 8× the memo cache's capacity,
//! so LRU eviction and misses happen in steady state) and the tail and
//! partials shares. Each miss is a small evaluation where per-call fixed
//! cost dominates. On hits the request path (parse → canonical key →
//! cache → render → TCP) does the work.

use crate::util::{http_get, median, quantile, secs, Checks, Loopback, Output, Rng, Tracer};
use crate::{Ctx, Mix, Section};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;
use xed_faultsim::engine::Query;
use xed_faultsim::schemes::Scheme;
use xed_telemetry::hist::{bucket_bounds, BUCKETS};
use xed_telemetry::registry::metrics;
use xed_telemetry::Histogram;
use xedd::{http, render, Server, XeddConfig};

/// Daemon worker threads, closed-loop clients of a throughput batch
/// (2 vCPUs), and of a latency batch.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
pub const LATENCY_CLIENTS: usize = 1;
/// Memo-cache capacity (the workload's key population is larger).
const CACHE_CAPACITY: usize = 256;
/// Lifetime trials of a key's query (a small evaluation), and tail
/// trials of the few tail keys.
const LIFETIME_SAMPLES: u64 = 4_096;
const TAIL_SAMPLES: u64 = 1_000;
/// Requests per client in a unit's throughput batch and in its latency
/// batch, and in the set-up warm-up.
const RATE_REQUESTS: usize = 500;
const LATENCY_REQUESTS: usize = 1_000;
const WARM_REQUESTS: usize = 600;
/// The reference round trip's median, p90 and p99 on the reference host.
const REFERENCE_P50_US: f64 = 58.0;
const REFERENCE_P90_US: f64 = 81.0;
const REFERENCE_P99_US: f64 = 168.0;

/// The request target of key `k` under base seed `base`; one key in
/// `tail_every` is a tail query.
fn target(base: u64, k: usize, tail_every: usize, partials: bool) -> String {
    let scheme = Scheme::ALL[k % Scheme::ALL.len()];
    let tail = k % tail_every == 7;
    let mut t = format!(
        "/v1/query?scheme={}&samples={}&seed={}&threads=1",
        scheme.id(),
        if tail { TAIL_SAMPLES } else { LIFETIME_SAMPLES },
        base.wrapping_add(k as u64) % 1_000_000_007
    );
    if tail {
        t.push_str("&kind=tail");
    }
    if partials {
        t.push_str("&partials=1");
    }
    t
}

/// A miss-sized query as the daemon builds it (for the in-process
/// engine and xedd probes).
pub fn sample_target() -> String {
    target(12_345, 3, 25, false)
}

/// The engine query a target denotes, through the daemon's own parser.
pub fn query_of(target: &str) -> Query {
    let qs = target.split_once('?').map_or("", |(_, q)| q);
    let params: Vec<(String, String)> = http::parse_query_string(qs)
        .expect("benchmark targets are well-formed")
        .into_iter()
        .filter(|(k, _)| k != "partials")
        .collect();
    http::query_from_params(&params).expect("benchmark targets are valid queries")
}

/// One client's request stream: `(key, partials)` pairs. A key is its
/// popularity rank, so every seed gives each scheme and query kind the
/// same share of the traffic; the seed picks the query seeds and the
/// order of requests.
fn stream(rng: &mut Rng, cdf: &[f64], partials_pct: u64, n: usize) -> Vec<(usize, bool)> {
    (0..n)
        .map(|_| {
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            (rank, rng.below(100) < partials_pct)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Hit,
    Miss,
    Coalesced,
}

/// One key as a client saw it: its first response and how many of its
/// requests arrived different from that first response.
#[derive(Debug)]
struct Seen {
    progress: Option<Vec<String>>,
    body: String,
    requests: u64,
    differed: u64,
}

/// What one client saw, accumulated over every phase of the run.
#[derive(Debug, Default)]
struct ClientLog {
    seen: HashMap<usize, Seen>,
    /// Requests refused (non-200, e.g. a 503 shed) or failed in transport.
    refused: Vec<String>,
    /// Timed-phase latencies, and the reference round trips timed
    /// between them, seconds.
    hit: Vec<f64>,
    miss: Vec<f64>,
    reference: Vec<f64>,
}

impl ClientLog {
    /// Sends one request and compares it with this client's first
    /// response for the key.
    fn request(
        &mut self,
        addr: &str,
        mix: &Mix,
        base: u64,
        key: usize,
        partials: bool,
        timed: bool,
    ) {
        let (resp, dt) = http_get(addr, &target(base, key, mix.tail_every, partials));
        let resp = match resp {
            Ok(r) if r.status == 200 => r,
            Ok(r) => return self.refused.push(format!("key {key}: HTTP {}", r.status)),
            Err(e) => return self.refused.push(format!("key {key}: {e}")),
        };
        let served = match resp.header("X-Xedd-Cache") {
            Some("hit") => Served::Hit,
            Some("coalesced") => Served::Coalesced,
            _ => Served::Miss,
        };
        // A streamed response is the progress lines, then the body.
        let (progress, body) = if partials {
            let mut chunks = resp.chunks;
            let body = chunks.pop().unwrap_or_default();
            (Some(chunks), body)
        } else {
            (None, resp.body)
        };
        let seen = self.seen.entry(key).or_insert_with(|| Seen {
            progress: None,
            body: body.clone(),
            requests: 0,
            differed: 0,
        });
        seen.requests += 1;
        let mut same = seen.body == body;
        if let Some(p) = progress {
            match &seen.progress {
                Some(first) => same &= *first == p,
                None => seen.progress = Some(p),
            }
        }
        if !same {
            seen.differed += 1;
        }
        if timed {
            match served {
                Served::Hit => self.hit.push(dt),
                Served::Miss => self.miss.push(dt),
                // A follower's latency is its leader's evaluation.
                Served::Coalesced => {}
            }
        }
    }
}

/// One timed unit: wall seconds and per-request latencies (seconds).
#[derive(Debug)]
struct UnitRec {
    seconds: f64,
    hit: Vec<f64>,
    miss: Vec<f64>,
    reference: Vec<f64>,
}

/// A running daemon plus the seeded client streams.
struct Harness {
    server: Server,
    mix: &'static Mix,
    addr: String,
    base: u64,
    cdf: Vec<f64>,
    logs: Vec<ClientLog>,
    rngs: Vec<Rng>,
    /// The echo server of the reference round trips.
    reference: Loopback,
}

impl Harness {
    fn start(ctx: &mut Ctx) -> Harness {
        let server = Server::start(XeddConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            queue_limit: 64,
            cache_capacity: CACHE_CAPACITY,
            cache_shards: 8,
            tracing: true,
        })
        .expect("xedd binds a loopback port");
        let addr = server.addr();
        let mut rng = ctx.rng.clone();
        let base = rng.next_u64() % 1_000_000;
        let mix = ctx.mix;
        let mut weights: Vec<f64> = (1..=mix.population)
            .map(|r| (r as f64).powf(-mix.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        let rngs = (0..CLIENTS)
            .map(|c| Rng::new(rng.next_u64() ^ c as u64))
            .collect();
        Harness {
            server,
            mix,
            addr,
            base,
            cdf: weights,
            logs: (0..CLIENTS).map(|_| ClientLog::default()).collect(),
            rngs,
            reference: Loopback::start(),
        }
    }

    /// Runs one closed-loop batch: each of the first `clients` clients
    /// sends `n` requests from its stream. Returns the batch's wall
    /// seconds (barrier to barrier); when `timed`, also the latencies of
    /// its hits and misses, and of a reference round trip timed before
    /// each request.
    fn unit(
        &mut self,
        clients: usize,
        n: usize,
        timed: bool,
        tracer: Option<&mut Tracer>,
    ) -> UnitRec {
        let streams: Vec<Vec<(usize, bool)>> = self
            .rngs
            .iter_mut()
            .take(clients)
            .map(|r| {
                let pct = self.mix.partials_pct;
                stream(r, &self.cdf, pct, n)
            })
            .collect();
        let start = Barrier::new(clients + 1);
        let end = Barrier::new(clients + 1);
        let (addr, mix, base) = (self.addr.as_str(), self.mix, self.base);
        let reference = &self.reference;
        let traced = tracer.is_some();
        let mut spans: Vec<Tracer> = Vec::new();
        let dt = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .logs
                .iter_mut()
                .take(clients)
                .zip(&streams)
                .map(|(log, stream)| {
                    let (start, end) = (&start, &end);
                    s.spawn(move || {
                        let mut local = traced.then(Tracer::new);
                        start.wait();
                        for &(key, partials) in stream {
                            if timed {
                                log.reference.push(reference.round_trip());
                            }
                            match local.as_mut() {
                                Some(t) => t.span("xedd.client.query", 0, || {
                                    log.request(addr, mix, base, key, partials, timed);
                                }),
                                None => log.request(addr, mix, base, key, partials, timed),
                            }
                        }
                        end.wait();
                        local
                    })
                })
                .collect();
            start.wait();
            let t = Instant::now();
            end.wait();
            let dt = secs(t);
            for h in handles {
                spans.extend(h.join().expect("client thread panicked"));
            }
            dt
        });
        if let Some(t) = tracer {
            for s in spans {
                t.absorb(s);
            }
        }
        let mut rec = UnitRec {
            seconds: dt,
            hit: Vec::new(),
            miss: Vec::new(),
            reference: Vec::new(),
        };
        for log in &mut self.logs {
            rec.hit.append(&mut log.hit);
            rec.miss.append(&mut log.miss);
            rec.reference.append(&mut log.reference);
        }
        rec
    }

    /// Checks every key's first body against a direct in-process
    /// `render::evaluate_to_response` of the same query, and folds the
    /// per-request results into `checks`.
    fn verify(self, checks: &mut Checks, perturb: bool) {
        let Harness {
            server,
            mix,
            logs,
            base,
            ..
        } = self;
        server.shutdown();
        let mut keys: Vec<usize> = logs.iter().flat_map(|l| l.seen.keys().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        // Direct evaluations, split over the two cores.
        let direct: HashMap<usize, (Vec<String>, String)> = std::thread::scope(|s| {
            let halves: Vec<_> = keys
                .chunks(keys.len().div_ceil(2).max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|&k| {
                                let q = query_of(&target(base, k, mix.tail_every, false));
                                let r = render::evaluate_to_response(&q, |_| {})
                                    .expect("benchmark queries evaluate");
                                let body = if perturb {
                                    format!("{}~", r.body)
                                } else {
                                    r.body
                                };
                                (k, (r.progress_lines, body))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("direct evaluation panicked"))
                .collect()
        });
        for log in &logs {
            for (k, seen) in &log.seen {
                let (progress, body) = &direct[k];
                let matches_direct =
                    seen.body == *body && seen.progress.as_ref().is_none_or(|p| p == progress);
                // Every request of a key fails if the key's bytes differ
                // from the engine's; otherwise those that differed from
                // the key's first response fail.
                let failed = if matches_direct {
                    seen.differed
                } else {
                    seen.requests
                };
                checks.attempted += seen.requests;
                checks.failed += failed;
                if failed > 0 && checks.first_failures.len() < 8 {
                    checks.first_failures.push(format!(
                        "key {k}: {failed} of {} responses differ from the direct evaluation or the first response",
                        seen.requests
                    ));
                }
            }
            for r in &log.refused {
                checks.check(false, || r.clone());
            }
        }
    }
}

/// The untraced section: each unit is a throughput batch, then a
/// latency batch.
struct Run {
    harness: Harness,
    rate_s: Vec<f64>,
    units: Vec<UnitRec>,
}

pub fn start(ctx: &mut Ctx, units: usize) -> (f64, Box<dyn Section>) {
    // Daemon start plus a fixed warm-up batch that fills the cache.
    let (setup_s, harness) = ctx.setup(|ctx| {
        let mut h = Harness::start(ctx);
        h.unit(CLIENTS, WARM_REQUESTS, false, None);
        h
    });
    let run = Run {
        harness,
        rate_s: Vec::with_capacity(units),
        units: Vec::with_capacity(units),
    };
    (setup_s, Box::new(run))
}

impl Section for Run {
    fn unit(&mut self, _ctx: &mut Ctx) {
        let rate = self.harness.unit(CLIENTS, RATE_REQUESTS, false, None);
        self.rate_s.push(rate.seconds);
        self.units.push(
            self.harness
                .unit(LATENCY_CLIENTS, LATENCY_REQUESTS, true, None),
        );
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx) -> Output {
        let Run {
            harness,
            rate_s,
            units,
        } = *self;
        harness.verify(&mut ctx.checks, ctx.perturb);
        let per_unit = (RATE_REQUESTS * CLIENTS) as f64;
        let rates: Vec<f64> = rate_s.iter().map(|s| per_unit / s).collect();
        // Every latency percentile is taken over all of the run's latency
        // batches' hits or misses: no request is left out. Its host-speed
        // factor is the same percentile of the reference round trips over
        // the reference host's (a quiet spell of REPEATABILITY.md's VM).
        let hit: Vec<f64> = units.iter().flat_map(|u| u.hit.iter().copied()).collect();
        let miss: Vec<f64> = units.iter().flat_map(|u| u.miss.iter().copied()).collect();
        let reference: Vec<f64> = units
            .iter()
            .flat_map(|u| u.reference.iter().copied())
            .collect();
        let mut out = Output::default();
        out.metric("req_per_s", median(&rates), "1/s");
        for (name, sample, q, reference_us) in [
            ("hit_p50_ms", &hit, 0.5, REFERENCE_P50_US),
            ("hit_p99_ms", &hit, 0.99, REFERENCE_P99_US),
            ("miss_p50_ms", &miss, 0.5, REFERENCE_P50_US),
            ("miss_p90_ms", &miss, 0.9, REFERENCE_P90_US),
        ] {
            out.metric(name, quantile(sample, q) * 1e3, "ms");
            out.factors
                .insert(name.into(), quantile(&reference, q) * 1e6 / reference_us);
        }
        out.note(
            "samples",
            format!(
                "{{\"latency_batches\":{},\"hit_samples\":{},\"miss_samples\":{},\"beyond_hit_p99\":{},\"beyond_miss_p90\":{}}}",
                units.len(),
                hit.len(),
                miss.len(),
                hit.len() / 100,
                miss.len() / 10
            ),
        );
        out
    }
}

/// A histogram's bucket counts (registry snapshot for deltas).
fn buckets(h: &Histogram) -> Vec<u64> {
    (0..BUCKETS).map(|i| h.bucket(i)).collect()
}

/// Quantile of the observations recorded between two bucket snapshots,
/// as the upper edge of the covering log2 bucket, in microseconds.
fn delta_quantile_us(before: &[u64], after: &[u64], q: f64) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut cum = 0;
    for (i, n) in delta.iter().enumerate() {
        cum += n;
        if cum >= rank {
            return bucket_bounds(i).1 as f64 / 1e3;
        }
    }
    f64::NAN
}

const PHASES: [(&str, &Histogram); 5] = [
    ("admission", &metrics::XEDD_PHASE_ADMISSION_NS),
    ("cache", &metrics::XEDD_PHASE_CACHE_NS),
    ("coalesce", &metrics::XEDD_PHASE_COALESCE_NS),
    ("evaluate", &metrics::XEDD_PHASE_EVALUATE_NS),
    ("stream", &metrics::XEDD_PHASE_STREAM_NS),
];

pub fn traced(ctx: &mut Ctx, share: f64, tracer: &mut Tracer) -> Output {
    let mut h = Harness::start(ctx);
    h.unit(CLIENTS, WARM_REQUESTS, false, None);
    let before: Vec<Vec<u64>> = PHASES.iter().map(|(_, hist)| buckets(hist)).collect();
    let (req0, hit0, coal0) = (
        metrics::XEDD_REQUESTS.value(),
        metrics::XEDD_CACHE_HITS.value(),
        metrics::XEDD_COALESCED.value(),
    );
    let pairs = ctx.budget.units(share * 0.8, 2.0 * ctx.mix.unit_ms[1], 2);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        plain.push(h.unit(CLIENTS, 2 * RATE_REQUESTS, false, None).seconds);
        traced.push(
            h.unit(CLIENTS, 2 * RATE_REQUESTS, false, Some(tracer))
                .seconds,
        );
    }
    let requests = metrics::XEDD_REQUESTS.value() - req0;
    let hits = metrics::XEDD_CACHE_HITS.value() - hit0;
    let coalesced = metrics::XEDD_COALESCED.value() - coal0;
    let mut out = Output::default();
    out.metric(
        "xedd.hit_ratio",
        hits as f64 / requests.max(1) as f64,
        "ratio",
    );
    out.metric(
        "xedd.coalesced_ratio",
        coalesced as f64 / requests.max(1) as f64,
        "ratio",
    );
    out.metric(
        "telemetry.trace_overhead.serve",
        median(&plain) / median(&traced) - 1.0,
        "ratio",
    );

    // Coalescing probe: both clients release on one barrier and ask for
    // the same fresh key, so one leads and the other follows.
    let probes = if ctx.budget.smoke { 2 } else { 10 };
    for i in 0..probes {
        let t = format!(
            "/v1/query?scheme=xed&samples=262144&seed={}&threads=1",
            h.base + 2_000_000 + i
        );
        let barrier = Barrier::new(CLIENTS);
        let bodies: Vec<Option<String>> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (t, addr, barrier) = (&t, &h.addr, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        http_get(addr, t)
                            .0
                            .ok()
                            .filter(|r| r.status == 200)
                            .map(|r| r.body)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("probe client"))
                .collect()
        });
        let agree = bodies[0].is_some() && bodies.iter().all(|b| *b == bodies[0]);
        ctx.checks.check(agree, || "coalesced bodies differ".into());
    }
    for ((name, hist), b) in PHASES.iter().zip(&before) {
        let after = buckets(hist);
        out.metric(
            format!("xedd.phase.{name}_p50_us"),
            delta_quantile_us(b, &after, 0.5),
            "us",
        );
        out.metric(
            format!("xedd.phase.{name}_p99_us"),
            delta_quantile_us(b, &after, 0.99),
            "us",
        );
    }

    // The daemon's own view must agree with the registry it exports.
    let scraped = http_get(&h.addr, "/metrics?format=prometheus")
        .0
        .map(|r| xedd::top::value(&xedd::top::parse_prometheus(&r.body), "xedd_requests"));
    let registry_now = metrics::XEDD_REQUESTS.value();
    ctx.checks.check(
        matches!(scraped, Ok(Some(v)) if v as u64 <= registry_now && v as u64 >= req0 + requests),
        || format!("/metrics xedd_requests {scraped:?} disagrees with the registry"),
    );

    // The TCP, accept and queue floor: sequential /healthz on an idle
    // daemon.
    let n = if ctx.budget.smoke { 20 } else { 300 };
    let healthz: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            let ok = tracer
                .span("xedd.client.healthz", 0, || http_get(&h.addr, "/healthz").0)
                .is_ok_and(|r| r.status == 200);
            ctx.checks.check(ok, || "/healthz failed".into());
            secs(t)
        })
        .collect();
    out.metric("xedd.healthz_p50_ms", median(&healthz) * 1e3, "ms");
    h.verify(&mut ctx.checks, ctx.perturb);
    out
}
