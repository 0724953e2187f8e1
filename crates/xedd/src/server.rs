//! The daemon: a blocking-accept listener feeding a bounded queue drained
//! by a worker thread pool.
//!
//! Request lifecycle (DESIGN.md §15):
//!
//! 1. **Admission.** The acceptor thread pushes the connection onto a
//!    bounded queue. At the limit it sheds load instead: an immediate
//!    `503` (`xedd.shed`) — queueing deeper would only convert overload
//!    into timeouts.
//! 2. **Normalization.** A worker parses the request and builds the
//!    canonical engine [`Query`]; its 128-bit canonical key is the
//!    identity for both memoization and coalescing.
//! 3. **Memoization.** A key hit replays the stored response — including
//!    every streamed partial line — byte-for-byte in O(1).
//! 4. **Coalescing.** On a miss, the first request becomes the flight
//!    leader and evaluates once; concurrent identical requests follow the
//!    flight and stream the leader's bytes as they are produced.
//!
//! Responses carry `X-Xedd-Cache: hit | miss | coalesced` so clients (and
//! the selftest) can observe which path served them without the body
//! differing by a byte.
//!
//! Every request additionally runs under a trace id (honored from an
//! `X-Xedd-Trace` request header or freshly assigned), echoed back in the
//! response headers and threaded through the phase spans of DESIGN.md
//! §16: admission wait, cache lookup, coalesce lead/follow, evaluation,
//! and streaming all land in the per-thread flight-recorder rings,
//! dumpable via `/debug/flight` or on panic / shed bursts.

use crate::cache::MemoCache;
use crate::coalesce::{Coalescer, FlightResult, Join, LeaderGuard};
use crate::http;
use crate::render;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xed_faultsim::engine::Query;
use xed_faultsim::schemes::Scheme;
use xed_telemetry::registry::{self, metrics};
use xed_telemetry::trace::{self, Phase, SpanCtx, SpanEvent};

/// Per-connection socket read timeout: a stalled client must not pin a
/// worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Consecutive sheds that trigger one flight-recorder dump to stderr: a
/// burst means the daemon is drowning, and the rings hold exactly the
/// last requests' phase history an operator needs.
const SHED_BURST_DUMP: u32 = 8;

/// Wake-up connections [`Server`] tries at shutdown before it gives up
/// on unblocking the acceptor's `accept`.
const WAKE_ATTEMPTS: u32 = 3;

/// Connect timeout of one wake-up attempt.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Pause between two wake-up attempts.
const WAKE_BACKOFF: Duration = Duration::from_millis(100);

/// Build identity reported by `/healthz`; baked in at compile time when
/// the build sets `XEDD_GIT_HASH` (see `scripts/ci.sh`).
const GIT_HASH: &str = match option_env!("XEDD_GIT_HASH") {
    Some(hash) => hash,
    None => "unknown",
};

/// The instruction-set level the binary was compiled for, reported by
/// `/healthz` next to the git hash. It is read from `cfg!`, so it names
/// what the compiler was allowed to emit (`.cargo/config.toml` sets
/// `x86-64-v3`; see README "Install / build"), not what the host offers.
/// Each x86-64 level requires the one below it; other architectures
/// report their name.
const TARGET_LEVEL: &str = {
    const V2: bool = cfg!(all(
        target_feature = "cmpxchg16b",
        target_feature = "popcnt",
        target_feature = "sse4.2",
        target_feature = "ssse3"
    ));
    const V3: bool = V2
        && cfg!(all(
            target_feature = "avx2",
            target_feature = "bmi1",
            target_feature = "bmi2",
            target_feature = "f16c",
            target_feature = "fma",
            target_feature = "lzcnt",
            target_feature = "movbe"
        ));
    const V4: bool = V3
        && cfg!(all(
            target_feature = "avx512f",
            target_feature = "avx512bw",
            target_feature = "avx512cd",
            target_feature = "avx512dq",
            target_feature = "avx512vl"
        ));
    if !cfg!(target_arch = "x86_64") {
        std::env::consts::ARCH
    } else if V4 {
        "x86-64-v4"
    } else if V3 {
        "x86-64-v3"
    } else if V2 {
        "x86-64-v2"
    } else {
        "x86-64"
    }
};

/// The target features `/healthz` lists, each as compiled in, on or off
/// (DESIGN.md §14.1 says which kernels they move).
const TARGET_FEATURES: [(&str, bool); 5] = [
    ("popcnt", cfg!(target_feature = "popcnt")),
    ("bmi2", cfg!(target_feature = "bmi2")),
    ("avx2", cfg!(target_feature = "avx2")),
    ("fma", cfg!(target_feature = "fma")),
    ("avx512f", cfg!(target_feature = "avx512f")),
];

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct XeddConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Admission-control bound: accepted-but-unserviced connections
    /// beyond this are shed with `503`.
    pub queue_limit: usize,
    /// Memo-cache capacity in responses.
    pub cache_capacity: usize,
    /// Memo-cache lock stripes.
    pub cache_shards: usize,
    /// Whether request tracing (flight recorder + `/debug/flight`) is
    /// enabled. Span recording is gated on one relaxed atomic load when
    /// off.
    pub tracing: bool,
}

impl Default for XeddConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_limit: 64,
            cache_capacity: 256,
            cache_shards: 8,
            tracing: true,
        }
    }
}

/// State shared by the acceptor and every worker.
#[derive(Debug)]
struct Inner {
    cache: MemoCache,
    coalescer: Coalescer,
    /// Pending connections, each stamped with its enqueue time
    /// (`trace::now_ns`) so the dequeuing worker can reconstruct the
    /// admission-wait span.
    queue: Mutex<VecDeque<(TcpStream, u64)>>,
    queue_cv: Condvar,
    queue_limit: usize,
    shutdown: AtomicBool,
    /// Daemon start time, for the `/healthz` uptime report.
    started: Instant,
}

/// A running daemon. Dropping it shuts the listener and workers down.
#[derive(Debug)]
pub struct Server {
    /// Where the shutdown wake-up connects: the bound address, with an
    /// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
    wake: SocketAddr,
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the acceptor plus worker pool.
    pub fn start(config: XeddConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let mut wake = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        trace::set_trace_enabled(config.tracing);
        let inner = Arc::new(Inner {
            cache: MemoCache::new(config.cache_capacity, config.cache_shards),
            coalescer: Coalescer::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_limit: config.queue_limit.max(1),
            shutdown: AtomicBool::new(false),
            // Reporting-only wall clock (uptime in /healthz).
            started: Instant::now(), // xed-analyze: allow(XL005) — uptime only
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(Server {
            wake,
            inner,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.wake.port()
    }

    /// The loopback address clients reach the daemon at.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.wake.port())
    }

    /// Signals shutdown and joins the acceptor and workers. Queued
    /// connections are drained before workers exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        // Release pairs with the Acquire loads in the accept and worker
        // loops (the workspace's boundary ordering discipline, XA102).
        self.inner.shutdown.store(true, Ordering::Release);
        // Unblock the blocking accept with a throwaway connection; the
        // acceptor re-checks the flag before queueing anything. Without
        // one it would block until the next client arrives, so it is
        // detached rather than joined: shutdown returns in bounded time.
        let woken = wake_acceptor(self.wake);
        self.inner.queue_cv.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            if woken {
                let _ = acceptor.join();
            } else {
                // `stop` also runs from `Drop`, which must not panic on a
                // failed stderr write (as `eprintln!` would).
                let _ = writeln!(
                    std::io::stderr(),
                    "xedd: no wake-up connection reached {} in {WAKE_ATTEMPTS} attempts; \
                     detaching the acceptor thread instead of joining it",
                    self.wake
                );
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Connects to `addr` to unblock the acceptor's `accept`, up to
/// [`WAKE_ATTEMPTS`] times with a [`WAKE_TIMEOUT`] each; returns whether a
/// connection landed (the acceptor then returns from `accept`).
fn wake_acceptor(addr: SocketAddr) -> bool {
    (0..WAKE_ATTEMPTS).any(|attempt| {
        if attempt > 0 {
            std::thread::sleep(WAKE_BACKOFF);
        }
        TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).is_ok()
    })
}

/// Dumps the flight recorder (every slot's retained spans) to stderr as
/// `xed-trace-spans-v1` JSON. Wired to the daemon's panic path and to
/// shed bursts — the moments when the last few requests' phase history
/// is worth keeping.
pub fn dump_flight_to_stderr(why: &str) {
    metrics::XEDD_FLIGHT_DUMPS.incr();
    let spans = xed_telemetry::export::collect_spans(None);
    eprintln!(
        "xedd: flight recorder dump ({why}): {} span(s)\n{}",
        spans.len(),
        xed_telemetry::export::spans_to_chrome_json(&spans)
    );
}

/// Accepts connections and applies admission control.
fn accept_loop(listener: &TcpListener, inner: &Inner) {
    // Consecutive sheds seen; one flight dump per burst (resets on the
    // first successful admission).
    let mut shed_burst = 0u32;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut queue = match inner.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if queue.len() >= inner.queue_limit {
            drop(queue);
            metrics::XEDD_SHED.incr();
            shed_burst += 1;
            if shed_burst == SHED_BURST_DUMP {
                dump_flight_to_stderr("shed burst");
            }
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                503,
                &[("Retry-After", "1")],
                &error_body("overloaded: request queue is full", false),
            );
            continue;
        }
        shed_burst = 0;
        queue.push_back((stream, trace::now_ns()));
        metrics::XEDD_QUEUE_DEPTH.record(queue.len() as u64);
        drop(queue);
        inner.queue_cv.notify_one();
    }
}

/// Pops queued connections and serves them until shutdown.
fn worker_loop(inner: &Inner) {
    loop {
        let mut queue = match inner.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (stream, enqueued_ns) = loop {
            if let Some(entry) = queue.pop_front() {
                break entry;
            }
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            queue = match inner.queue_cv.wait(queue) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        };
        drop(queue);
        handle_connection(inner, stream, enqueued_ns);
    }
}

/// Per-request trace identity: the id (honored from `X-Xedd-Trace` or
/// freshly assigned), the root span id that phase spans parent to, the
/// id pre-rendered for the response echo header, and the start time.
struct ReqCtx {
    trace_id: u64,
    root: u32,
    hex: String,
    /// When the worker began serving the request (latency telemetry).
    started: Instant,
}

impl ReqCtx {
    fn new(request: &http::Request, enqueued_ns: u64, dequeued_ns: u64, started: Instant) -> Self {
        let trace_id = request.trace.unwrap_or_else(trace::next_trace_id);
        let root = trace::next_span_id();
        // The queue wait becomes the admission span only now: the trace
        // id lives in headers that are parsed after dequeue.
        trace::record_span(SpanEvent {
            trace_id,
            span_id: trace::next_span_id(),
            parent: root,
            phase: Phase::Admission,
            a: 0,
            t_start: enqueued_ns,
            t_end: dequeued_ns,
        });
        Self {
            trace_id,
            root,
            hex: format!("{trace_id:016x}"),
            started,
        }
    }

    /// The `X-Xedd-Trace` response header echoing this request's id.
    fn echo(&self) -> (&str, &str) {
        ("X-Xedd-Trace", self.hex.as_str())
    }

    /// Records a child-of-root span that started at `t_start` and closes
    /// now.
    fn child(&self, phase: Phase, a: u64, t_start: u64) {
        trace::record_span(SpanEvent {
            trace_id: self.trace_id,
            span_id: trace::next_span_id(),
            parent: self.root,
            phase,
            a,
            t_start,
            t_end: trace::now_ns(),
        });
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(inner: &Inner, stream: TcpStream, enqueued_ns: u64) {
    metrics::XEDD_REQUESTS.incr();
    let dequeued_ns = trace::now_ns();
    metrics::XEDD_PHASE_ADMISSION_NS.record(dequeued_ns.saturating_sub(enqueued_ns));
    // Wall-clock latency telemetry for /metrics; never in a response body.
    let started = Instant::now(); // xed-analyze: allow(XL005) — telemetry only
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    match http::read_request(&mut reader) {
        Ok(request) if request.method == "GET" => {
            let ctx = ReqCtx::new(&request, enqueued_ns, dequeued_ns, started);
            trace::set_current(Some(SpanCtx {
                trace_id: ctx.trace_id,
                span_id: ctx.root,
            }));
            route(inner, &mut stream, &request, &ctx);
            trace::set_current(None);
            trace::record_span(SpanEvent {
                trace_id: ctx.trace_id,
                span_id: ctx.root,
                parent: 0,
                phase: Phase::Request,
                a: 0,
                t_start: enqueued_ns,
                t_end: trace::now_ns(),
            });
        }
        Ok(request) => {
            metrics::XEDD_HTTP_ERRORS.incr();
            let reason = format!("method {} not supported; use GET", request.method);
            let _ = http::write_response(&mut stream, 400, &[], &error_body(&reason, false));
        }
        Err(reason) => {
            metrics::XEDD_HTTP_ERRORS.incr();
            let _ = http::write_response(&mut stream, 400, &[], &error_body(&reason, false));
        }
    }
    metrics::XEDD_REQUEST_NS.record(started.elapsed().as_nanos() as u64);
}

fn route(inner: &Inner, stream: &mut TcpStream, request: &http::Request, ctx: &ReqCtx) {
    match request.path.as_str() {
        "/healthz" => {
            let features: Vec<String> = TARGET_FEATURES
                .iter()
                .map(|(name, on)| format!("\"{name}\":{on}"))
                .collect();
            let body = format!(
                "{{\"ok\":true,\"git\":\"{GIT_HASH}\",\"target\":{{\"level\":\"{TARGET_LEVEL}\",\"features\":{{{}}}}},\"schemes\":{},\"uptime_seconds\":{}}}",
                features.join(","),
                Scheme::ALL.len(),
                inner.started.elapsed().as_secs()
            );
            let _ = http::write_response(stream, 200, &[ctx.echo()], &body);
            metrics::XEDD_ENDPOINT_HEALTHZ_NS.record(ctx.started.elapsed().as_nanos() as u64);
        }
        "/metrics" => {
            let prometheus = request
                .params
                .iter()
                .any(|(name, value)| name == "format" && value == "prometheus");
            if prometheus {
                let _ = http::write_response_typed(
                    stream,
                    200,
                    "text/plain; version=0.0.4",
                    &[ctx.echo()],
                    &registry::snapshot().to_prometheus_text(),
                );
            } else {
                let body = format!(
                    "{{\"schema\":\"xedd-metrics-v1\",\"metrics\":{}}}",
                    registry::snapshot().to_json_array()
                );
                let _ = http::write_response(stream, 200, &[ctx.echo()], &body);
            }
            metrics::XEDD_ENDPOINT_METRICS_NS.record(ctx.started.elapsed().as_nanos() as u64);
        }
        "/debug/flight" => {
            metrics::XEDD_FLIGHT_DUMPS.incr();
            let filter = request
                .params
                .iter()
                .find(|(name, _)| name == "trace")
                .and_then(|(_, value)| http::parse_trace_id(value));
            let body = xed_telemetry::export::spans_to_chrome_json(
                &xed_telemetry::export::collect_spans(filter),
            );
            let _ = http::write_response(stream, 200, &[ctx.echo()], &body);
            metrics::XEDD_ENDPOINT_FLIGHT_NS.record(ctx.started.elapsed().as_nanos() as u64);
        }
        "/v1/query" => {
            handle_query(inner, stream, &request.params, ctx);
            metrics::XEDD_ENDPOINT_QUERY_NS.record(ctx.started.elapsed().as_nanos() as u64);
        }
        _ => {
            metrics::XEDD_HTTP_ERRORS.incr();
            let _ = http::write_response(
                stream,
                404,
                &[ctx.echo()],
                &error_body("no such route", false),
            );
        }
    }
}

/// Which path answered a query: the `X-Xedd-Cache` tag it is sent
/// under, and the status its failure is sent with.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Replayed from the memo cache.
    Hit,
    /// Evaluated by this request as the flight leader (a query rejected
    /// before lookup is answered like one).
    Miss,
    /// Relayed from another request's flight.
    Coalesced,
}

impl Source {
    fn tag(self) -> &'static str {
        match self {
            Source::Hit => "hit",
            Source::Miss => "miss",
            Source::Coalesced => "coalesced",
        }
    }

    /// A leader's failure is the query's fault; a follower only relays
    /// the flight it joined, so its failure is the server's.
    fn error_status(self) -> u16 {
        match self {
            Source::Hit | Source::Miss => 400,
            Source::Coalesced => 500,
        }
    }
}

/// The one error body: `{"error":<reason>}`, or, as the last chunk of a
/// stream, `{"error":<reason>,"done":true}`.
fn error_body(reason: &str, last_chunk: bool) -> String {
    let reason = xed_telemetry::export::json_string(reason);
    if last_chunk {
        format!("{{\"error\":{reason},\"done\":true}}")
    } else {
        format!("{{\"error\":{reason}}}")
    }
}

/// The one writer of a `/v1/query` answer: progress lines, then the final
/// body or an error, framed plain (`Content-Length`; the lines are
/// dropped) or chunked (one NDJSON line per chunk). The chunked head goes
/// out at [`Reply::open`]; after the first failed write nothing more is
/// sent.
struct Reply<'a, W: Write> {
    out: &'a mut W,
    streaming: bool,
    source: Source,
    ctx: &'a ReqCtx,
    /// Whether `xedd.ttfc_ns` has been recorded for this request.
    ttfc_recorded: bool,
    /// Cleared by the first failed write.
    writable: bool,
}

impl<'a, W: Write> Reply<'a, W> {
    fn open(out: &'a mut W, streaming: bool, source: Source, ctx: &'a ReqCtx) -> Self {
        let writable = !streaming
            || http::write_chunked_head(out, &[("X-Xedd-Cache", source.tag()), ctx.echo()]).is_ok();
        Self {
            out,
            streaming,
            source,
            ctx,
            ttfc_recorded: false,
            writable,
        }
    }

    /// Sends one progress line as a chunk; the plain framing drops it.
    fn line(&mut self, line: &str) {
        if self.streaming && self.writable {
            self.content();
            metrics::XEDD_STREAM_CHUNKS.incr();
            self.writable = http::write_chunk(self.out, line).is_ok();
        }
    }

    /// Sends the final body, or the error the query failed with, and
    /// ends the response.
    fn finish(mut self, result: &FlightResult) {
        match result {
            Ok(response) if self.streaming => self.line(&response.body),
            Ok(response) => {
                self.content();
                let _ = http::write_response(
                    self.out,
                    200,
                    &[("X-Xedd-Cache", self.source.tag()), self.ctx.echo()],
                    &response.body,
                );
            }
            Err(reason) => {
                metrics::XEDD_HTTP_ERRORS.incr();
                if !self.streaming {
                    let _ = http::write_response(
                        self.out,
                        self.source.error_status(),
                        &[self.ctx.echo()],
                        &error_body(reason, false),
                    );
                } else if self.writable {
                    self.writable = http::write_chunk(self.out, &error_body(reason, true)).is_ok();
                }
            }
        }
        if self.streaming && self.writable {
            let _ = http::write_chunked_end(self.out);
        }
    }

    /// Records time-to-first-content, once per request.
    fn content(&mut self) {
        if !self.ttfc_recorded {
            self.ttfc_recorded = true;
            metrics::XEDD_TTFC_NS.record(self.ctx.started.elapsed().as_nanos() as u64);
        }
    }
}

/// Splits `partials` off the parameters and builds the engine query;
/// returns it with whether to stream the answer. `partials` is transport
/// framing, not query identity, so it never reaches the canonical key.
fn parse_query(params: &[(String, String)]) -> Result<(Query, bool), String> {
    let mut partials = None;
    let mut engine_params = Vec::with_capacity(params.len());
    for (name, value) in params {
        if name == "partials" {
            partials = Some(http::parse_bool(name, value)?);
        } else {
            engine_params.push((name.clone(), value.clone()));
        }
    }
    let query = http::query_from_params(&engine_params)?;
    // Streamed partial-confidence framing: on by default for early-stop
    // queries (the partials are the point), overridable either way.
    let streaming = partials.unwrap_or(query.epsilon.is_some());
    Ok((query, streaming))
}

fn handle_query(inner: &Inner, stream: &mut TcpStream, params: &[(String, String)], ctx: &ReqCtx) {
    let (query, streaming) = match parse_query(params) {
        Ok(parsed) => parsed,
        Err(reason) => {
            Reply::open(stream, false, Source::Miss, ctx).finish(&Err(reason));
            return;
        }
    };

    let t_cache = trace::now_ns();
    let key = query.canonical_key();
    let cached = inner.cache.lookup(&key);
    metrics::XEDD_PHASE_CACHE_NS.record(trace::now_ns().saturating_sub(t_cache));
    ctx.child(Phase::CacheLookup, u64::from(cached.is_some()), t_cache);
    if let Some(cached) = cached {
        // The O(1) repeat-query path, byte-for-byte the cold response in
        // either framing.
        let t_stream = trace::now_ns();
        let mut reply = Reply::open(stream, streaming, Source::Hit, ctx);
        for line in &cached.progress_lines {
            reply.line(line);
        }
        let lines = cached.progress_lines.len() as u64;
        reply.finish(&Ok(cached));
        if streaming {
            metrics::XEDD_PHASE_STREAM_NS.record(trace::now_ns().saturating_sub(t_stream));
            ctx.child(Phase::Stream, lines, t_stream);
        }
        return;
    }
    match inner.coalescer.join(key) {
        Join::Leader(leader) => serve_as_leader(inner, stream, &query, leader, streaming, ctx),
        Join::Follower(flight) => {
            metrics::XEDD_COALESCED.incr();
            let t_follow = trace::now_ns();
            let mut reply = Reply::open(stream, streaming, Source::Coalesced, ctx);
            let result = flight.follow(|line| reply.line(line));
            reply.finish(&result);
            metrics::XEDD_PHASE_COALESCE_NS.record(trace::now_ns().saturating_sub(t_follow));
            // `a` carries the leader's trace id: the cross-trace handoff
            // edge Perfetto can't draw but the selftest can assert.
            ctx.child(Phase::CoalesceFollow, flight.leader_trace(), t_follow);
        }
    }
}

/// Runs the one real evaluation for a flight, streaming to this client
/// and publishing every line to attached followers.
fn serve_as_leader(
    inner: &Inner,
    stream: &mut TcpStream,
    query: &Query,
    leader: LeaderGuard<'_>,
    streaming: bool,
    ctx: &ReqCtx,
) {
    metrics::XEDD_EVALUATIONS.incr();
    // Announce our trace id so followers can record the handoff edge.
    leader.set_trace(ctx.trace_id);
    let mut reply = Reply::open(stream, streaming, Source::Miss, ctx);
    // The evaluation runs under a CoalesceLead span so engine-side spans
    // (Evaluate, SchedulerChunk) nest beneath it, not the root.
    let lead_span = trace::next_span_id();
    trace::set_current(Some(SpanCtx {
        trace_id: ctx.trace_id,
        span_id: lead_span,
    }));
    let t_eval = trace::now_ns();
    let result = render::evaluate_miss(query, |line| {
        leader.publish_line(line);
        reply.line(line);
    });
    metrics::XEDD_PHASE_EVALUATE_NS.record(trace::now_ns().saturating_sub(t_eval));
    trace::set_current(Some(SpanCtx {
        trace_id: ctx.trace_id,
        span_id: ctx.root,
    }));
    trace::record_span(SpanEvent {
        trace_id: ctx.trace_id,
        span_id: lead_span,
        parent: ctx.root,
        phase: Phase::CoalesceLead,
        a: 0,
        t_start: t_eval,
        t_end: trace::now_ns(),
    });
    let result = result.map(|(response, early_stop)| {
        if early_stop {
            metrics::XEDD_EARLY_STOPS.incr();
        }
        let response = Arc::new(response);
        inner.cache.insert(*leader.key(), Arc::clone(&response));
        response
    });
    leader.finish(result.clone());
    reply.finish(&result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::CachedResponse;
    use std::io::Cursor;
    use xed_faultsim::engine::CanonicalKey;

    const TRACE: &str = "00000000000000ab";

    fn ctx() -> ReqCtx {
        ReqCtx {
            trace_id: 0xab,
            root: 1,
            hex: TRACE.to_string(),
            started: Instant::now(),
        }
    }

    fn answer(lines: &[&str], body: &str) -> FlightResult {
        Ok(Arc::new(CachedResponse {
            key: CanonicalKey { hi: 1, lo: 2 },
            progress_lines: lines.iter().map(|l| l.to_string()).collect(),
            body: body.to_string(),
        }))
    }

    /// Sends `lines` then `result` through one reply and returns the wire
    /// bytes.
    fn wire(streaming: bool, source: Source, lines: &[&str], result: &FlightResult) -> Vec<u8> {
        let mut out = Vec::new();
        send(&mut out, streaming, source, lines, result);
        out
    }

    fn send(
        out: &mut impl Write,
        streaming: bool,
        source: Source,
        lines: &[&str],
        result: &FlightResult,
    ) {
        let ctx = ctx();
        let mut reply = Reply::open(out, streaming, source, &ctx);
        for line in lines {
            reply.line(line);
        }
        reply.finish(result);
    }

    fn parse(wire: Vec<u8>) -> http::ClientResponse {
        http::read_client_response(&mut Cursor::new(wire)).expect("well-formed response")
    }

    fn header_names(resp: &http::ClientResponse) -> Vec<&str> {
        resp.headers.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn plain_and_chunked_replies_carry_the_same_body_and_tag() {
        let lines = ["{\"trials\":1}", "{\"trials\":2}"];
        let result = answer(&lines, "{\"p_fail\":0.5}");
        for source in [Source::Hit, Source::Miss, Source::Coalesced] {
            let plain = parse(wire(false, source, &lines, &result));
            assert_eq!(plain.status, 200);
            assert_eq!(
                header_names(&plain),
                [
                    "content-type",
                    "connection",
                    "x-xedd-cache",
                    "x-xedd-trace",
                    "content-length"
                ]
            );
            assert_eq!(plain.header("x-xedd-cache"), Some(source.tag()));
            assert_eq!(plain.header("x-xedd-trace"), Some(TRACE));
            assert_eq!(plain.body, "{\"p_fail\":0.5}");
            assert!(plain.chunks.is_empty(), "the plain framing drops the lines");

            let chunked = parse(wire(true, source, &lines, &result));
            assert_eq!(chunked.status, 200);
            assert_eq!(
                header_names(&chunked),
                [
                    "content-type",
                    "transfer-encoding",
                    "connection",
                    "x-xedd-cache",
                    "x-xedd-trace"
                ]
            );
            assert_eq!(chunked.header("x-xedd-cache"), Some(source.tag()));
            assert_eq!(chunked.header("x-xedd-trace"), Some(TRACE));
            assert_eq!(chunked.chunks, [lines[0], lines[1], plain.body.as_str()]);
        }
    }

    #[test]
    fn errors_are_framed_like_answers_and_echo_the_trace() {
        let failed: FlightResult = Err("no \"such\" scheme".to_string());
        for (source, status) in [(Source::Miss, 400), (Source::Coalesced, 500)] {
            let plain = parse(wire(false, source, &[], &failed));
            assert_eq!(plain.status, status);
            assert_eq!(plain.header("x-xedd-trace"), Some(TRACE));
            assert_eq!(plain.header("x-xedd-cache"), None);
            assert_eq!(plain.body, "{\"error\":\"no \\\"such\\\" scheme\"}");

            let chunked = parse(wire(true, source, &["{\"trials\":1}"], &failed));
            assert_eq!(chunked.status, 200, "the head went out before the failure");
            assert_eq!(chunked.header("x-xedd-trace"), Some(TRACE));
            assert_eq!(
                chunked.chunks,
                [
                    "{\"trials\":1}",
                    "{\"error\":\"no \\\"such\\\" scheme\",\"done\":true}"
                ]
            );
        }
    }

    /// A writer whose `fail_at`-th `write` call and every later one fail,
    /// as a socket does once the client has gone.
    struct FailsAt {
        fail_at: usize,
        calls: usize,
        wire: Vec<u8>,
    }

    impl Write for FailsAt {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls >= self.fail_at {
                return Err(std::io::Error::other("client gone"));
            }
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn nothing_is_written_after_the_first_failed_write() {
        let lines = ["{\"trials\":1}", "{\"trials\":2}", "{\"trials\":3}"];
        for result in [answer(&lines, "{\"p_fail\":0.5}"), Err("boom".to_string())] {
            for streaming in [false, true] {
                let mut whole = FailsAt {
                    fail_at: usize::MAX,
                    calls: 0,
                    wire: Vec::new(),
                };
                send(&mut whole, streaming, Source::Miss, &lines, &result);
                assert!(whole.calls > 1);
                for fail_at in 1..=whole.calls {
                    let mut out = FailsAt {
                        fail_at,
                        calls: 0,
                        wire: Vec::new(),
                    };
                    send(&mut out, streaming, Source::Miss, &lines, &result);
                    assert_eq!(
                        out.calls, fail_at,
                        "streaming={streaming}: a write after the failure"
                    );
                    assert!(whole.wire.starts_with(&out.wire));
                }
            }
        }
    }

    #[test]
    fn stop_returns_when_no_wake_connection_lands() {
        // Point the wake-up at loopback port 0, which nothing can listen
        // on: every attempt is refused, so the acceptor stays blocked in
        // `accept`. Shutdown must still return, well within the attempts'
        // budget.
        let closed = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        let mut server = Server::start(XeddConfig {
            workers: 1,
            ..XeddConfig::default()
        })
        .expect("bind ephemeral port");
        server.wake = closed;
        // Shut down on a watchdog thread, so a hang fails the test
        // instead of stalling the suite.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        let budget = (WAKE_TIMEOUT + WAKE_BACKOFF) * WAKE_ATTEMPTS + Duration::from_secs(5);
        finished
            .recv_timeout(budget)
            .expect("shutdown returns although no wake-up connection lands");
    }
}
