//! Shared plumbing: seeded randomness, statistics, run budgets, the
//! benchmark-side span recorder, host provenance and JSON output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator. Inputs are a pure
/// function of the `--seed` argument; the program under test only ever
/// sees the generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation-with-repetition: `n` indices into a pool of
    /// `pool` entries, each entry used as evenly as `n` allows, in a
    /// seeded order. Every run with the same `n` does the same multiset
    /// of work; the seed decides which entry lands where.
    pub fn schedule(&mut self, n: usize, pool: usize) -> Vec<usize> {
        let offset = self.below(pool as u64) as usize;
        let mut out: Vec<usize> = (0..n).map(|i| (i + offset) % pool).collect();
        for i in (1..out.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            out.swap(i, j);
        }
        out
    }
}

/// A fixed reference kernel, independent of the program under test:
/// SplitMix64 draws driving dependent loads from a 256 KiB table
/// (integer ALU, branches, L1/L2 traffic). Returns its seconds; the
/// run's median tracks how fast the host is running at the time.
pub fn calibrate() -> f64 {
    let mut rng = Rng::new(7);
    let mut table = vec![0u32; 1 << 16];
    for t in table.iter_mut() {
        *t = rng.next_u64() as u32;
    }
    let t = Instant::now();
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let r = rng.next_u64();
        at = (table[at] as usize ^ r as usize) & 0xFFFF;
        acc = acc.wrapping_add(u64::from(table[at]));
        if acc & 3 == 0 {
            table[at] = r as u32;
        }
    }
    std::hint::black_box(acc);
    secs(t)
}

/// One `GET` on a fresh loopback connection, as `xedd::http::client_get`
/// sends it. Returns the parsed response and the seconds from connect to
/// the parsed response. The connection is then read to its end (the
/// daemon closes first) and closed by [`close_reset`], so it leaves no
/// socket in TIME_WAIT behind it.
pub fn http_get(addr: &str, target: &str) -> (Result<xedd::http::ClientResponse, String>, f64) {
    use std::io::{Read, Write};
    let t = Instant::now();
    let mut stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return (Err(format!("connect {addr}: {e}")), secs(t)),
    };
    if let Err(e) = write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: xedd\r\nConnection: close\r\n\r\n"
    ) {
        return (Err(format!("send request: {e}")), secs(t));
    }
    let mut reader = std::io::BufReader::new(stream);
    let resp = xedd::http::read_client_response(&mut reader);
    let dt = secs(t);
    let _ = reader.read_to_end(&mut Vec::new());
    close_reset(reader.into_inner());
    (resp, dt)
}

/// Closes a connection with an RST (`SO_LINGER` of zero) instead of a
/// FIN, once the peer has closed its side. A closed-loop client opens
/// thousands of connections a second; closed normally, each would sit
/// 60 s in TIME_WAIT, and the tens of thousands that pile up make every
/// later `connect` slower, in this run and in the next. Without that, a
/// run's latencies depend on how many connections the runs before it
/// made.
pub fn close_reset(stream: std::net::TcpStream) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        #[repr(C)]
        struct Linger {
            l_onoff: i32,
            l_linger: i32,
        }
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_LINGER: i32 = 13;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: `stream` owns an open socket for the whole call, and the
        // option value is a live `struct linger` of the size passed.
        unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                &linger,
                std::mem::size_of::<Linger>() as u32,
            );
        }
    }
    drop(stream);
}

/// A loopback round-trip probe, independent of the program: the
/// benchmark's own acceptor thread hands each connection to a worker
/// thread, which echoes one line and closes, the thread and socket path
/// a daemon request takes. `probe` times fresh connections the way the
/// serve clients make them; the run's quantiles of these round trips
/// track how fast the host's kernel path (connect, accept, wake-ups)
/// runs at the time, in its typical case and in its tail.
#[derive(Debug)]
pub struct Loopback {
    addr: std::net::SocketAddr,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Loopback {
    pub fn start() -> Loopback {
        use std::io::{BufRead, BufReader, Write};
        use std::sync::atomic::{AtomicBool, Ordering};
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port for the probe");
        let addr = listener.local_addr().expect("probe listener address");
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<std::net::TcpStream>();
        let acceptor = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(c) = conn {
                        if tx.send(c).is_err() {
                            break;
                        }
                    }
                }
            })
        };
        let worker = std::thread::spawn(move || {
            for conn in rx {
                let mut line = String::new();
                let mut reader = BufReader::new(conn);
                if reader.read_line(&mut line).is_ok() {
                    let _ = reader.get_mut().write_all(line.as_bytes());
                }
            }
        });
        Loopback {
            addr,
            stop,
            threads: vec![acceptor, worker],
        }
    }

    /// Seconds of one round trip on a fresh connection.
    pub fn round_trip(&self) -> f64 {
        use std::io::{BufRead, BufReader, Write};
        let t = Instant::now();
        let mut c = std::net::TcpStream::connect(self.addr).expect("connect to the probe");
        c.write_all(b"ping\n").expect("write to the probe");
        let mut line = String::new();
        let mut reader = BufReader::new(c);
        reader.read_line(&mut line).expect("read from the probe");
        let dt = secs(t);
        let _ = std::io::Read::read_to_end(&mut reader, &mut Vec::new());
        close_reset(reader.into_inner());
        dt
    }

    /// Seconds of each of `n` round trips.
    pub fn probe(&self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.round_trip()).collect()
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        // Wake the acceptor so it sees the flag.
        let _ = std::net::TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sample; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// How much work one run does. The unit count is a fixed function of
/// `--seconds` (sized so a run measures about that long on a 2-vCPU
/// host), never of elapsed time: two runs with equal arguments do
/// identical work, whatever the machine's speed.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: u64,
    pub smoke: bool,
}

impl Budget {
    /// Units that fill `share` of the run at `nominal_ms` per unit
    /// (at least `min`; smoke mode takes `min`).
    pub fn units(&self, share: f64, nominal_ms: f64, min: usize) -> usize {
        if self.smoke {
            return min;
        }
        let n = (self.seconds as f64 * 1000.0 * share / nominal_ms).round() as usize;
        n.max(min)
    }
}

/// Outcome checks: every operation whose output was verified.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions (stderr diagnostics).
    pub first_failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.first_failures {
            if self.first_failures.len() < 8 {
                self.first_failures.push(f);
            }
        }
    }

    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics plus free-form report fields (sample counts, layer labels,
/// simulated statistics) that go on the report line, not the result.
#[derive(Debug, Default)]
pub struct Output {
    pub metrics: Vec<Metric>,
    pub report: BTreeMap<String, String>,
    /// Host-speed factors a section measured for its own metrics (see
    /// `normalize` in main.rs), by metric name.
    pub factors: BTreeMap<String, f64>,
}

impl Output {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a report field whose value is already JSON.
    pub fn note(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.report.insert(key.into(), json.into());
    }
}

/// Appends a JSON number (`null` when not finite).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values.
pub fn json_obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Runs a command and returns its trimmed stdout, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The provenance block every benchmark output carries; `threads` names
/// the thread and client counts used.
pub fn host_block(threads: &[(&str, usize)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    json_obj([
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu)),
        ("rustc", json_str(&command_output("rustc", &["--version"]))),
        (
            "git",
            json_str(&command_output("git", &["rev-parse", "HEAD"])),
        ),
        (
            "source_sha256",
            json_str(&std::env::var("PERFBENCH_SOURCE_HASH").unwrap_or_else(|_| "unknown".into())),
        ),
        ("profile", json_str(profile)),
        (
            "threads",
            json_obj(threads.iter().map(|(k, n)| (*k, n.to_string()))),
        ),
    ])
}

/// One benchmark-side span: a call into a layer's public API, recorded
/// around the call in the benchmark's own code (no tracing inside the
/// program).
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    id: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for the traced run. Keeps every span's
/// duration per name (for medians) and the first spans verbatim for the
/// Chrome-trace export written when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_id: u32,
    durations: BTreeMap<&'static str, Vec<u64>>,
    kept: Vec<SpanRec>,
}

/// Spans kept verbatim for export; durations are kept for all.
const KEPT_SPANS: usize = 20_000;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: 1,
            durations: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent` (0 = root) and
    /// returns its result and the span id.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(name, parent, start_ns, end_ns);
        out
    }

    /// Opens a span to be closed with [`Tracer::close`]; returns its id
    /// and start time.
    pub fn open(&mut self) -> (u32, u64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.now_ns())
    }

    pub fn close(&mut self, name: &'static str, id: u32, parent: u32, start_ns: u64) {
        let end_ns = self.now_ns();
        self.push(SpanRec {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    fn record(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.push(SpanRec {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    fn push(&mut self, span: SpanRec) {
        self.durations
            .entry(span.name)
            .or_default()
            .push(span.end_ns.saturating_sub(span.start_ns));
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(span);
        }
    }

    /// Folds another recorder's spans (a client thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        for (name, d) in other.durations {
            self.durations.entry(name).or_default().extend(d);
        }
        for mut s in other.kept {
            if self.kept.len() >= KEPT_SPANS {
                break;
            }
            s.id += self.next_id;
            s.start_ns += shift;
            s.end_ns += shift;
            self.kept.push(s);
        }
        self.next_id += other.next_id;
    }

    /// Median duration of the spans named `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .durations
            .get(name)
            .map(|v| v.iter().map(|&x| x as f64).collect())
            .unwrap_or_default();
        median(&d)
    }

    /// Span count and total nanoseconds per name.
    pub fn summary(&self) -> String {
        json_obj(self.durations.iter().map(|(name, d)| {
            (
                *name,
                json_obj([
                    ("count", d.len().to_string()),
                    ("total_ns", d.iter().sum::<u64>().to_string()),
                    (
                        "median_ns",
                        json_num(median(&d.iter().map(|&x| x as f64).collect::<Vec<_>>())),
                    ),
                ]),
            )
        }))
    }

    /// The kept spans as Chrome-tracing JSON (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .kept
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                    json_str(s.name),
                    s.start_ns as f64 / 1000.0,
                    (s.end_ns - s.start_ns) as f64 / 1000.0,
                    s.id,
                    s.parent
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }
}
