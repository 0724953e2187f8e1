//! Integration tests: a real daemon on an ephemeral port, driven over
//! TCP. The full smoke sequence lives in `xedd::selftest` (run both as a
//! unit test and by `scripts/ci.sh` through `xedd --selftest`); these
//! cover the daemon behaviors the smoke sequence leaves out — admission
//! control, method filtering, cache behavior across distinct queries.
//!
//! Every test holds [`SERIAL`] for its whole run, so no two of them share
//! the CPUs even when the harness runs tests on parallel threads: the
//! warm/cold p50 gate's margin is under 2x, and a sibling's daemon beside
//! it doubles the warm latency it measures.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use xedd::http;
use xedd::{Server, XeddConfig};

/// The lock every test in this file holds while it runs.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a sibling that panicked while holding it does not
/// poison the rest.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start(workers: usize, queue_limit: usize) -> Server {
    Server::start(XeddConfig {
        workers,
        queue_limit,
        ..XeddConfig::default()
    })
    .expect("bind ephemeral port")
}

#[test]
fn distinct_queries_get_distinct_cached_answers() {
    let _serial = serial();
    let server = start(2, 16);
    let addr = server.addr();
    let a = "/v1/query?scheme=xed&samples=50000&seed=1";
    let b = "/v1/query?scheme=ecc-dimm&samples=50000&seed=1";
    let cold_a = http::client_get(&addr, a).expect("query a");
    let cold_b = http::client_get(&addr, b).expect("query b");
    assert_eq!(cold_a.header("x-xedd-cache"), Some("miss"));
    assert_eq!(cold_b.header("x-xedd-cache"), Some("miss"));
    assert_ne!(
        cold_a.body, cold_b.body,
        "different schemes, different answers"
    );
    let warm_a = http::client_get(&addr, a).expect("repeat a");
    let warm_b = http::client_get(&addr, b).expect("repeat b");
    assert_eq!(warm_a.header("x-xedd-cache"), Some("hit"));
    assert_eq!(warm_b.header("x-xedd-cache"), Some("hit"));
    assert_eq!(warm_a.body, cold_a.body);
    assert_eq!(warm_b.body, cold_b.body);
    server.shutdown();
}

#[test]
fn non_get_methods_are_rejected() {
    let _serial = serial();
    let server = start(1, 4);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(stream, "POST /v1/query HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
    let mut reader = std::io::BufReader::new(stream);
    let resp = http::read_client_response(&mut reader).expect("response");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("GET"), "{}", resp.body);
    server.shutdown();
}

#[test]
fn error_responses_echo_the_trace_id() {
    let _serial = serial();
    let server = start(1, 4);
    let trace = [("X-Xedd-Trace", "00000000000000ab")];
    for (target, status) in [
        ("/v1/query?scheme=no-such-scheme", 400),
        ("/v1/query?scheme=xed&samples=1000&partials=maybe", 400),
        ("/no/such/route", 404),
    ] {
        let resp = http::client_get_with(&server.addr(), target, &trace).expect(target);
        assert_eq!(resp.status, status, "{target}: {}", resp.body);
        assert_eq!(
            resp.header("x-xedd-trace"),
            Some("00000000000000ab"),
            "{target}"
        );
        if target.contains("partials") {
            assert_eq!(
                resp.body,
                "{\"error\":\"parameter partials=maybe: expected a boolean\"}"
            );
        }
    }
    server.shutdown();
}

/// `true` once the server has sent `stream` something (or closed it):
/// a 20 ms peek, so callers can poll several connections in turn and act
/// on whichever the server answers first.
fn answered(stream: &TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set poll timeout");
    let mut byte = [0u8; 1];
    match stream.peek(&mut byte) {
        Ok(_) => true,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

#[test]
fn full_queue_sheds_with_503() {
    let _serial = serial();
    // One worker, queue bound 1. Pin the worker with a connection that
    // never sends its request, let a second occupy the queue slot, and a
    // third must be shed immediately with 503 by the acceptor.
    //
    // The order is observed, not slept for. The setup holds while the
    // server has answered neither `pin` nor `queued`: the acceptor admits
    // in connection order, so `queued` meets a full queue — and is
    // answered with a 503 itself — when the worker has not yet taken
    // `pin`, and `pin` is answered when a previous attempt's connections
    // still filled the queue. An attempt counts only if `shed` is
    // answered while the setup holds; any other attempt is retried once
    // the server is idle again. The worker needs a wake-up to take `pin`,
    // which a loaded host can delay past `queued`'s arrival every time,
    // so each retry waits longer (1 ms doubling to 256 ms) before
    // connecting `queued`: a backoff that lets the retries converge, not
    // a sleep the outcome relies on.
    let server = start(1, 1);
    let addr = server.addr();
    let mut shed_response = None;
    for attempt in 0..50u32 {
        let pin = TcpStream::connect(&addr).expect("pin connection");
        std::thread::sleep(Duration::from_millis(1 << attempt.min(8)));
        let queued = TcpStream::connect(&addr).expect("queued connection");
        // `shed` sends nothing: the acceptor sheds at accept, before any
        // read, and a request written after its 503 could meet a socket
        // the server has already closed.
        let shed = TcpStream::connect(&addr).expect("shed connection");
        let held = |pin: &TcpStream, queued: &TcpStream| !answered(pin) && !answered(queued);
        let shed_while_held = loop {
            if !held(&pin, &queued) {
                break false;
            }
            if answered(&shed) {
                break held(&pin, &queued);
            }
        };
        if shed_while_held {
            shed.set_read_timeout(None).expect("blocking read");
            let mut reader = std::io::BufReader::new(shed);
            shed_response = Some(http::read_client_response(&mut reader).expect("shed response"));
        }
        // Closing `pin` and `queued` fails the worker's reads at once
        // instead of waiting out the read timeout.
        drop(pin);
        drop(queued);
        if shed_response.is_some() {
            break;
        }
        // Start the next attempt on an idle server: the queue is FIFO and
        // has one worker, so a served probe means everything this attempt
        // left behind has been handled. A shed probe is retried after a
        // pause, so a busy worker cannot turn this into a connection storm
        // that exhausts the host's ephemeral ports.
        for _ in 0..100 {
            if http::client_get(&addr, "/healthz").is_ok_and(|r| r.status == 200) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let shed = shed_response.expect("no attempt found the worker busy and the queue full");
    assert_eq!(shed.status, 503, "over-bound request must be shed");
    assert!(shed.body.contains("overloaded"), "{}", shed.body);
    server.shutdown();
}

#[test]
fn oversized_sample_counts_are_rejected_with_400() {
    let _serial = serial();
    let server = start(1, 4);
    let addr = server.addr();
    let over = xed_faultsim::engine::MAX_SAMPLES + 1;
    let resp =
        http::client_get(&addr, &format!("/v1/query?scheme=xed&samples={over}")).expect("response");
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("samples must be at most"),
        "{}",
        resp.body
    );
    // A thread count past the bound is refused before any worker starts.
    let over = xed_faultsim::engine::MAX_THREADS + 1;
    let resp = http::client_get(
        &addr,
        &format!("/v1/query?scheme=xed&samples=4096&threads={over}"),
    )
    .expect("response");
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("threads must be at most"),
        "{}",
        resp.body
    );
    // So is a block size that would fill the cache with progress lines.
    for query in [
        "/v1/query?scheme=xed&samples=4096&block=0",
        "/v1/query?scheme=xed&samples=10000000&block=1000",
    ] {
        let resp = http::client_get(&addr, query).expect("response");
        assert_eq!(resp.status, 400, "{query}");
        assert!(resp.body.contains("block"), "{query}: {}", resp.body);
    }
    // And a FIT table that would make every trial draw about 10^12
    // faults.
    let resp =
        http::client_get(&addr, "/v1/query?scheme=xed&samples=1&fit=bit:1e12:0").expect("response");
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("expected faults per trial"),
        "{}",
        resp.body
    );
    server.shutdown();
}

#[test]
fn healthz_reports_the_build_and_its_target_level() {
    let _serial = serial();
    let server = start(1, 4);
    let body = http::client_get(&server.addr(), "/healthz")
        .expect("healthz")
        .body;
    let git = xedd::json::field(&body, "git").expect("git");
    let level = xedd::json::field(&body, "level").expect("level");
    let uptime = xedd::json::field(&body, "uptime_seconds").expect("uptime");
    // The test is built with the daemon's flags, so its own `cfg!` names
    // the same features.
    let features = [
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .map(|(name, on)| format!("\"{name}\":{on}"))
    .join(",");
    assert_eq!(
        body,
        format!(
            "{{\"ok\":true,\"git\":{git},\"target\":{{\"level\":{level},\"features\":{{{features}}}}},\"schemes\":{},\"uptime_seconds\":{uptime}}}",
            xed_faultsim::schemes::Scheme::ALL.len()
        )
    );
    if cfg!(target_arch = "x86_64") {
        let levels = [
            "\"x86-64\"",
            "\"x86-64-v2\"",
            "\"x86-64-v3\"",
            "\"x86-64-v4\"",
        ];
        assert!(levels.contains(&level), "{level}");
        let v3 = cfg!(all(
            target_feature = "avx2",
            target_feature = "bmi2",
            target_feature = "fma"
        ));
        assert_eq!(v3, levels[2..].contains(&level), "{level}");
    }
    server.shutdown();
}

#[test]
fn ephemeral_servers_bind_distinct_ports() {
    let _serial = serial();
    let a = start(1, 4);
    let b = start(1, 4);
    assert_ne!(a.port(), b.port());
    assert_eq!(
        http::client_get(&a.addr(), "/healthz")
            .expect("a healthy")
            .status,
        200
    );
    assert_eq!(
        http::client_get(&b.addr(), "/healthz")
            .expect("b healthy")
            .status,
        200
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn servers_start_and_stop_in_a_loop_within_a_deadline() {
    let _serial = serial();
    // Shutdown wakes the blocking acceptor with a connection of its own;
    // a lost wake-up used to hang the join forever. Start and stop
    // ephemeral servers back to back on a watchdog thread: the loop must
    // finish inside the deadline, or the test fails instead of hanging.
    const ROUNDS: u32 = 24;
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..ROUNDS {
            let server = start(1, 4);
            assert_ne!(server.port(), 0);
            server.shutdown();
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("start/stop loop missed its deadline (or panicked)");
}

/// Nearest-rank percentile of sorted latencies.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One timed `GET`, in microseconds, with its response.
fn timed_get(addr: &str, target: &str) -> (f64, http::ClientResponse) {
    let t = Instant::now();
    let resp = http::client_get(addr, target).unwrap_or_else(|e| panic!("GET {target}: {e}"));
    (t.elapsed().as_nanos() as f64 / 1e3, resp)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release builds only")]
fn warm_hits_are_a_hundred_times_faster_than_cold_misses_at_p50() {
    let _serial = serial();
    // The memo cache's reason to exist, over real TCP: 6 distinct
    // 4M-trial queries (every one a miss that runs the full Monte-Carlo),
    // then 4 clients x 50 repeats over those keys (every one a hit). The
    // warm p50 must sit at least 100x below the cold p50. Timing-based,
    // so it runs in release only and alone (`--test-threads=1`, as
    // `scripts/ci.sh` does): on a 2-vCPU host it has read as little as
    // 145x, only 1.45x above the bar.
    const SAMPLES: u64 = 4_000_000;
    const SEED: u64 = 2016;
    const COLD_KEYS: usize = 6;
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 50;
    const MIN_SPEEDUP: f64 = 100.0;
    let server = start(CLIENTS + 2, XeddConfig::default().queue_limit);
    let addr = server.addr();
    let target = |key: usize| {
        format!(
            "/v1/query?scheme=xed&samples={SAMPLES}&seed={}",
            SEED + key as u64
        )
    };

    let mut cold: Vec<f64> = (0..COLD_KEYS)
        .map(|key| {
            let (us, resp) = timed_get(&addr, &target(key));
            assert_eq!(resp.status, 200, "cold query failed: {}", resp.body);
            assert_eq!(resp.header("x-xedd-cache"), Some("miss"));
            us
        })
        .collect();
    let mut warm: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (addr, target) = (&addr, &target);
                scope.spawn(move || {
                    (0..REQUESTS)
                        .map(|i| {
                            let (us, resp) = timed_get(addr, &target((client + i) % COLD_KEYS));
                            assert_eq!(resp.header("x-xedd-cache"), Some("hit"));
                            us
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("warm client"))
            .collect()
    });
    server.shutdown();

    cold.sort_by(f64::total_cmp);
    warm.sort_by(f64::total_cmp);
    let (cold_p50, warm_p50) = (percentile(&cold, 50.0), percentile(&warm, 50.0));
    let speedup = cold_p50 / warm_p50.max(1e-9);
    println!(
        "cold p50 {cold_p50:.0} us ({} requests), warm p50 {warm_p50:.0} us ({} requests): \
         {speedup:.0}x (need >= {MIN_SPEEDUP}x)",
        cold.len(),
        warm.len()
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "warm p50 ({warm_p50:.0} us) must be >= {MIN_SPEEDUP}x below cold p50 \
         ({cold_p50:.0} us), got {speedup:.1}x"
    );
}
