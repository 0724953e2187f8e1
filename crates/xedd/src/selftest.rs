//! The in-process end-to-end gate `scripts/ci.sh` runs (`xedd
//! --selftest`): boots a daemon on an ephemeral port and drives the full
//! smoke sequence with real TCP clients — cold query, memoized replay,
//! coalesced concurrent pair, streamed epsilon early stop, `/metrics` —
//! asserting at each step that what the server sends over the wire is
//! **byte-identical** to what the engine computes directly, then shuts
//! the daemon down cleanly.
//!
//! Every check returns a reason string instead of panicking, so a CI
//! failure names exactly which contract broke.

use crate::http::{self, ChunkStream};
use crate::render;
use crate::server::{Server, XeddConfig};
use xed_telemetry::registry::metrics;

/// Asserts `cond`, failing the selftest with `reason`.
fn check(cond: bool, reason: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("selftest: {reason}"))
    }
}

/// The direct-engine rendering of the query a request target encodes —
/// the byte-identity reference for server responses.
fn direct(target: &str) -> Result<render::CachedResponse, String> {
    let query_string = target.split_once('?').map_or("", |(_, q)| q);
    let params: Vec<(String, String)> = http::parse_query_string(query_string)?
        .into_iter()
        .filter(|(name, _)| name != "partials")
        .collect();
    let query = http::query_from_params(&params)?;
    render::evaluate_to_response(&query, |_| {})
}

/// Runs the full smoke sequence; `log` receives one line per completed
/// step (the binary wires it to stdout, tests to a sink).
pub fn run(mut log: impl FnMut(&str)) -> Result<(), String> {
    let server = Server::start(XeddConfig::default())?;
    let addr = server.addr();
    log(&format!("selftest: daemon up on {addr}"));

    // -- health -----------------------------------------------------------
    let health = http::client_get(&addr, "/healthz")?;
    check(health.status == 200, "/healthz did not return 200")?;
    check(
        crate::json::is_valid(&health.body),
        "/healthz body is not JSON",
    )?;
    check(
        crate::json::field(&health.body, "ok") == Some("true"),
        "/healthz ok flag is not true",
    )?;
    check(
        health.body.contains("\"git\":"),
        "/healthz lacks build info (git hash)",
    )?;
    let features = crate::json::field(&health.body, "features").unwrap_or("");
    check(
        crate::json::field(&health.body, "level").is_some_and(|l| l.starts_with('"'))
            && ["popcnt", "bmi2", "avx2", "fma", "avx512f"]
                .iter()
                .all(|f| matches!(crate::json::field(features, f), Some("true" | "false"))),
        "/healthz lacks the compiled target level and features",
    )?;
    check(
        crate::json::number_field(&health.body, "schemes")
            == Some(xed_faultsim::schemes::Scheme::ALL.len() as f64),
        "/healthz scheme registry size does not match Scheme::ALL",
    )?;
    check(
        crate::json::number_field(&health.body, "uptime_seconds").is_some(),
        "/healthz lacks uptime_seconds",
    )?;
    log("selftest: /healthz ok (build info and target level present)");

    // -- cold query, then memoized replay ---------------------------------
    let target = "/v1/query?scheme=xed&samples=200000&seed=7";
    let reference = direct(target)?;
    let cold = http::client_get(&addr, target)?;
    check(cold.status == 200, "cold query did not return 200")?;
    check(
        cold.header("x-xedd-cache") == Some("miss"),
        "cold query was not a cache miss",
    )?;
    check(
        cold.body == reference.body,
        "cold response is not byte-identical to the direct engine rendering",
    )?;
    log("selftest: cold query matches the engine byte-for-byte");

    let warm = http::client_get(&addr, target)?;
    check(
        warm.header("x-xedd-cache") == Some("hit"),
        "repeat query was not served from the memo cache",
    )?;
    check(
        warm.body == cold.body,
        "memoized replay differs from the cold response",
    )?;

    // A semantically-equal spelling (reordered parameters, alternative
    // scheme name) must hit the same cache slot.
    let respelled = http::client_get(&addr, "/v1/query?seed=7&samples=200000&scheme=XED")?;
    check(
        respelled.header("x-xedd-cache") == Some("hit"),
        "canonically-equal respelling missed the cache",
    )?;
    check(respelled.body == cold.body, "respelled replay differs")?;

    // Memoized streaming framing replays the recorded partials too.
    let mut warm_stream = ChunkStream::open(&addr, &format!("{target}&partials=1"))?;
    check(
        warm_stream.header("x-xedd-cache") == Some("hit"),
        "streamed replay was not served from the memo cache",
    )?;
    let mut expect: Vec<String> = reference.progress_lines.clone();
    expect.push(reference.body.clone());
    check(
        warm_stream.drain()? == expect,
        "streamed replay is not byte-identical to the engine's partials",
    )?;
    log("selftest: memoized replays are byte-identical (plain and streamed)");

    // -- coalesced concurrent pair ----------------------------------------
    // A fresh key evaluated with streamed partials: read the leader's
    // first chunk (the flight is now provably in the table with blocks
    // still to run), attach K followers, then assert exactly one
    // evaluation happened.
    let evals_before = metrics::XEDD_EVALUATIONS.value();
    let coalesced_before = metrics::XEDD_COALESCED.value();
    let slow = "/v1/query?scheme=xed-chipkill&samples=8000000&block=2000000&seed=41&partials=1";
    let slow_reference = direct(slow)?;
    let mut leader = ChunkStream::open(&addr, slow)?;
    check(
        leader.header("x-xedd-cache") == Some("miss"),
        "coalescing leader was not a cache miss",
    )?;
    let first = leader.next_chunk()?;
    check(
        first.is_some(),
        "leader stream ended before its first partial",
    )?;
    const FOLLOWERS: usize = 3;
    // The first follower carries a known trace id, so the coalesce
    // handoff span can be pulled out of the flight recorder afterwards.
    const FOLLOWER_TRACE: &str = "00000000f0110001";
    let mut handles = Vec::new();
    for i in 0..FOLLOWERS {
        let addr = addr.clone();
        let slow = slow.to_string();
        handles.push(std::thread::spawn(move || {
            let stream = if i == 0 {
                ChunkStream::open_with(&addr, &slow, &[("X-Xedd-Trace", FOLLOWER_TRACE)])
            } else {
                ChunkStream::open(&addr, &slow)
            };
            stream.and_then(|mut s| s.drain())
        }));
    }
    let mut leader_chunks = vec![first.ok_or("leader first chunk missing")?];
    leader_chunks.extend(leader.drain()?);
    let mut slow_expect: Vec<String> = slow_reference.progress_lines.clone();
    slow_expect.push(slow_reference.body.clone());
    check(
        leader_chunks == slow_expect,
        "leader stream is not byte-identical to the engine's partials",
    )?;
    for handle in handles {
        let chunks = handle
            .join()
            .map_err(|_| "follower thread panicked".to_string())??;
        // A mid-flight follower replays every already-published line
        // before streaming live ones, so its stream equals the leader's
        // in full — as does a memoized replay.
        check(
            chunks == slow_expect,
            "a follower's stream is not byte-identical to the leader's",
        )?;
    }
    let evaluations = metrics::XEDD_EVALUATIONS.value() - evals_before;
    let coalesced = metrics::XEDD_COALESCED.value() - coalesced_before;
    check(
        evaluations == 1,
        &format!(
            "{} concurrent identical requests ran {evaluations} evaluations, want 1",
            FOLLOWERS + 1
        ),
    )?;
    check(
        coalesced == FOLLOWERS as u64,
        &format!("expected {FOLLOWERS} coalesced attachments, saw {coalesced}"),
    )?;
    log(&format!(
        "selftest: {} concurrent identical requests -> 1 evaluation, {coalesced} coalesced",
        FOLLOWERS + 1
    ));

    // -- trace propagation across the coalescer ---------------------------
    // The leader's assigned trace id is echoed in its response headers;
    // the traced follower's CoalesceFollow span must record it as the
    // handoff edge (`a` attribute).
    let leader_hex = leader
        .header("x-xedd-trace")
        .ok_or("leader response lacks the X-Xedd-Trace echo")?;
    let leader_id = u64::from_str_radix(leader_hex, 16)
        .map_err(|e| format!("selftest: leader trace id {leader_hex:?}: {e}"))?;
    let follower_flight =
        http::client_get(&addr, &format!("/debug/flight?trace={FOLLOWER_TRACE}"))?;
    check(
        follower_flight.status == 200,
        "/debug/flight did not return 200",
    )?;
    check(
        crate::json::is_valid(&follower_flight.body),
        "/debug/flight body is not valid JSON",
    )?;
    check(
        follower_flight
            .body
            .contains("\"name\":\"coalesce_follow\""),
        "the traced follower's flight dump lacks its coalesce_follow span",
    )?;
    check(
        follower_flight.body.contains(&format!("\"a\":{leader_id}")),
        "the coalesce_follow span does not record the leader handoff (a = leader trace id)",
    )?;
    log("selftest: follower's trace records the leader handoff");

    // -- end-to-end traced request ----------------------------------------
    // A fresh traced query must leave every request phase in the flight
    // recorder, exported as filterable xed-trace-spans-v1 JSON.
    const TRACE: &str = "00000000c0ffee42";
    let traced_target = "/v1/query?scheme=ecc-dimm&samples=200000&seed=99";
    let traced = http::client_get_with(&addr, traced_target, &[("X-Xedd-Trace", TRACE)])?;
    check(traced.status == 200, "traced query did not return 200")?;
    check(
        traced.header("x-xedd-trace") == Some(TRACE),
        "traced query response does not echo X-Xedd-Trace",
    )?;
    let flight = http::client_get(&addr, &format!("/debug/flight?trace={TRACE}"))?;
    check(
        crate::json::is_valid(&flight.body),
        "traced flight dump is not valid JSON",
    )?;
    check(
        flight.body.contains("\"schema\":\"xed-trace-spans-v1\""),
        "flight dump does not declare the xed-trace-spans-v1 schema",
    )?;
    for span in [
        "admission",
        "cache_lookup",
        "coalesce_lead",
        "evaluate",
        "scheduler_chunk",
    ] {
        check(
            flight.body.contains(&format!("\"name\":\"{span}\"")),
            &format!("traced request's flight dump lacks the {span} span"),
        )?;
    }
    log("selftest: traced request exports admission/cache/coalesce/evaluate/scheduler spans");

    // -- streamed epsilon early stop --------------------------------------
    let early_before = metrics::XEDD_EARLY_STOPS.value();
    let eps = "/v1/query?scheme=ecc-dimm&samples=5000000&block=20000&epsilon=0.5&seed=11";
    let eps_reference = direct(eps)?;
    let mut stream = ChunkStream::open(&addr, eps)?;
    let chunks = stream.drain()?;
    let mut eps_expect: Vec<String> = eps_reference.progress_lines.clone();
    eps_expect.push(eps_reference.body.clone());
    check(
        chunks == eps_expect,
        "epsilon stream is not byte-identical to the engine's partials",
    )?;
    let body = chunks.last().ok_or("epsilon stream was empty")?;
    check(
        crate::json::field(body, "early_stop") == Some("true"),
        "epsilon query did not stop early",
    )?;
    let trials = crate::json::number_field(body, "trials").unwrap_or(0.0);
    check(
        trials < 5_000_000.0,
        "epsilon query consumed the full budget",
    )?;
    check(
        metrics::XEDD_EARLY_STOPS.value() > early_before,
        "xedd.early_stops did not record the stop",
    )?;
    log(&format!(
        "selftest: epsilon=0.5 stopped after {trials} of 5000000 trials"
    ));

    // -- error paths and /metrics -----------------------------------------
    let bad = http::client_get(&addr, "/v1/query?scheme=warp-drive")?;
    check(bad.status == 400, "unknown scheme did not return 400")?;
    let lost = http::client_get(&addr, "/v1/nope")?;
    check(lost.status == 404, "unknown route did not return 404")?;
    let metrics_resp = http::client_get(&addr, "/metrics")?;
    check(metrics_resp.status == 200, "/metrics did not return 200")?;
    check(
        crate::json::is_valid(&metrics_resp.body),
        "/metrics body is not valid JSON",
    )?;
    for id in [
        "xedd.requests",
        "xedd.cache.hits",
        "xedd.coalesced",
        "xedd.evaluations",
    ] {
        check(
            metrics_resp.body.contains(&format!("\"id\":\"{id}\"")),
            &format!("/metrics export is missing {id}"),
        )?;
    }
    log("selftest: error paths and /metrics ok");

    // -- Prometheus text exposition ---------------------------------------
    let prom = http::client_get(&addr, "/metrics?format=prometheus")?;
    check(
        prom.status == 200,
        "/metrics?format=prometheus did not return 200",
    )?;
    xed_telemetry::export::prometheus_check(&prom.body)
        .map_err(|e| format!("selftest: prometheus exposition failed its self-check: {e}"))?;
    check(
        prom.body.contains("xedd_phase_evaluate_ns_bucket"),
        "prometheus exposition lacks the per-phase histograms",
    )?;
    check(
        prom.body.contains("xedd_endpoint_query_ns_count"),
        "prometheus exposition lacks the per-endpoint histograms",
    )?;
    log("selftest: /metrics prometheus exposition passes the format self-check");

    server.shutdown();
    log("selftest: clean shutdown");
    Ok(())
}

#[cfg(test)]
mod tests {
    /// The full smoke sequence as a unit test (ci.sh additionally runs it
    /// through the `xedd --selftest` binary).
    #[test]
    fn selftest_passes() {
        let mut lines = Vec::new();
        super::run(|l| lines.push(l.to_string())).expect("selftest must pass");
        assert!(lines.iter().any(|l| l.contains("clean shutdown")));
    }
}
