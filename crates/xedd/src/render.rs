//! Deterministic JSON rendering of engine results.
//!
//! Every byte a query response carries is rendered here, from the
//! deterministic parts of an [`Estimate`] only (wall-clock metadata is
//! deliberately excluded). That makes response bodies a pure function of
//! the canonicalized query, which is what the selftest's
//! server-vs-direct-engine byte-identity gate checks, and what lets the
//! memo cache replay a stored response — including every streamed partial
//! line — byte-for-byte to later clients.

use xed_faultsim::engine::{CanonicalKey, Estimate, Progress, Query, QueryKind};

/// A fully rendered, cacheable response: the terminal JSON body plus the
/// streamed partial-confidence lines that preceded it (empty for tail
/// queries' instant replays). Shared between the in-flight coalescing
/// table and the memo cache behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResponse {
    /// The canonical key the response was computed under.
    pub key: CanonicalKey,
    /// One rendered JSON line per streamed [`Progress`] snapshot.
    pub progress_lines: Vec<String>,
    /// The terminal JSON object (the non-streaming body; streamed
    /// responses send it as the last chunk).
    pub body: String,
}

/// Appends a JSON number (or `null` for non-finite values, which JSON
/// cannot represent) to `out`. `{:?}` formatting is shortest-roundtrip
/// and deterministic, so equal floats always render to equal bytes.
fn push_num(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else {
        out.push_str("null");
    }
}

fn push_field(out: &mut String, name: &str, x: f64) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    push_num(out, x);
}

/// Renders one streamed partial-confidence line.
pub fn progress_line(p: &Progress) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"trials\":");
    out.push_str(&p.trials_done.to_string());
    out.push_str(",\"total\":");
    out.push_str(&p.total.to_string());
    out.push(',');
    push_field(&mut out, "p_fail", p.p_fail);
    out.push(',');
    push_field(&mut out, "ci95", p.ci95);
    out.push(',');
    push_field(&mut out, "ci99", p.ci99);
    out.push(',');
    push_field(&mut out, "relative_ci95", p.relative_ci95);
    out.push_str(",\"done\":false}");
    out
}

/// Renders the terminal response body for a completed estimate.
///
/// Deterministic fields only: the canonical key, the query identity and
/// the estimate's counts and probabilities. Wall time and thread counts
/// are reporting metadata and live in `/metrics`, never in a body.
pub fn final_body(query: &Query, key: &CanonicalKey, estimate: &Estimate) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"schema\":\"xedd-v1\",\"key\":\"");
    out.push_str(&key.to_string());
    out.push_str("\",\"scheme\":\"");
    out.push_str(estimate.scheme().id());
    out.push_str("\",\"kind\":\"");
    out.push_str(match query.kind {
        QueryKind::Lifetime => "lifetime",
        QueryKind::Tail { .. } => "tail",
    });
    out.push_str("\",\"requested_samples\":");
    out.push_str(&query.samples.to_string());
    out.push_str(",\"trials\":");
    out.push_str(&estimate.samples().to_string());
    out.push_str(",\"early_stop\":");
    out.push_str(if stopped_early(query, estimate) {
        "true"
    } else {
        "false"
    });
    out.push(',');
    push_field(&mut out, "p_fail", estimate.p_fail());
    out.push(',');
    push_field(&mut out, "p_due", estimate.p_due());
    out.push(',');
    push_field(&mut out, "p_sdc", estimate.p_sdc());
    out.push(',');
    push_field(&mut out, "ci95", estimate.ci95());
    out.push(',');
    push_field(&mut out, "ci99", estimate.ci99());
    out.push(',');
    push_field(&mut out, "relative_ci95", estimate.relative_ci95());
    match estimate {
        Estimate::Lifetime(report) => {
            out.push_str(",\"due\":");
            out.push_str(&report.result.due.to_string());
            out.push_str(",\"sdc\":");
            out.push_str(&report.result.sdc.to_string());
            out.push_str(",\"curve\":[");
            for (i, p) in report.result.curve().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_num(&mut out, *p);
            }
            out.push(']');
        }
        Estimate::Tail(tail) => {
            out.push_str(",\"mode\":\"");
            out.push_str(tail.mode.label());
            out.push_str("\",\"min_faults\":");
            out.push_str(&tail.min_faults.to_string());
            out.push(',');
            push_field(
                &mut out,
                "conditioning_probability",
                tail.conditioning_probability,
            );
            out.push(',');
            push_field(&mut out, "effective_trials", tail.effective_trials());
        }
    }
    out.push('}');
    out
}

/// Whether `estimate` stopped before the trials `query` asked for: the
/// body's `early_stop` flag.
fn stopped_early(query: &Query, estimate: &Estimate) -> bool {
    estimate.samples() < query.samples
}

/// Evaluates a query through the engine facade and renders the complete
/// cacheable response, recording each streamed partial. This is the one
/// compute path the daemon runs on a cache miss — and exactly what the
/// selftest calls directly to assert server responses are byte-identical
/// to the engine's.
pub fn evaluate_to_response(
    query: &Query,
    on_progress: impl FnMut(&str),
) -> Result<CachedResponse, String> {
    evaluate_miss(query, on_progress).map(|(response, _)| response)
}

/// [`evaluate_to_response`] plus whether the run stopped early, taken
/// from the estimate rather than re-read from the rendered body.
pub(crate) fn evaluate_miss(
    query: &Query,
    mut on_progress: impl FnMut(&str),
) -> Result<(CachedResponse, bool), String> {
    let key = query.canonical_key();
    let mut progress_lines = Vec::new();
    let estimate = xed_faultsim::engine::evaluate_streaming(query, |p| {
        let line = progress_line(p);
        on_progress(&line);
        progress_lines.push(line);
    })?;
    let body = final_body(query, &key, &estimate);
    let response = CachedResponse {
        key,
        progress_lines,
        body,
    };
    Ok((response, stopped_early(query, &estimate)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xed_faultsim::Scheme;

    #[test]
    fn bodies_and_progress_lines_are_valid_json() {
        let mut q = Query::lifetime(Scheme::EccDimm, 10_000, 7);
        q.exec.block = 4_000;
        let resp = evaluate_to_response(&q, |_| {}).expect("valid query");
        assert!(crate::json::is_valid(&resp.body), "body: {}", resp.body);
        assert_eq!(resp.progress_lines.len(), 3);
        for line in &resp.progress_lines {
            assert!(crate::json::is_valid(line), "line: {line}");
        }
        let tail = Query {
            kind: QueryKind::Tail { force: None },
            ..Query::lifetime(Scheme::XedChipkill, 5_000, 7)
        };
        let resp = evaluate_to_response(&tail, |_| {}).expect("valid query");
        assert!(
            crate::json::is_valid(&resp.body),
            "tail body: {}",
            resp.body
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let q = Query::lifetime(Scheme::Xed, 10_000, 7);
        let a = evaluate_to_response(&q, |_| {}).expect("valid query");
        let b = evaluate_to_response(&q, |_| {}).expect("valid query");
        assert_eq!(a, b, "same query must render byte-identically");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        // A 1-sample run sees no failure, so relative_ci95 is infinite.
        let q = Query::lifetime(Scheme::DoubleChipkill, 1, 7);
        let resp = evaluate_to_response(&q, |_| {}).expect("valid query");
        assert!(
            crate::json::field(&resp.body, "relative_ci95") == Some("null"),
            "infinite relative CI must render as null: {}",
            resp.body
        );
        assert!(crate::json::is_valid(&resp.body));
    }
}
