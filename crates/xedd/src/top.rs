//! The ops view behind the `xedtop` binary: parse the daemon's
//! Prometheus exposition and its flight-recorder dump into a live
//! terminal dashboard — qps, cache-hit and coalesce ratios, shed rate,
//! and p50/p99 latency per request phase.
//!
//! Everything here is pure `string → struct → string`, so the dashboard
//! renders identically in unit tests and against a live socket; the
//! binary only adds the poll loop and screen clearing. Parsing the
//! exposition instead of the JSON snapshot is deliberate dogfooding: if
//! `/metrics?format=prometheus` regresses, `xedtop` goes blank.

use xed_telemetry::export;
use xed_telemetry::trace::Phase;

/// One parsed Prometheus sample line (`name{labels} value`).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (underscored, as exposed).
    pub name: String,
    /// Label pairs in exposition order (`le` for histogram buckets).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition into samples, skipping comments and
/// blank lines. A line [`export::parse_sample_line`] rejects is dropped,
/// not an error: a dashboard must keep rendering through a
/// partially-garbled scrape.
pub fn parse_prometheus(text: &str) -> Vec<Sample> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| export::parse_sample_line(line).ok())
        .map(|s| Sample {
            name: s.name.to_string(),
            labels: s
                .labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: s.value,
        })
        .collect()
}

/// The value of the first unlabeled sample named `name`, if present.
pub fn value(samples: &[Sample], name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

/// A quantile read off a cumulative `<base>_bucket` histogram: the
/// smallest `le` edge whose cumulative count covers rank `⌈q·n⌉`.
/// `None` when the histogram is absent or empty.
pub fn quantile(samples: &[Sample], base: &str, q: f64) -> Option<f64> {
    let bucket = format!("{base}_bucket");
    let mut edges: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| {
            let le = s.labels.iter().find(|(n, _)| n == "le")?;
            let edge = if le.1 == "+Inf" {
                f64::INFINITY
            } else {
                le.1.parse().ok()?
            };
            Some((edge, s.value))
        })
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = edges.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    edges
        .iter()
        .find(|&&(_, cumulative)| cumulative >= rank)
        .map(|&(edge, _)| edge)
}

/// Rate-style figures derived from two consecutive scrapes `dt` seconds
/// apart (deltas) plus the current scrape (ratios over all time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rates {
    /// Requests per second over the last interval.
    pub qps: f64,
    /// 503 sheds per second over the last interval.
    pub shed_per_sec: f64,
    /// Lifetime cache-hit ratio `hits / (hits + misses)`.
    pub hit_ratio: f64,
    /// Lifetime coalesce ratio `coalesced / requests`.
    pub coalesce_ratio: f64,
}

/// Derives [`Rates`] from the previous and current scrapes.
pub fn rates(prev: &[Sample], cur: &[Sample], dt_seconds: f64) -> Rates {
    let dt = dt_seconds.max(1e-9);
    let delta =
        |name: &str| (value(cur, name).unwrap_or(0.0) - value(prev, name).unwrap_or(0.0)).max(0.0);
    let hits = value(cur, "xedd_cache_hits").unwrap_or(0.0);
    let misses = value(cur, "xedd_cache_misses").unwrap_or(0.0);
    let requests = value(cur, "xedd_requests").unwrap_or(0.0);
    let coalesced = value(cur, "xedd_coalesced").unwrap_or(0.0);
    Rates {
        qps: delta("xedd_requests") / dt,
        shed_per_sec: delta("xedd_shed") / dt,
        hit_ratio: if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        coalesce_ratio: if requests > 0.0 {
            coalesced / requests
        } else {
            0.0
        },
    }
}

/// Counts the spans per phase in a `xed-trace-spans-v1` flight dump —
/// the "what just happened" row of the dashboard.
pub fn span_counts(flight_json: &str) -> Vec<(&'static str, usize)> {
    Phase::ALL
        .iter()
        .map(|p| {
            let needle = format!("\"name\":\"{}\"", p.label());
            (p.label(), flight_json.matches(&needle).count())
        })
        .collect()
}

/// Formats nanoseconds as a right-aligned microsecond figure, or `-`
/// when the histogram had no samples.
fn us(ns: Option<f64>) -> String {
    match ns {
        Some(v) if v.is_finite() => format!("{:>9.0}", v / 1_000.0),
        Some(_) => format!("{:>9}", ">max"),
        None => format!("{:>9}", "-"),
    }
}

/// Renders the dashboard from one scrape, its derived [`Rates`], and the
/// latest flight dump. Pure string assembly — unit-tested, and the
/// binary reprints it on every poll.
pub fn render(cur: &[Sample], r: &Rates, flight_json: &str) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("xedtop — xedd live ops view\n\n");
    out.push_str(&format!(
        "  qps {:>10.1}    shed/s {:>8.1}    cache hit {:>5.1} %    coalesced {:>5.1} %\n",
        r.qps,
        r.shed_per_sec,
        r.hit_ratio * 100.0,
        r.coalesce_ratio * 100.0,
    ));
    out.push_str(&format!(
        "  requests {:>9}    evaluations {:>7}    early stops {:>5}    flight dumps {:>3}\n\n",
        value(cur, "xedd_requests").unwrap_or(0.0) as u64,
        value(cur, "xedd_evaluations").unwrap_or(0.0) as u64,
        value(cur, "xedd_early_stops").unwrap_or(0.0) as u64,
        value(cur, "xedd_flight_dumps").unwrap_or(0.0) as u64,
    ));
    out.push_str("  phase            p50 us    p99 us\n");
    for (label, base) in [
        ("admission", "xedd_phase_admission_ns"),
        ("cache", "xedd_phase_cache_ns"),
        ("coalesce", "xedd_phase_coalesce_ns"),
        ("evaluate", "xedd_phase_evaluate_ns"),
        ("stream", "xedd_phase_stream_ns"),
    ] {
        out.push_str(&format!(
            "    {label:<12} {} {}\n",
            us(quantile(cur, base, 0.50)),
            us(quantile(cur, base, 0.99)),
        ));
    }
    out.push_str("\n  flight recorder spans:");
    for (label, count) in span_counts(flight_json) {
        if count > 0 {
            out.push_str(&format!("  {label} {count}"));
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "\
# HELP xedd_requests HTTP reliability queries accepted by the daemon
# TYPE xedd_requests counter
xedd_requests 40
xedd_cache_hits 30
xedd_cache_misses 10
xedd_coalesced 4
xedd_shed 2
xedd_evaluations 6
# TYPE xedd_phase_evaluate_ns histogram
xedd_phase_evaluate_ns_bucket{le=\"1023\"} 1
xedd_phase_evaluate_ns_bucket{le=\"2047\"} 3
xedd_phase_evaluate_ns_bucket{le=\"+Inf\"} 4
xedd_phase_evaluate_ns_sum 6000
xedd_phase_evaluate_ns_count 4
";

    #[test]
    fn parses_samples_and_labels() {
        let samples = parse_prometheus(SCRAPE);
        assert_eq!(value(&samples, "xedd_requests"), Some(40.0));
        assert_eq!(value(&samples, "xedd_phase_evaluate_ns_count"), Some(4.0));
        let bucket = samples
            .iter()
            .find(|s| s.name == "xedd_phase_evaluate_ns_bucket")
            .expect("bucket sample");
        assert_eq!(bucket.labels, [("le".to_string(), "1023".to_string())]);
        assert_eq!(value(&samples, "xedd_missing"), None);
    }

    #[test]
    fn malformed_lines_are_dropped_not_fatal() {
        let samples = parse_prometheus("garbage\nxedd_ok 1\nxedd_bad notanumber\nx{le=\"1\"\n");
        assert_eq!(samples.len(), 1);
        assert_eq!(value(&samples, "xedd_ok"), Some(1.0));
    }

    #[test]
    fn quantiles_read_cumulative_buckets() {
        let samples = parse_prometheus(SCRAPE);
        // n = 4: p50 rank 2 → first edge covering 2 is le=2047; p99
        // rank 4 → the +Inf bucket.
        assert_eq!(
            quantile(&samples, "xedd_phase_evaluate_ns", 0.50),
            Some(2047.0)
        );
        assert_eq!(
            quantile(&samples, "xedd_phase_evaluate_ns", 0.99),
            Some(f64::INFINITY)
        );
        assert_eq!(quantile(&samples, "xedd_phase_cache_ns", 0.5), None);
    }

    #[test]
    fn rates_use_deltas_for_qps_and_totals_for_ratios() {
        let prev = parse_prometheus("xedd_requests 20\nxedd_shed 2\n");
        let cur = parse_prometheus(SCRAPE);
        let r = rates(&prev, &cur, 2.0);
        assert!((r.qps - 10.0).abs() < 1e-9, "qps {}", r.qps);
        assert!((r.shed_per_sec - 0.0).abs() < 1e-9);
        assert!((r.hit_ratio - 0.75).abs() < 1e-9);
        assert!((r.coalesce_ratio - 0.1).abs() < 1e-9);
    }

    #[test]
    fn span_counts_tally_flight_dump_phases() {
        let json = "{\"traceEvents\":[{\"name\":\"request\"},{\"name\":\"admission\"},{\"name\":\"scheduler_chunk\"},{\"name\":\"scheduler_chunk\"}]}";
        let counts = span_counts(json);
        let get = |label: &str| {
            counts
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0, |&(_, c)| c)
        };
        assert_eq!(get("request"), 1);
        assert_eq!(get("scheduler_chunk"), 2);
        assert_eq!(get("cache_lookup"), 0);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let cur = parse_prometheus(SCRAPE);
        let r = rates(&cur, &cur, 1.0);
        let dash = render(&cur, &r, "{\"traceEvents\":[{\"name\":\"evaluate\"}]}");
        assert!(dash.contains("qps"), "{dash}");
        assert!(dash.contains("cache hit  75.0 %"), "{dash}");
        assert!(dash.contains("evaluate"), "{dash}");
        assert!(
            dash.contains("flight recorder spans:  evaluate 1"),
            "{dash}"
        );
        // Rendering twice from the same inputs is byte-identical.
        assert_eq!(
            dash,
            render(&cur, &r, "{\"traceEvents\":[{\"name\":\"evaluate\"}]}")
        );
    }
}
