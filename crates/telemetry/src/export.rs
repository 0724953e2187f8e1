//! Snapshot and export layer: immutable captures of the registry plus
//! the two render targets every reporting binary shares — JSON lines for
//! machines and an aligned text table for humans.
//!
//! This is the one part of the crate allowed to allocate: it runs once
//! per report, never on a hot path. JSON is hand-rendered (the workspace
//! has no serialization dependency); the envelope matches the
//! `xed-report-v1` schema documented in DESIGN.md §11, which the
//! `results/fig*.json` sidecars share.

use crate::hist::{bucket_bounds, BUCKETS};
use crate::trace::SpanEvent;

/// An immutable capture of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Per-bucket observation counts (see [`crate::hist::bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Wrapping sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSample {
    /// Total observations (sum over buckets — internally consistent by
    /// construction, even if writers raced the capture).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    /// Mean recorded value (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// values: the inclusive high edge of the log2 bucket the rank lands
    /// in (0 for an empty histogram). Quantiles from log2 buckets are
    /// resolution-limited by construction — good to a factor of 2, which
    /// is what a latency dashboard needs.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum = cum.wrapping_add(b);
            if cum >= rank {
                return bucket_bounds(i).1;
            }
        }
        self.max
    }

    /// The non-empty buckets as `(lo, hi, count)` triples, in value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, n)
            })
    }
}

/// The captured value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A monotonic counter's total.
    Counter(u64),
    /// A histogram capture (boxed: the fixed bucket array dwarfs the
    /// counter variant, and snapshots are cold-path only).
    Histogram(Box<HistogramSample>),
}

/// One metric in a snapshot: identity plus captured value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Stable dotted ID.
    pub id: &'static str,
    /// One-line description.
    pub help: &'static str,
    /// The captured value.
    pub value: SampleValue,
}

/// An immutable capture of every registered metric, in catalogue order.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// One sample per catalogue entry.
    pub samples: Vec<MetricSample>,
}

impl Snapshot {
    /// The sample for `id`, if registered.
    pub fn get(&self, id: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.id == id)
    }

    /// The counter total for `id` (None for histograms / unknown IDs).
    pub fn counter(&self, id: &str) -> Option<u64> {
        match &self.get(id)?.value {
            SampleValue::Counter(v) => Some(*v),
            SampleValue::Histogram(_) => None,
        }
    }

    /// Samples with any recorded activity (non-zero counters, non-empty
    /// histograms).
    pub fn active(&self) -> impl Iterator<Item = &MetricSample> {
        self.samples.iter().filter(|s| match &s.value {
            SampleValue::Counter(v) => *v > 0,
            SampleValue::Histogram(h) => h.count() > 0,
        })
    }

    /// The change between `baseline` (captured earlier) and `self`
    /// (captured later): a snapshot containing only the metrics whose
    /// value moved, with counters replaced by their *delta*.
    ///
    /// Counters are monotonic, so the delta is a plain wrapping
    /// subtraction. A histogram that moved is carried over as-is from
    /// `self` (bucket-wise subtraction would fabricate a "histogram of
    /// the interval" that racing writers can skew); callers that need
    /// interval counts should diff `count()` themselves. Metrics absent
    /// from `baseline` (e.g. a newer catalogue) are treated as starting
    /// from zero. The verify-matrix driver uses this to pin the
    /// telemetry a replayed trial is expected to publish.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let samples = self
            .samples
            .iter()
            .filter_map(|s| {
                let value = match (&s.value, baseline.get(s.id).map(|b| &b.value)) {
                    (SampleValue::Counter(now), Some(SampleValue::Counter(then))) => {
                        let delta = now.wrapping_sub(*then);
                        (delta != 0).then_some(SampleValue::Counter(delta))
                    }
                    (SampleValue::Counter(now), _) => {
                        (*now != 0).then_some(SampleValue::Counter(*now))
                    }
                    (SampleValue::Histogram(h), Some(SampleValue::Histogram(b))) => {
                        (h != b).then(|| s.value.clone())
                    }
                    (SampleValue::Histogram(h), _) => (h.count() != 0).then(|| s.value.clone()),
                };
                value.map(|value| MetricSample {
                    id: s.id,
                    help: s.help,
                    value,
                })
            })
            .collect();
        Snapshot { samples }
    }

    /// Renders every metric as one JSON array (for embedding in a report
    /// envelope under a `"metrics"` key), one object per metric:
    ///
    /// ```text
    /// {"id":"faultsim.trials","kind":"counter","value":1000000}
    /// {"id":"faultsim.chunk_ns","kind":"histogram","count":245,...}
    /// ```
    pub fn to_json_array(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_sample_json(&mut out, s);
        }
        out.push(']');
        out
    }

    /// Renders only the *active* metrics as one JSON array — the compact
    /// form the `xed-report-v1` envelope embeds under its `"telemetry"`
    /// key (an all-zero catalogue row is noise in a run report).
    pub fn active_to_json_array(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.active().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_sample_json(&mut out, s);
        }
        out.push(']');
        out
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): dotted IDs become underscore names, counters one
    /// sample each, histograms as cumulative `_bucket{le="..."}` series
    /// (inclusive log2 bucket high edges, zero-delta buckets elided) plus
    /// the `+Inf` terminal, `_sum`, and `_count`. The output must satisfy
    /// [`prometheus_check`]; `xedd --selftest` gates on that.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        for s in &self.samples {
            let name = s.id.replace('.', "_");
            out.push_str(&format!("# HELP {name} {}\n", s.help));
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                SampleValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let count = h.count();
                    let mut cum = 0u64;
                    for (i, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum = cum.wrapping_add(n);
                        let (_, hi) = bucket_bounds(i);
                        out.push_str(&format!("{name}_bucket{{le=\"{hi}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
                    out.push_str(&format!("{name}_sum {}\n{name}_count {count}\n", h.sum));
                }
            }
        }
        out
    }
}

/// Appends one metric sample as a JSON object (no trailing newline).
fn render_sample_json(out: &mut String, s: &MetricSample) {
    match &s.value {
        SampleValue::Counter(v) => {
            out.push_str(&format!(
                "{{\"id\":{},\"kind\":\"counter\",\"value\":{v}}}",
                json_string(s.id)
            ));
        }
        SampleValue::Histogram(h) => {
            out.push_str(&format!(
                "{{\"id\":{},\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.6},\"buckets\":[",
                json_string(s.id),
                h.count(),
                h.sum,
                h.max,
                h.mean()
            ));
            for (i, (lo, hi, n)) in h.nonzero_buckets().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{lo},{hi},{n}]"));
            }
            out.push_str("]}");
        }
    }
}

/// Renders `s` as a JSON string literal (quotes included), escaping the
/// characters JSON requires. Shared by every hand-rendered JSON writer in
/// the workspace.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One sample line of a Prometheus text exposition, `name[{labels}]
/// value`, as [`parse_sample_line`] splits it.
#[derive(Debug)]
pub struct PromSample<'a> {
    /// Metric name.
    pub name: &'a str,
    /// Label pairs in line order, each value without its quotes.
    pub labels: Vec<(&'a str, &'a str)>,
    /// The value as written (`+Inf`, `-Inf` and `NaN` included).
    pub text: &'a str,
    /// The value as a number.
    pub value: f64,
}

fn valid_metric_name(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses one sample line (not a comment, not blank): the value after
/// the last space, a metric name of `[a-zA-Z_:][a-zA-Z0-9_:]*`, and an
/// optional `{k="v",...}` label set with names of the same charset.
///
/// # Errors
///
/// Returns the violated rule, naming the line.
pub fn parse_sample_line(line: &str) -> Result<PromSample<'_>, String> {
    let (series, text) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample line has no value: {line}"))?;
    let value = text
        .parse::<f64>()
        .map_err(|_| format!("unparseable sample value `{text}`: {line}"))?;
    let (name, label_set) = match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label set: {line}"))?;
            (name, Some(labels))
        }
        None => (series, None),
    };
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name `{name}`: {line}"));
    }
    let mut labels = Vec::new();
    for pair in label_set.into_iter().flat_map(|set| set.split(',')) {
        let label = pair.split_once('=').and_then(|(k, v)| {
            let v = v.strip_prefix('"')?.strip_suffix('"')?;
            valid_metric_name(k).then_some((k, v))
        });
        labels.push(label.ok_or_else(|| format!("malformed label `{pair}`: {line}"))?);
    }
    Ok(PromSample {
        name,
        labels,
        text,
        value,
    })
}

/// Validates Prometheus text-exposition output: line grammar (each
/// sample line through [`parse_sample_line`]), metric name charset, and
/// histogram series invariants (monotone cumulative buckets ending in
/// `+Inf`, with `_count` equal to the `+Inf` sample). This is the
/// independent format self-check `xedd --selftest` runs over the
/// daemon's own `/metrics?format=prometheus` response.
///
/// # Errors
///
/// Returns the first violated rule, naming the offending line.
pub fn prometheus_check(text: &str) -> Result<(), String> {
    // (histogram base name) -> (last cumulative, saw +Inf, inf value)
    let mut histograms: Vec<(String, Option<u64>, Option<u64>)> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) || parts.next().is_none() {
                        return Err(format!("malformed HELP line: {line}"));
                    }
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or_default();
                    if !valid_metric_name(name) {
                        return Err(format!("malformed TYPE line: {line}"));
                    }
                    match kind {
                        "histogram" => histograms.push((name.to_string(), None, None)),
                        "counter" | "gauge" => {}
                        other => return Err(format!("unknown TYPE `{other}`: {line}")),
                    }
                }
                _ => return Err(format!("unknown comment keyword: {line}")),
            }
            continue;
        }
        let sample = parse_sample_line(line)?;
        // Histogram series bookkeeping.
        if let Some(base) = sample.name.strip_suffix("_bucket") {
            let Some(h) = histograms.iter_mut().find(|(n, _, _)| n == base) else {
                return Err(format!(
                    "`{}` has no TYPE histogram declaration: {line}",
                    sample.name
                ));
            };
            let (_, le) = sample
                .labels
                .iter()
                .find(|(k, _)| *k == "le")
                .ok_or_else(|| format!("bucket without an le label: {line}"))?;
            let cum: u64 = sample
                .text
                .parse()
                .map_err(|_| format!("non-integer bucket count: {line}"))?;
            if let Some(prev) = h.1 {
                if cum < prev {
                    return Err(format!("bucket series not cumulative: {line}"));
                }
            }
            if h.2.is_some() {
                return Err(format!("bucket after the +Inf terminal: {line}"));
            }
            h.1 = Some(cum);
            if *le == "+Inf" {
                h.2 = Some(cum);
            }
        } else if let Some(base) = sample.name.strip_suffix("_count") {
            if histograms.iter().any(|(n, _, _)| n == base) {
                let c: u64 = sample
                    .text
                    .parse()
                    .map_err(|_| format!("non-integer _count: {line}"))?;
                counts.push((base.to_string(), c));
            }
        }
    }
    for (name, _, inf) in &histograms {
        let Some(inf) = inf else {
            return Err(format!("histogram `{name}` has no +Inf bucket"));
        };
        let Some((_, count)) = counts.iter().find(|(n, _)| n == name) else {
            return Err(format!("histogram `{name}` has no _count sample"));
        };
        if count != inf {
            return Err(format!(
                "histogram `{name}`: _count {count} != +Inf bucket {inf}"
            ));
        }
    }
    Ok(())
}

/// The trace-span export format identifier; bump on any rendering change.
pub const SPANS_FORMAT: &str = "xed-trace-spans-v1";

/// Drains a copy of the flight-recorder rings into `(slot, event)` pairs,
/// oldest first per slot, optionally keeping only one trace id.
pub fn collect_spans(trace_filter: Option<u64>) -> Vec<(usize, SpanEvent)> {
    let mut out = Vec::new();
    crate::trace::with_slots(|slot, buf| {
        for e in buf.iter() {
            if trace_filter.is_none_or(|t| t == e.trace_id) {
                out.push((slot, *e));
            }
        }
    });
    out
}

/// Appends a nanosecond tick as a microsecond JSON number with three
/// decimals (the Chrome trace format's `ts`/`dur` unit is microseconds).
fn push_us(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Renders `(slot, event)` pairs as a `xed-trace-spans-v1` document: a
/// Chrome-tracing/Perfetto JSON object of complete (`"ph":"X"`) events,
/// one per span, with the flight slot as `tid` and the trace id carried
/// in `args` as fixed-width hex. Deterministic for fixed input — the
/// testkit pins a golden rendering byte-for-byte.
pub fn spans_to_chrome_json(events: &[(usize, SpanEvent)]) -> String {
    let mut out = String::with_capacity(128 + events.len() * 192);
    out.push_str("{\"schema\":\"");
    out.push_str(SPANS_FORMAT);
    out.push_str("\",\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, (slot, e)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"xedd\",\"ph\":\"X\",\"ts\":",
            e.phase.label()
        ));
        push_us(&mut out, e.t_start);
        out.push_str(",\"dur\":");
        push_us(&mut out, e.t_end.saturating_sub(e.t_start));
        out.push_str(&format!(
            ",\"pid\":1,\"tid\":{slot},\"args\":{{\"trace\":\"{:016x}\",\"span\":{},\"parent\":{},\"a\":{}}}}}",
            e.trace_id, e.span_id, e.parent, e.a
        ));
    }
    if !events.is_empty() {
        out.push('\n');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::registry::{self, metrics};

    fn sample_of(h: &Histogram) -> HistogramSample {
        h.sample()
    }

    #[test]
    fn histogram_sample_consistency() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 1000] {
            h.record(v);
        }
        let s = sample_of(&h);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        let nz: Vec<_> = s.nonzero_buckets().collect();
        assert_eq!(nz, vec![(0, 0, 1), (1, 1, 1), (4, 7, 1), (512, 1023, 1)]);
    }

    #[test]
    fn diff_keeps_only_moved_metrics_as_deltas() {
        let hist_then = HistogramSample {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        };
        let mut hist_now = hist_then.clone();
        hist_now.buckets[0] = 2;
        hist_now.sum = 0;
        let mk = |c_val: u64, h: &HistogramSample| Snapshot {
            samples: vec![
                MetricSample {
                    id: "t.counter",
                    help: "",
                    value: SampleValue::Counter(c_val),
                },
                MetricSample {
                    id: "t.steady",
                    help: "",
                    value: SampleValue::Counter(7),
                },
                MetricSample {
                    id: "t.hist",
                    help: "",
                    value: SampleValue::Histogram(Box::new(h.clone())),
                },
            ],
        };
        let then = mk(10, &hist_then);
        let now = mk(14, &hist_now);
        let d = now.diff(&then);
        // The unchanged counter and nothing else drops out; the moved
        // counter becomes its delta; the moved histogram is carried over.
        assert_eq!(d.counter("t.counter"), Some(4));
        assert!(d.get("t.steady").is_none());
        assert!(
            matches!(&d.get("t.hist").unwrap().value, SampleValue::Histogram(h) if h.count() == 2)
        );
        // Diffing a snapshot against itself is empty.
        assert!(now.diff(&now).samples.is_empty());
        // A metric missing from the baseline counts from zero.
        let empty = Snapshot { samples: vec![] };
        assert_eq!(now.diff(&empty).counter("t.counter"), Some(14));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn snapshot_render_roundtrip_shapes() {
        // Use metrics no other test writes concurrently.
        metrics::ECC_RS_ERASURES.reset();
        metrics::MEMSIM_SCHED_READ_LATENCY.reset();
        metrics::ECC_RS_ERASURES.add(3);
        metrics::MEMSIM_SCHED_READ_LATENCY.record(100);
        metrics::MEMSIM_SCHED_READ_LATENCY.record(200);

        let snap = registry::snapshot();
        assert_eq!(snap.counter("ecc.rs.erasures"), Some(3));
        let SampleValue::Histogram(h) = &snap.get("memsim.sched.read_latency").unwrap().value
        else {
            panic!("a histogram metric samples as a histogram");
        };
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 300);

        let arr = snap.to_json_array();
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert!(arr.contains("{\"id\":\"ecc.rs.erasures\",\"kind\":\"counter\",\"value\":3}"));
        assert!(arr.contains("\"id\":\"memsim.sched.read_latency\",\"kind\":\"histogram\""));
        // One object per catalogue entry.
        assert_eq!(arr.matches("{\"id\":").count(), snap.samples.len());

        metrics::ECC_RS_ERASURES.reset();
        metrics::MEMSIM_SCHED_READ_LATENCY.reset();
    }

    #[test]
    fn quantile_returns_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.sample().quantile(0.5), 0, "empty histogram");
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let s = h.sample();
        // Ranks 1-2 land in [8,15], 3-4 in [16,31]/[32,63], 5 in [512,1023].
        assert_eq!(s.quantile(0.0), 15);
        assert_eq!(s.quantile(0.2), 15);
        assert_eq!(s.quantile(0.5), 31);
        assert_eq!(s.quantile(0.99), 1023);
        assert_eq!(s.quantile(1.0), 1023);
    }

    #[test]
    fn prometheus_text_renders_and_self_checks() {
        metrics::ECC_DUE_WORDS.reset();
        metrics::MEMSIM_SCHED_QUEUE_DEPTH.reset();
        metrics::ECC_DUE_WORDS.add(5);
        for v in [1u64, 3, 900] {
            metrics::MEMSIM_SCHED_QUEUE_DEPTH.record(v);
        }
        let text = registry::snapshot().to_prometheus_text();
        prometheus_check(&text).expect("own exposition must self-check clean");
        assert!(text.contains("# TYPE ecc_due_words counter\necc_due_words 5\n"));
        assert!(text.contains("# TYPE memsim_sched_queue_depth histogram\n"));
        assert!(text.contains("memsim_sched_queue_depth_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("memsim_sched_queue_depth_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("memsim_sched_queue_depth_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("memsim_sched_queue_depth_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("memsim_sched_queue_depth_sum 904\n"));
        assert!(text.contains("memsim_sched_queue_depth_count 3\n"));
        metrics::ECC_DUE_WORDS.reset();
        metrics::MEMSIM_SCHED_QUEUE_DEPTH.reset();
    }

    #[test]
    fn sample_lines_split_into_name_labels_and_value() {
        let s = parse_sample_line("m_bucket{le=\"+Inf\",shard=\"2\"} 7").expect("valid");
        assert_eq!(s.name, "m_bucket");
        assert_eq!(s.labels, [("le", "+Inf"), ("shard", "2")]);
        assert_eq!((s.text, s.value), ("7", 7.0));
        let s = parse_sample_line("m -Inf").expect("valid");
        assert!(s.labels.is_empty());
        assert_eq!(s.value, f64::NEG_INFINITY);
        for bad in ["m", "m{le=1} 1", "m{le=\"1\",} 1", "1m 1", "m x"] {
            assert!(parse_sample_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn prometheus_check_rejects_malformed_expositions() {
        for (text, why) in [
            ("metric_without_value\n", "no value"),
            ("9bad_name 1\n", "bad name"),
            ("m{le=\"1\" 1\n", "unterminated labels"),
            ("m{le1} 1\n", "malformed label"),
            ("m nope\n", "unparseable value"),
            ("# TYPE m summary\n", "unknown type"),
            (
                "# TYPE m histogram\nm_bucket{le=\"+Inf\"} 1\nm_sum 1\n",
                "no _count",
            ),
            (
                "# TYPE m histogram\nm_bucket{le=\"1\"} 1\nm_sum 1\nm_count 1\n",
                "no +Inf",
            ),
            (
                "# TYPE m histogram\nm_bucket{le=\"1\"} 2\nm_bucket{le=\"2\"} 1\n",
                "not cumulative",
            ),
            (
                "# TYPE m histogram\nm_bucket{le=\"+Inf\"} 2\nm_sum 1\nm_count 1\n",
                "_count != +Inf",
            ),
            ("m_bucket{le=\"1\"} 1\n", "bucket without TYPE"),
        ] {
            assert!(prometheus_check(text).is_err(), "must reject: {why}");
        }
        assert!(prometheus_check("").is_ok(), "empty exposition is valid");
    }

    #[test]
    fn spans_export_is_deterministic_chrome_json() {
        use crate::trace::{Phase, SpanEvent};
        let events = [
            (
                0usize,
                SpanEvent {
                    trace_id: 0xDEAD_BEEF,
                    span_id: 1,
                    parent: 0,
                    phase: Phase::Request,
                    a: 0,
                    t_start: 1_500,
                    t_end: 2_000_250,
                },
            ),
            (
                3usize,
                SpanEvent {
                    trace_id: 0xDEAD_BEEF,
                    span_id: 2,
                    parent: 1,
                    phase: Phase::SchedulerChunk,
                    a: 4096,
                    t_start: 10_000,
                    t_end: 20_000,
                },
            ),
        ];
        let doc = spans_to_chrome_json(&events);
        assert_eq!(doc, spans_to_chrome_json(&events), "must be deterministic");
        assert!(doc.starts_with(
            "{\"schema\":\"xed-trace-spans-v1\",\"displayTimeUnit\":\"ns\",\"traceEvents\":["
        ));
        assert!(doc.contains(
            "{\"name\":\"request\",\"cat\":\"xedd\",\"ph\":\"X\",\"ts\":1.500,\"dur\":1998.750,\
             \"pid\":1,\"tid\":0,\"args\":{\"trace\":\"00000000deadbeef\",\"span\":1,\"parent\":0,\"a\":0}}"
        ));
        assert!(doc.contains("\"name\":\"scheduler_chunk\""));
        assert!(doc.contains("\"a\":4096"));
        assert!(doc.ends_with("\n]}"));
        assert_eq!(
            spans_to_chrome_json(&[]),
            "{\"schema\":\"xed-trace-spans-v1\",\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn snapshot_while_writing_is_consistent_and_monotone() {
        // The satellite test: snapshots taken while writers are mid-flight
        // must observe valid, monotonically non-decreasing state — never a
        // torn or decreasing total.
        let h = Histogram::new();
        let c = crate::Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (h, c) = (&h, &c);
                scope.spawn(move || {
                    for i in 0..50_000u64 {
                        h.record(i % 1024);
                        c.add(2);
                    }
                });
            }
            let (h, c) = (&h, &c);
            scope.spawn(move || {
                let mut last_count = 0u64;
                let mut last_total = 0u64;
                for _ in 0..200 {
                    let s = h.sample();
                    let count = s.count();
                    assert!(count >= last_count, "histogram count went backwards");
                    assert!(count <= 200_000);
                    // Max only grows and stays in the recorded domain.
                    assert!(s.max < 1024);
                    let total = c.value();
                    assert!(total >= last_total, "counter went backwards");
                    assert!(total <= 400_000 && total % 2 == 0);
                    last_count = count;
                    last_total = total;
                }
            });
        });
        assert_eq!(h.sample().count(), 200_000);
        assert_eq!(c.value(), 400_000);
    }
}
