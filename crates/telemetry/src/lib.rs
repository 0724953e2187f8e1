//! `xed-telemetry`: the workspace-wide observability substrate
//! (DESIGN.md §11).
//!
//! Every runtime crate of the reproduction — the Monte-Carlo engine, the
//! cycle-level memory simulator, and the functional XED controllers —
//! reports what it did through this crate, so one `snapshot()` answers
//! "what did this run actually do": fault mix, decode outcomes, catch-word
//! collisions, queue occupancy, work-steal balance.
//!
//! # Design rules
//!
//! * **Zero dependencies, offline-friendly.** Pure `std`; the exporters
//!   hand-render JSON exactly like the rest of the workspace.
//! * **Allocation-free hot paths.** [`Counter`], [`Histogram`] and the
//!   [`trace`] flight rings never touch the heap after construction
//!   (xed-analyze XL009 is enforced over these modules). Allocation is
//!   confined to the snapshot/export layer, which runs once per report.
//! * **One named field per count, publish-at-merge.** Code on a
//!   nanosecond budget (the Monte-Carlo trial loop, the batched line
//!   decode) counts into plain `u64` fields of its own stats struct —
//!   zero atomics — and publishes the totals into the static [`registry`]
//!   counters once, at its natural merge point (end of `run_many`, end of
//!   a simulation). The functional controllers in `xed-core` count each
//!   event once, in their public stats struct, and publish it when they
//!   drop.
//!   Only genuinely cheap-per-event instrumentation (a histogram record
//!   per 4096-trial chunk, a queue-depth sample per enqueue in the
//!   memory simulator, whose simulated cycle costs 0.5–0.8 µs of host
//!   time) records live.
//! * **Stable dotted metric IDs.** Every metric is a static registered
//!   exactly once in [`registry::CATALOGUE`] under an ID like
//!   `faultsim.trials` or `core.xed.catchword_collisions`; xed-analyze XL010
//!   cross-checks code usage, the catalogue, and the DESIGN.md §11 table.
//! * **Determinism untouched.** Telemetry is reporting-only metadata:
//!   nothing here feeds back into simulation state, and the global
//!   [`enabled`] switch lets benchmarks prove the overhead is noise.
//!
//! # Quick tour
//!
//! ```
//! use xed_telemetry::registry;
//!
//! // Hot loop: a plain owned count, no atomics.
//! let mut lines_decoded = 0u64;
//! for _line in 0..4 {
//!     lines_decoded += 1;
//! }
//!
//! // Merge point: publish once into the static registry.
//! xed_telemetry::count(&registry::metrics::ECC_LINES_DECODED, lines_decoded);
//!
//! // Report: snapshot everything that happened in this process.
//! let snap = registry::snapshot();
//! assert!(snap.get("ecc.lines_decoded").is_some());
//! println!("{}", snap.active_to_json_array());
//! ```

pub mod counter;
pub mod export;
pub mod hist;
pub mod registry;
pub mod trace;

pub use counter::Counter;
pub use export::{HistogramSample, MetricSample, SampleValue, Snapshot};
pub use hist::Histogram;
pub use registry::{snapshot, MetricDef, MetricSource};
pub use trace::{SpanCtx, SpanEvent, TraceBuf};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global instrumentation switch (default: on). Cleared by the
/// telemetry overhead check so it can compare instrumented and
/// uninstrumented runs of the same build.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is enabled. A single relaxed load — callers on
/// hot paths gate their recording on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns instrumentation on or off process-wide. Release pairs with
/// the hot path's Relaxed `enabled()` loads (XA102 boundary).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Adds `n` to `c` when telemetry is enabled.
#[inline]
pub fn count(c: &Counter, n: u64) {
    if enabled() {
        c.add(n);
    }
}

/// Records `v` into `h` when telemetry is enabled.
#[inline]
pub fn observe(h: &Histogram, v: u64) {
    if enabled() {
        h.record(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_defaults_on_and_toggles() {
        // Other tests never touch the switch, so default-on is observable.
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
