//! Cheap wall-clock span timers feeding log2 histograms.
//!
//! A [`Span`] captures `Instant::now()` on start and records the elapsed
//! nanoseconds into a [`Histogram`] when finished (explicitly via
//! [`Span::finish`] or implicitly on drop). Cost is two clock reads and
//! one histogram record per span — suitable for work items in the
//! microsecond range and up (the Monte-Carlo engine spans *chunks* of
//! 4096 trials, never individual 12 ns trials).
//!
//! Wall time is reporting-only metadata everywhere in this workspace:
//! nothing a span measures feeds back into simulation state, which is why
//! the XL005 waivers below are sound.

use crate::hist::Histogram;
use std::time::Instant;

/// An in-flight timed span; records into its histogram when finished.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
    done: bool,
}

impl<'a> Span<'a> {
    /// Starts timing against `hist`.
    ///
    /// Bind the result to a *named* variable: `let _ = Span::start(..)`
    /// drops the span immediately, recording a zero-width measurement
    /// (the Rust `_` pattern never binds, so Drop runs on the spot).
    /// Use `let _span = ...` to time a scope.
    #[inline]
    #[must_use = "dropping a Span records it; `let _ = ...` records a zero-width span"]
    pub fn start(hist: &'a Histogram) -> Self {
        Self {
            hist,
            // Reporting-only wall clock; see module docs.
            start: Instant::now(), // xed-analyze: allow(XL005) — reporting only
            done: false,
        }
    }

    /// Stops the span and records the elapsed nanoseconds, returning them.
    pub fn finish(mut self) -> u64 {
        self.done = true;
        let ns = self.elapsed_ns();
        self.hist.record(ns);
        ns
    }

    /// Nanoseconds since the span started (saturating at `u64::MAX`).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.hist.record(self.elapsed_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_once() {
        let h = Histogram::new();
        let span = Span::start(&h);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = span.finish();
        assert!(ns >= 1_000_000, "{ns}");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), ns);
    }

    #[test]
    fn drop_records_too() {
        let h = Histogram::new();
        {
            let _span = Span::start(&h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn underscore_binding_records_a_zero_width_span() {
        // The footgun #[must_use] + XL012's named-binding note guard
        // against: `_` never binds, so the span drops (and records)
        // immediately instead of timing the scope below it.
        let h = Histogram::new();
        #[allow(clippy::let_underscore_must_use)]
        let _ = Span::start(&h);
        assert_eq!(
            h.count(),
            1,
            "`let _ = Span::start(..)` must have recorded at the binding"
        );
        assert!(
            h.max() < 1_000_000,
            "the span must be zero-width (recorded instantly), saw {} ns",
            h.max()
        );
    }
}
