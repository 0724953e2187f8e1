//! Fixture metric registry for the XL010 and XA103 catalogue rules.

use crate::{Counter, Histogram};

/// Written by the fault-simulation fixture as `metrics::TRIALS`.
pub static TRIALS: Counter = Counter::new();

/// Recorded by the fault-simulation fixture as `metrics::LATENCY`.
pub static LATENCY: Histogram = Histogram::new();

/// Seeded XA103: registered but referenced nowhere outside this file.
pub static DEAD_GAUGE: Counter = Counter::new();

/// Seeded XL010: `fixture.dead_gauge` is missing from the fixture's
/// DESIGN.md.
pub static CATALOGUE: &[MetricDef] = &[
    c("fixture.trials", "Trials simulated", &metrics::TRIALS),
    h("fixture.latency", "Trial latency", &metrics::LATENCY),
    c("fixture.dead_gauge", "Never written", &metrics::DEAD_GAUGE),
];
