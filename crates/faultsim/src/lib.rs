//! A FaultSim-style Monte-Carlo DRAM fault and repair simulator.
//!
//! The paper evaluates reliability with FaultSim (Nair et al., ACM TACO
//! 2015), an event-driven Monte-Carlo simulator: faults arrive in DRAM
//! devices as a Poisson process with the field-measured FIT rates of
//! Sridharan & Liberty (Table I of the XED paper), each fault occupies an
//! address *range* of its device (a bit, word, column, row, bank or the
//! whole chip), and an ECC scheme is queried after every arrival to decide
//! whether the system survived. The figure of merit is the probability that
//! a system fails at any point in a 7-year lifetime.
//!
//! This crate re-implements that methodology:
//!
//! * [`geometry`] — the internal organization of a DRAM device;
//! * [`fault`] — fault extents, persistence and range intersection;
//! * [`fit`] — the Table I failure rates and rate arithmetic;
//! * [`event`] — Poisson sampling of fault arrivals over a lifetime;
//! * [`system`] — channel/rank/chip organization of the evaluated systems;
//! * [`scaling`] — birthtime ("scaling") fault modeling;
//! * [`schemes`] — the protection schemes the paper compares;
//! * [`montecarlo`] — the work-stealing, thread-count-invariant
//!   simulation driver (per-trial counter-based RNG streams, bit-sliced
//!   64-lane trial classification) and its result types;
//! * [`rareevent`] — the importance-sampled rare-event engine for
//!   Table-IV-class tail probabilities;
//! * [`engine`] — the query facade every consumer (figure binaries,
//!   benches, the `xedd` daemon) evaluates through, and the only public
//!   way to run a lifetime simulation: canonical config keys, streaming
//!   partial-confidence evaluation, batch sweeps, trial replay;
//! * [`analytic`] — closed-form cross-checks for the Monte-Carlo results.
//!
//! # Example: probability of system failure under XED
//!
//! ```
//! use xed_faultsim::engine::Sweep;
//! use xed_faultsim::schemes::Scheme;
//!
//! let result = Sweep::new(20_000, 1).run_one(Scheme::Xed).result;
//! // XED keeps the 7-year failure probability around 5e-4 (paper Fig. 7),
//! // so a 20k-sample smoke run sees at most a handful of failures.
//! assert!(result.failure_probability(7.0) < 0.01);
//! ```

pub mod analytic;
pub mod engine;
pub mod event;
pub mod fault;
pub mod fit;
pub mod geometry;
pub mod montecarlo;
pub mod rareevent;
pub mod scaling;
pub mod schemes;
pub mod system;

pub use engine::{
    code_model_family, code_model_ladder, evaluate, evaluate_streaming, CanonicalKey,
    CodeModelPoint, Estimate, Progress, Query, Sweep,
};
pub use fault::{FaultExtent, FaultRange, Persistence};
pub use fit::FitRates;
pub use geometry::DramGeometry;
pub use montecarlo::{RunReport, RunStats, SchemeResult};
pub use rareevent::{TailConfig, TailEstimate, TailMode, TailSimulator};
pub use schemes::{CodeModel, Scheme};
pub use system::SystemConfig;
