//! Differential & metamorphic verification subsystem for the XED stack.
//!
//! The Monte-Carlo engine has been rewritten three times (PRs 2–4) with
//! only spot-check tests guarding its semantics. This crate is the
//! standing verification layer that proves the simulator against
//! *independent* oracles, so future perf PRs can refactor the hot path
//! without fear (see DESIGN.md §12):
//!
//! * [`oracle`] — the **exhaustive small-geometry oracle**: shrink the
//!   DRAM geometry to 2 banks × 3 rows × 4 columns, enumerate *every*
//!   fault placement (and every ordered 2-fault combination), and assert
//!   the Monte-Carlo classifier matches a brute-force line-scan plus a
//!   data-path realization through the real `xed-ecc` decoders and
//!   `xed-core` functional controllers;
//! * [`analytic_gate`] — the **analytic oracle**: closed-form Poisson
//!   single/double/triple-fault probabilities vs Monte-Carlo estimates,
//!   gated at the 99 % binomial confidence bound;
//! * [`infer_gate`] — the **code-inference differential harness**:
//!   BEER-style inference against every registered `xed_ecc` matrix
//!   (bit-exact recovery or certified ambiguity) and the HARP-style
//!   miscorrection profiler against brute-force enumeration;
//! * [`metamorphic`] — the **metamorphic suite**: scheme-ordering
//!   invariances and dominance laws the paper implies, run from seeded
//!   RNG streams;
//! * [`trace`] — golden conformance traces in the stable `xed-trace-v1`
//!   JSON format, with a regeneration path;
//! * [`spans`] — golden conformance for the `xed-trace-spans-v1` span
//!   export (`xedd`'s `/debug/flight` wire format), pinned byte-for-byte
//!   from a synthetic fixture covering every request phase;
//! * [`forced`] — the corner RNG that makes every Monte-Carlo Bernoulli
//!   draw deterministic, turning `SchemeModel::evaluate` into a pure
//!   function the oracle can enumerate;
//! * [`datapath`] — realization of each model outcome class through the
//!   functional hardware models (`SecdedDimm`, `XedController`,
//!   `XedChipkillSystem`, `Chipkill`/`DoubleChipkill` decoders);
//! * [`seeds`] — the workspace's named seed constants (`xed-analyze`
//!   rule XL013 asserts every seeded sweep uses them).
//!
//! The `cargo xtask verify-matrix` driver runs all of the above; its
//! `--quick` form is a tier-1 CI gate.

pub mod analytic_gate;
pub mod datapath;
pub mod forced;
pub mod infer_gate;
pub mod metamorphic;
pub mod oracle;
pub mod seeds;
pub mod spans;
pub mod trace;

pub use forced::{Assumption, Corner, ForcedRng};
pub use oracle::{OracleReport, OracleScope};
