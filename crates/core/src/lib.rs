//! The XED mechanism — the paper's contribution.
//!
//! This crate is a *functional* model of a XED memory system: DRAM chips
//! that really store data and on-die ECC bits, really corrupt them when
//! faults are injected, and really transmit catch-words; and a memory
//! controller that really reconstructs data with RAID-3 parity, detects
//! catch-word collisions, runs Inter-Line and Intra-Line fault diagnosis
//! and tracks faulty rows in an FCT. Every mechanism of paper Sections
//! IV–VII is implemented and observable.
//!
//! * [`catch_word`] — catch-word values, registers and collision math;
//! * [`chip`] — a DRAM chip with on-die ECC and the DC-Mux;
//! * `cells` (crate-private) — the paged codeword store, injected faults
//!   and heal state both chip widths share;
//! * [`fault`] — fault injection (bit/word/column/row/bank/chip);
//! * [`dimm`] — a 9-chip ECC-DIMM in XED mode;
//! * [`controller`] — the XED memory-controller read/write algorithm;
//! * [`diagnosis`] — Inter-Line and Intra-Line fault diagnosis;
//! * [`fct`] — the Faulty-row Chip Tracker;
//! * [`analysis`] — closed-form collision/overhead analysis (Fig. 6,
//!   Tables III & IV inputs);
//! * [`error`] — error types.
//!
//! # Example
//!
//! ```
//! use xed_core::{XedDimm, XedConfig};
//! use xed_core::fault::{InjectedFault, FaultKind};
//!
//! let mut dimm = XedDimm::new(XedConfig::default());
//! let line = [0xDEAD_BEEF_0000_0001u64; 8];
//! dimm.write_line(0, &line);
//! // A whole chip dies at runtime:
//! dimm.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
//! // ... XED reconstructs its data from the catch-word + parity:
//! let out = dimm.read_line(0).unwrap();
//! assert_eq!(out.data, line);
//! assert!(dimm.stats().reconstructions > 0);
//! ```

pub mod alert;
pub mod analysis;
pub mod catch_word;
mod cells;
pub mod chip;
pub mod controller;
pub mod diagnosis;
pub mod dimm;
pub mod error;
pub mod fault;
pub mod fct;
pub mod oracle;
pub mod secded_dimm;
pub mod xed_chipkill;

pub use catch_word::CatchWord;
pub use chip::{ChipGeometry, DramChip, OnDieCode, WordAddr};
pub use controller::{LineReadout, XedController, XedStats};
pub use dimm::{XedConfig, XedDimm};
pub use error::XedError;
pub use xed_chipkill::XedChipkillSystem;
