//! A friendly facade over the XED controller + 9-chip DIMM.

use crate::chip::{ChipGeometry, OnDieCode, WordAddr};
use crate::controller::{LineReadout, XedController, XedStats, DATA_CHIPS};
use crate::error::XedError;
use crate::fault::InjectedFault;

/// Configuration for a [`XedDimm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XedConfig {
    /// Per-chip geometry (functional model size).
    pub geometry: ChipGeometry,
    /// On-die SECDED code (the paper recommends CRC8-ATM).
    pub code: OnDieCode,
    /// Seed for catch-word generation.
    pub seed: u64,
    /// Faulty-row Chip Tracker capacity (paper: 4–8).
    pub fct_capacity: usize,
    /// Inter-Line diagnosis threshold, percent of faulty lines in a row
    /// (paper: 10%).
    pub inter_line_threshold_percent: u32,
}

impl Default for XedConfig {
    fn default() -> Self {
        Self {
            geometry: ChipGeometry::small(),
            code: OnDieCode::Crc8Atm,
            seed: 0xCA7C,
            fct_capacity: 8,
            inter_line_threshold_percent: 10,
        }
    }
}

/// A complete functional XED memory system for one ECC-DIMM: nine
/// on-die-ECC DRAM chips plus the XED memory controller.
///
/// Cache lines are addressed either linearly (`u64` index, row-major) or by
/// explicit [`WordAddr`].
///
/// ```
/// use xed_core::{XedDimm, XedConfig};
///
/// let mut dimm = XedDimm::new(XedConfig::default());
/// dimm.write_line(7, &[1, 2, 3, 4, 5, 6, 7, 8]);
/// assert_eq!(dimm.read_line(7).unwrap().data, [1, 2, 3, 4, 5, 6, 7, 8]);
/// ```
#[derive(Debug)]
pub struct XedDimm {
    controller: XedController,
}

impl XedDimm {
    /// Boots the DIMM and controller.
    pub fn new(config: XedConfig) -> Self {
        Self {
            controller: XedController::new(
                config.geometry,
                config.code,
                config.seed,
                config.fct_capacity,
                config.inter_line_threshold_percent,
            ),
        }
    }

    /// The configured chip geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.controller.geometry()
    }

    /// Translates a linear line index into a word address.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range for the geometry.
    pub fn line_addr(&self, line: u64) -> WordAddr {
        self.controller.geometry().addr(line)
    }

    /// Writes a cache line at a linear index.
    pub fn write_line(&mut self, line: u64, data: &[u64; DATA_CHIPS]) {
        let addr = self.line_addr(line);
        self.controller.write_line(addr, data);
    }

    /// Reads a cache line at a linear index.
    ///
    /// # Errors
    ///
    /// Returns [`XedError`] when the corruption exceeds XED's correction
    /// capability (see [`XedController::read_line`]).
    pub fn read_line(&mut self, line: u64) -> Result<LineReadout, XedError> {
        let addr = self.line_addr(line);
        self.controller.read_line(addr)
    }

    /// Injects a fault into one chip (0–7 data, 8 parity).
    pub fn inject_fault(&mut self, chip: usize, fault: InjectedFault) {
        self.controller.inject_fault(chip, fault);
    }

    /// Controller statistics.
    pub fn stats(&self) -> XedStats {
        self.controller.stats()
    }

    /// Access to the underlying controller (advanced use).
    pub fn controller(&self) -> &XedController {
        &self.controller
    }

    /// Mutable access to the underlying controller (advanced use).
    pub fn controller_mut(&mut self) -> &mut XedController {
        &mut self.controller
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    #[test]
    fn linear_addressing_distinct_lines() {
        let mut d = XedDimm::new(XedConfig::default());
        d.write_line(0, &[9; 8]);
        d.write_line(1, &[5; 8]);
        assert_eq!(d.read_line(0).unwrap().data, [9; 8]);
        assert_eq!(d.read_line(1).unwrap().data, [5; 8]);
    }

    #[test]
    fn facade_matches_doc_example() {
        let mut dimm = XedDimm::new(XedConfig::default());
        let line = [0xDEAD_BEEF_0000_0001u64; 8];
        dimm.write_line(0, &line);
        dimm.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
        let out = dimm.read_line(0).unwrap();
        assert_eq!(out.data, line);
        assert!(dimm.stats().reconstructions > 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_line_panics() {
        let mut d = XedDimm::new(XedConfig::default());
        let words = d.geometry().words();
        let _ = d.read_line(words);
    }

    #[test]
    fn hamming_on_die_variant_boots() {
        let cfg = XedConfig {
            code: OnDieCode::Hamming,
            ..XedConfig::default()
        };
        let mut d = XedDimm::new(cfg);
        d.write_line(0, &[1; 8]);
        assert_eq!(d.read_line(0).unwrap().data, [1; 8]);
    }
}
