//! The DDR4 `ALERT_n` alternative (paper Section XI-C).
//!
//! DDR4 provides a single shared `ALERT_n` pin per DIMM. If on-die ECC
//! raised it on detection, the controller would learn *that* some chip
//! errored — but not *which*: the pin is wire-OR'd across all nine chips.
//! The paper observes that XED could be built on `ALERT_n` only if a
//! future standard extended it to convey the faulty chip's identity.
//!
//! This module makes that argument executable. [`AlertDimm`] is the same
//! nine-chip functional DIMM driven through an `ALERT_n`-style controller:
//!
//! * **anonymous alert** (today's pin): the controller sees the alert,
//!   knows the line is suspect, and must fall back to Intra-Line-style
//!   pattern diagnosis to locate the chip — which only works for
//!   *permanent* faults. Transient faults become DUEs that XED would have
//!   corrected.
//! * **identified alert** (the hypothetical extended pin): equivalent in
//!   power to catch-words, without consuming a data-bus value.

use crate::chip::{ChipGeometry, DramChip, OnDieCode, WordAddr};
use crate::error::XedError;
use crate::fault::InjectedFault;
use xed_ecc::parity;
use xed_telemetry::registry::metrics;

/// How much the alert signal reveals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertMode {
    /// One wire-OR'd pin: "some chip detected an error" (DDR4 today).
    Anonymous,
    /// Extended signal carrying the erring chip's index (future standard —
    /// functionally equivalent to XED's catch-words).
    Identified,
}

/// Statistics of the alert-based controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlertStats {
    /// Reads served.
    pub reads: u64,
    /// Alert assertions observed.
    pub alerts: u64,
    /// Lines corrected via parity reconstruction.
    pub reconstructions: u64,
    /// Pattern-diagnosis procedures run (anonymous mode only).
    pub diagnoses: u64,
    /// Detected uncorrectable errors.
    pub due_events: u64,
}

/// A 9-chip ECC-DIMM driven through an `ALERT_n`-style interface.
#[derive(Debug)]
pub struct AlertDimm {
    chips: Vec<DramChip>,
    mode: AlertMode,
    geometry: ChipGeometry,
    stats: AlertStats,
}

const DATA_CHIPS: usize = 8;
const TOTAL_CHIPS: usize = 9;

impl AlertDimm {
    /// Boots the DIMM. Chips run with XED *disabled*: data always flows on
    /// the bus; detection travels on the (modeled) alert signal instead.
    pub fn new(geometry: ChipGeometry, code: OnDieCode, mode: AlertMode) -> Self {
        let chips = (0..TOTAL_CHIPS)
            .map(|_| DramChip::new(geometry, code))
            .collect();
        Self {
            chips,
            mode,
            geometry,
            stats: AlertStats::default(),
        }
    }

    /// Controller statistics.
    pub fn stats(&self) -> AlertStats {
        self.stats
    }

    /// Injects a fault into a chip.
    pub fn inject_fault(&mut self, chip: usize, fault: InjectedFault) {
        self.chips[chip].inject_fault(fault);
    }

    /// Writes a cache line (data + parity in the 9th chip).
    pub fn write_line(&mut self, line: u64, data: &[u64; DATA_CHIPS]) {
        let addr = self.geometry.addr(line);
        self.store(addr, data);
    }

    fn store(&mut self, addr: WordAddr, data: &[u64; DATA_CHIPS]) {
        for (i, &w) in data.iter().enumerate() {
            self.chips[i].write(addr, w);
        }
        self.chips[DATA_CHIPS].write(addr, parity::compute(data));
    }

    /// Reads a cache line.
    ///
    /// # Errors
    ///
    /// Returns [`XedError`] when the alert cannot be resolved to a single
    /// chip (anonymous mode + transient fault, or multiple faulty chips).
    pub fn read_line(&mut self, line: u64) -> Result<[u64; DATA_CHIPS], XedError> {
        self.stats.reads += 1;
        let addr = self.geometry.addr(line);
        let reads: Vec<_> = self.chips.iter().map(|c| c.read(addr)).collect();
        let mut words = [0u64; TOTAL_CHIPS];
        let mut alerting: Vec<usize> = Vec::new();
        for (i, r) in reads.iter().enumerate() {
            words[i] = r.value;
            if r.on_die_event {
                alerting.push(i);
            }
        }
        if !alerting.is_empty() {
            self.stats.alerts += 1;
        }
        let parity_ok = parity::holds(&words[..DATA_CHIPS], words[DATA_CHIPS]);

        // On-die ECC corrected whatever it could (single-bit errors); if
        // parity holds, the data on the bus is consistent.
        if parity_ok {
            let mut data = [0u64; DATA_CHIPS];
            data.copy_from_slice(&words[..DATA_CHIPS]);
            return Ok(data);
        }

        // Parity mismatch: a chip emitted garbage. Who?
        let suspect = match self.mode {
            AlertMode::Identified if alerting.len() == 1 => Some(alerting[0]),
            AlertMode::Identified => None,
            AlertMode::Anonymous => {
                // The pin says "somebody"; find out with pattern diagnosis
                // (permanent faults only — the write destroys transient
                // evidence).
                self.stats.diagnoses += 1;
                let suspects = self.pattern_diagnosis(addr, &words);
                if suspects.len() == 1 {
                    Some(suspects[0])
                } else {
                    None
                }
            }
        };

        match suspect {
            Some(chip) => {
                let mut data = [0u64; DATA_CHIPS];
                data.copy_from_slice(&words[..DATA_CHIPS]);
                if chip < DATA_CHIPS {
                    data[chip] = parity::reconstruct(&data, words[DATA_CHIPS], chip);
                }
                self.stats.reconstructions += 1;
                self.store(addr, &data); // scrub
                Ok(data)
            }
            None => {
                self.stats.due_events += 1;
                Err(XedError::DetectedUncorrectable {
                    suspects: alerting.len() as u32,
                })
            }
        }
    }

    /// All-zeros / all-ones pattern test (cf. Intra-Line diagnosis).
    fn pattern_diagnosis(&mut self, addr: WordAddr, original: &[u64; TOTAL_CHIPS]) -> Vec<usize> {
        let mut suspect = [false; TOTAL_CHIPS];
        for pattern in [0u64, u64::MAX] {
            for chip in &mut self.chips {
                chip.write(addr, pattern);
            }
            for (i, flagged) in suspect.iter_mut().enumerate() {
                if self.chips[i].read(addr).value != pattern {
                    *flagged = true;
                }
            }
        }
        for (i, &w) in original.iter().enumerate() {
            self.chips[i].write(addr, w);
        }
        (0..TOTAL_CHIPS).filter(|&i| suspect[i]).collect()
    }
}

/// Drop is the DIMM's merge point: its totals are published once (the
/// type is not `Clone`), gated on [`xed_telemetry::enabled`].
impl Drop for AlertDimm {
    fn drop(&mut self) {
        if !xed_telemetry::enabled() {
            return;
        }
        metrics::CORE_ALERT_READS.add(self.stats.reads);
        metrics::CORE_ALERT_ALERTS.add(self.stats.alerts);
        metrics::CORE_ALERT_RECONSTRUCTIONS.add(self.stats.reconstructions);
        metrics::CORE_ALERT_DIAGNOSES.add(self.stats.diagnoses);
        metrics::CORE_ALERT_DUE.add(self.stats.due_events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    const LINE: [u64; 8] = [10, 20, 30, 40, 50, 60, 70, 80];

    fn dimm(mode: AlertMode) -> AlertDimm {
        let mut d = AlertDimm::new(ChipGeometry::small(), OnDieCode::Crc8Atm, mode);
        for l in 0..8 {
            d.write_line(l, &LINE);
        }
        d
    }

    #[test]
    fn clean_reads_raise_no_alert() {
        let mut d = dimm(AlertMode::Anonymous);
        assert_eq!(d.read_line(0).unwrap(), LINE);
        assert_eq!(d.stats().alerts, 0);
    }

    #[test]
    fn single_bit_fault_corrected_on_die_alert_but_no_action() {
        let mut d = dimm(AlertMode::Anonymous);
        let addr = d.geometry.addr(1);
        d.inject_fault(2, InjectedFault::bit(addr, 9, FaultKind::Permanent));
        assert_eq!(d.read_line(1).unwrap(), LINE);
        assert_eq!(d.stats().alerts, 1, "the pin fires");
        assert_eq!(d.stats().reconstructions, 0, "but data was already fine");
    }

    #[test]
    fn identified_alert_matches_xed_capability() {
        let mut d = dimm(AlertMode::Identified);
        d.inject_fault(5, InjectedFault::chip(FaultKind::Permanent));
        for l in 0..8 {
            assert_eq!(d.read_line(l).unwrap(), LINE, "line {l}");
        }
        assert_eq!(d.stats().due_events, 0);
        assert!(d.stats().reconstructions >= 8);
    }

    #[test]
    fn anonymous_alert_corrects_permanent_via_diagnosis() {
        let mut d = dimm(AlertMode::Anonymous);
        let addr = d.geometry.addr(3);
        d.inject_fault(4, InjectedFault::word(addr, FaultKind::Permanent));
        assert_eq!(d.read_line(3).unwrap(), LINE);
        assert_eq!(d.stats().diagnoses, 1, "needs the expensive pattern test");
    }

    #[test]
    fn anonymous_alert_loses_transient_faults() {
        // The key gap vs XED: a transient multi-bit fault is detected but
        // cannot be localized, so the anonymous pin ends in a DUE where
        // XED's catch-word would have corrected it.
        let mut d = dimm(AlertMode::Anonymous);
        let addr = d.geometry.addr(2);
        d.inject_fault(6, InjectedFault::word(addr, FaultKind::Transient));
        let err = d.read_line(2).unwrap_err();
        assert!(matches!(err, XedError::DetectedUncorrectable { .. }));
        // And the identified variant handles the same fault fine.
        let mut d = dimm(AlertMode::Identified);
        let addr = d.geometry.addr(2);
        d.inject_fault(6, InjectedFault::word(addr, FaultKind::Transient));
        assert_eq!(d.read_line(2).unwrap(), LINE);
    }

    #[test]
    fn identified_alert_two_chips_due() {
        let mut d = dimm(AlertMode::Identified);
        d.inject_fault(1, InjectedFault::chip(FaultKind::Permanent));
        d.inject_fault(7, InjectedFault::chip(FaultKind::Permanent));
        assert!(d.read_line(0).is_err());
    }
}
