//! The XED memory controller.
//!
//! Implements the full read/write algorithm of paper Sections V–VII:
//!
//! 1. **Write**: encode each chip's 64-bit word, compute the RAID-3 parity
//!    word and store it in the 9th chip (Equation 1).
//! 2. **Read**: compare each chip's word against its catch-word.
//!    * no catch-word + parity holds → clean data;
//!    * one catch-word → erasure-reconstruct that chip from parity
//!      (Equation 3), checking for catch-word *collisions* (Section V-D);
//!    * multiple catch-words → **serial mode**: disable XED, re-read the
//!      (on-die-corrected) raw values, re-verify parity (Section VII-B);
//!    * no catch-word but parity mismatch (on-die detection miss) →
//!      **Inter-Line** then **Intra-Line fault diagnosis** (Section VI).
//! 3. Every successful correction is scrubbed (written back), healing
//!    transient corruption, and diagnosis verdicts are cached in the
//!    [FCT](crate::fct).

use crate::catch_word::CatchWordTable;
use crate::chip::{ChipGeometry, DramChip, OnDieCode, WordAddr};
use crate::error::XedError;
use crate::fault::InjectedFault;
use crate::fct::{FaultyRowChipTracker, FctOutcome, RowAddr};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xed_ecc::parity;
use xed_telemetry::registry::metrics;

/// Number of data chips on the DIMM.
pub const DATA_CHIPS: usize = 8;
/// Index of the parity (9th) chip.
pub const PARITY_CHIP: usize = 8;
/// Total chips on the ECC-DIMM.
pub const TOTAL_CHIPS: usize = 9;

/// Counters describing everything the controller has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct XedStats {
    /// Cache-line reads served.
    pub reads: u64,
    /// Cache-line writes performed (excluding scrubs and diagnosis).
    pub writes: u64,
    /// Catch-words observed on the bus.
    pub catch_words_observed: u64,
    /// Lines whose data was reconstructed from parity.
    pub reconstructions: u64,
    /// Serial-mode episodes (multiple catch-words).
    pub serial_modes: u64,
    /// Inter-Line diagnosis runs.
    pub inter_line_runs: u64,
    /// Intra-Line diagnosis runs.
    pub intra_line_runs: u64,
    /// Catch-word collisions detected (reconstruction equaled the
    /// catch-word).
    pub collisions: u64,
    /// Catch-word registers re-programmed after collisions.
    pub catch_word_updates: u64,
    /// Detected uncorrectable errors reported.
    pub due_events: u64,
    /// Reads short-circuited by an FCT hit or a condemned chip.
    pub fct_hits: u64,
    /// Scrub write-backs issued after corrections.
    pub scrub_writes: u64,
}

impl XedStats {
    /// Adds these totals to the `core.xed.*` registry counters, gated on
    /// [`xed_telemetry::enabled`]; the XED controllers call it on drop.
    pub(crate) fn publish(&self) {
        if !xed_telemetry::enabled() {
            return;
        }
        metrics::CORE_XED_READS.add(self.reads);
        metrics::CORE_XED_WRITES.add(self.writes);
        metrics::CORE_XED_CATCH_WORDS.add(self.catch_words_observed);
        metrics::CORE_XED_RECONSTRUCTIONS.add(self.reconstructions);
        metrics::CORE_XED_SERIAL_MODES.add(self.serial_modes);
        metrics::CORE_XED_CATCHWORD_COLLISIONS.add(self.collisions);
        metrics::CORE_XED_DIAGNOSIS_RUNS.add(self.inter_line_runs + self.intra_line_runs);
        metrics::CORE_XED_DUE.add(self.due_events);
        metrics::CORE_XED_SCRUB_WRITES.add(self.scrub_writes);
    }
}

/// Result of a successful cache-line read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineReadout {
    /// The eight 64-bit data words of the cache line.
    pub data: [u64; DATA_CHIPS],
    /// Chip whose word was reconstructed from parity, if any.
    pub reconstructed_chip: Option<usize>,
    /// `true` if Inter-Line or Intra-Line diagnosis ran for this read.
    pub used_diagnosis: bool,
    /// `true` if a catch-word collision was detected (and the catch-word
    /// regenerated).
    pub collision: bool,
}

/// The XED memory controller plus the 9-chip DIMM it drives.
#[derive(Debug)]
pub struct XedController {
    pub(crate) chips: Vec<DramChip>,
    pub(crate) catch_words: CatchWordTable,
    pub(crate) fct: FaultyRowChipTracker,
    pub(crate) condemned_chip: Option<usize>,
    pub(crate) stats: XedStats,
    pub(crate) rng: StdRng,
    pub(crate) inter_line_threshold_percent: u32,
    geometry: ChipGeometry,
}

impl XedController {
    /// Boots a XED system: builds the chips, generates per-chip catch-words,
    /// programs the CWRs and sets XED-Enable (paper Section V-A).
    pub fn new(
        geometry: ChipGeometry,
        code: OnDieCode,
        seed: u64,
        fct_capacity: usize,
        inter_line_threshold_percent: u32,
    ) -> Self {
        assert!(
            (1..=100).contains(&inter_line_threshold_percent),
            "threshold must be a percentage"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let catch_words = CatchWordTable::generate(&mut rng, TOTAL_CHIPS);
        let mut chips: Vec<DramChip> = (0..TOTAL_CHIPS)
            .map(|_| DramChip::new(geometry, code))
            .collect();
        for (i, chip) in chips.iter_mut().enumerate() {
            chip.set_catch_word(catch_words.word(i));
            chip.set_xed_enable(true);
        }
        Self {
            chips,
            catch_words,
            fct: FaultyRowChipTracker::new(fct_capacity),
            condemned_chip: None,
            stats: XedStats::default(),
            rng,
            inter_line_threshold_percent,
            geometry,
        }
    }

    /// The chip geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    /// Controller statistics so far.
    pub fn stats(&self) -> XedStats {
        self.stats
    }

    /// Injects a fault into chip `chip_index` (0–7 data, 8 parity).
    ///
    /// # Panics
    ///
    /// Panics if `chip_index >= 9`.
    pub fn inject_fault(&mut self, chip_index: usize, fault: InjectedFault) {
        self.chips[chip_index].inject_fault(fault);
    }

    /// The catch-word currently programmed into chip `chip_index`
    /// (the controller's retained CWR copy, paper Section V-A).
    pub fn catch_word(&self, chip_index: usize) -> crate::catch_word::CatchWord {
        self.catch_words.word(chip_index)
    }

    /// Writes a cache line: the eight data words go to the data chips and
    /// their XOR to the parity chip (Equation 1).
    pub fn write_line(&mut self, addr: WordAddr, data: &[u64; DATA_CHIPS]) {
        self.stats.writes += 1;
        self.store_line(addr, data);
    }

    fn store_line(&mut self, addr: WordAddr, data: &[u64; DATA_CHIPS]) {
        for (i, &w) in data.iter().enumerate() {
            self.chips[i].write(addr, w);
        }
        self.chips[PARITY_CHIP].write(addr, parity::compute(data));
    }

    /// Reads a cache line, performing XED detection/correction as needed.
    ///
    /// # Errors
    ///
    /// Returns [`XedError`] when more chips are faulty than one parity chip
    /// can reconstruct, or when diagnosis cannot identify the faulty chip.
    pub fn read_line(&mut self, addr: WordAddr) -> Result<LineReadout, XedError> {
        self.stats.reads += 1;

        if let Some(dead) = self.condemned_chip {
            return self.read_with_condemned_chip(addr, dead);
        }

        let words = self.bus_read(addr);
        let (catcher_buf, ncatch) = self.catching_chips(&words);
        let catchers = &catcher_buf[..ncatch];
        self.stats.catch_words_observed += catchers.len() as u64;

        match catchers.len() {
            0 => {
                if parity_holds(&words) {
                    return Ok(clean_readout(&words));
                }
                // Parity mismatch with no catch-word: the on-die ECC missed
                // a multi-bit error somewhere (Section VI).
                self.diagnose_and_correct(addr, words)
            }
            1 => {
                let chip = catchers[0];
                let readout = self.reconstruct(addr, &words, chip)?;
                Ok(readout)
            }
            _ => self.serial_mode(addr, catchers.len() as u32),
        }
    }

    /// Reads all nine chips and returns their bus words.
    pub(crate) fn bus_read(&self, addr: WordAddr) -> [u64; TOTAL_CHIPS] {
        let mut words = [0u64; TOTAL_CHIPS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.chips[i].read(addr).value;
        }
        words
    }

    /// Which chips transmitted their catch-word: the first `n` entries of
    /// the returned buffer, in chip order.
    pub(crate) fn catching_chips(
        &self,
        words: &[u64; TOTAL_CHIPS],
    ) -> ([usize; TOTAL_CHIPS], usize) {
        let mut chips = [0usize; TOTAL_CHIPS];
        let mut n = 0;
        for (i, &w) in words.iter().enumerate() {
            if self.catch_words.identify(i, w) {
                chips[n] = i;
                n += 1;
            }
        }
        (chips, n)
    }

    /// Erasure-reconstructs `chip`'s word from the other eight (Equation 3),
    /// checks for a collision, scrubs, and returns the corrected line.
    ///
    /// Residual vulnerability (paper Section VIII): if a *second* chip is
    /// silently corrupting the same line (a concurrent on-die detection
    /// miss), the reconstruction consumes the parity and produces wrong
    /// data undetectably. This double-fault-plus-miss window is part of
    /// the multi-chip-failure term of Table IV and is orders of magnitude
    /// below the DUE budget; the 18-chip configuration
    /// ([`crate::xed_chipkill`]) closes it with its spare check symbol.
    fn reconstruct(
        &mut self,
        addr: WordAddr,
        words: &[u64; TOTAL_CHIPS],
        chip: usize,
    ) -> Result<LineReadout, XedError> {
        let mut data = [0u64; DATA_CHIPS];
        data.copy_from_slice(&words[..DATA_CHIPS]);
        // Reconstructing the parity chip itself is just the XOR of the data
        // words; a data chip comes back via Equation 3.
        let reconstructed_value = if chip == PARITY_CHIP {
            parity::compute(&data)
        } else {
            let recovered = parity::reconstruct(&data, words[PARITY_CHIP], chip);
            data[chip] = recovered;
            recovered
        };

        // Collision check (Section V-D1): the reconstructed value matching
        // the catch-word means the stored data *is* the catch-word.
        let collision = self.catch_words.identify(chip, reconstructed_value);
        if collision {
            self.stats.collisions += 1;
            self.update_catch_word(chip);
        }

        self.stats.reconstructions += 1;
        // Scrub: write the corrected line back, healing transient faults.
        self.scrub(addr, &data);
        Ok(LineReadout {
            data,
            reconstructed_chip: Some(chip),
            used_diagnosis: false,
            collision,
        })
    }

    /// Serial mode (Section VII-B): multiple catch-words, so let each chip's
    /// on-die ECC *correct* what it can — disable XED, re-read, re-enable —
    /// then verify with parity.
    fn serial_mode(&mut self, addr: WordAddr, catch_words: u32) -> Result<LineReadout, XedError> {
        self.stats.serial_modes += 1;
        for chip in &mut self.chips {
            chip.set_xed_enable(false);
        }
        let words = self.bus_read(addr);
        for chip in &mut self.chips {
            chip.set_xed_enable(true);
        }
        if parity_holds(&words) {
            // All the catch-words were correctable (scaling) errors.
            let mut data = [0u64; DATA_CHIPS];
            data.copy_from_slice(&words[..DATA_CHIPS]);
            self.scrub(addr, &data);
            return Ok(LineReadout {
                data,
                reconstructed_chip: None,
                used_diagnosis: false,
                collision: false,
            });
        }
        // A runtime failure hides among the catch-words (Section VII-C):
        // identify the broken chip by diagnosis.
        match self.diagnose_and_correct(addr, words) {
            Ok(r) => Ok(r),
            // diagnose_and_correct already counted the DUE event.
            Err(XedError::DetectedUncorrectable { suspects }) if suspects >= 2 => {
                Err(XedError::MultipleFaultyChips { catch_words })
            }
            Err(e) => Err(e),
        }
    }

    /// Reads when a chip is condemned: it is treated as a standing erasure.
    fn read_with_condemned_chip(
        &mut self,
        addr: WordAddr,
        dead: usize,
    ) -> Result<LineReadout, XedError> {
        self.stats.fct_hits += 1;
        let words = self.bus_read(addr);
        // Any *other* chip presenting its catch-word means two concurrent
        // erasures: uncorrectable.
        let (catchers, ncatch) = self.catching_chips(&words);
        let others = catchers[..ncatch].iter().filter(|&&c| c != dead).count();
        if others > 0 {
            self.stats.due_events += 1;
            return Err(XedError::MultipleFaultyChips {
                catch_words: others as u32 + 1,
            });
        }
        self.reconstruct(addr, &words, dead)
    }

    /// Re-programs a chip's catch-word after a collision (Section V-D3).
    pub(crate) fn update_catch_word(&mut self, chip: usize) {
        let cw = self.catch_words.regenerate(&mut self.rng, chip);
        self.chips[chip].set_catch_word(cw);
        self.stats.catch_word_updates += 1;
    }

    /// Writes a corrected line back (scrub-on-correct).
    pub(crate) fn scrub(&mut self, addr: WordAddr, data: &[u64; DATA_CHIPS]) {
        self.stats.scrub_writes += 1;
        self.store_line(addr, data);
    }

    /// Records a diagnosis verdict in the FCT, condemning the chip if the
    /// tracker saturates on it.
    pub(crate) fn record_diagnosis(&mut self, addr: WordAddr, chip: usize) {
        let row = RowAddr {
            bank: addr.bank,
            row: addr.row,
        };
        if let FctOutcome::ChipCondemned { chip } = self.fct.record(row, chip) {
            self.condemned_chip = Some(chip);
        }
    }
}

/// Drop is the controller's merge point: its totals are published once
/// (the type is not `Clone`; [`crate::XedDimm`] publishes through it).
impl Drop for XedController {
    fn drop(&mut self) {
        self.stats.publish();
    }
}

/// Equation 1: XOR of the eight data words equals the parity word.
pub(crate) fn parity_holds(words: &[u64; TOTAL_CHIPS]) -> bool {
    parity::holds(&words[..DATA_CHIPS], words[PARITY_CHIP])
}

pub(crate) fn clean_readout(words: &[u64; TOTAL_CHIPS]) -> LineReadout {
    let mut data = [0u64; DATA_CHIPS];
    data.copy_from_slice(&words[..DATA_CHIPS]);
    LineReadout {
        data,
        reconstructed_chip: None,
        used_diagnosis: false,
        collision: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, InjectedFault};

    fn controller() -> XedController {
        XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 42, 8, 10)
    }

    fn addr(bank: u32, row: u32, col: u32) -> WordAddr {
        WordAddr { bank, row, col }
    }

    const LINE: [u64; 8] = [11, 22, 33, 44, 55, 66, 77, 88];

    #[test]
    fn clean_write_read_roundtrip() {
        let mut c = controller();
        let a = addr(0, 0, 0);
        c.write_line(a, &LINE);
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert_eq!(r.reconstructed_chip, None);
        assert!(!r.used_diagnosis);
        assert_eq!(c.stats().reconstructions, 0);
    }

    #[test]
    fn unwritten_line_reads_zeros() {
        let mut c = controller();
        let r = c.read_line(addr(1, 2, 3)).unwrap();
        assert_eq!(r.data, [0u64; 8]);
    }

    #[test]
    fn chip_failure_reconstructed() {
        let mut c = controller();
        let a = addr(0, 3, 7);
        c.write_line(a, &LINE);
        c.inject_fault(4, InjectedFault::chip(FaultKind::Permanent));
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert_eq!(r.reconstructed_chip, Some(4));
        assert!(c.stats().reconstructions >= 1);
        assert!(c.stats().catch_words_observed >= 1);
    }

    #[test]
    fn parity_chip_failure_harmless_for_data() {
        let mut c = controller();
        let a = addr(0, 0, 1);
        c.write_line(a, &LINE);
        c.inject_fault(PARITY_CHIP, InjectedFault::chip(FaultKind::Permanent));
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert_eq!(r.reconstructed_chip, Some(PARITY_CHIP));
    }

    #[test]
    fn every_data_chip_position_recoverable() {
        for chip in 0..8usize {
            let mut c = controller();
            let a = addr(1, 1, 1);
            c.write_line(a, &LINE);
            c.inject_fault(chip, InjectedFault::row(1, 1, FaultKind::Permanent));
            let r = c.read_line(a).unwrap();
            assert_eq!(r.data, LINE, "chip {chip}");
            assert_eq!(r.reconstructed_chip, Some(chip));
        }
    }

    #[test]
    fn two_broken_chips_in_one_line_due() {
        let mut c = controller();
        let a = addr(0, 2, 2);
        c.write_line(a, &LINE);
        c.inject_fault(1, InjectedFault::row(0, 2, FaultKind::Permanent));
        c.inject_fault(5, InjectedFault::row(0, 2, FaultKind::Permanent));
        let e = c.read_line(a).unwrap_err();
        assert!(matches!(e, XedError::MultipleFaultyChips { .. }), "{e:?}");
        assert!(c.stats().due_events >= 1);
    }

    #[test]
    fn transient_fault_scrubbed_after_correction() {
        let mut c = controller();
        let a = addr(0, 4, 4);
        c.write_line(a, &LINE);
        c.inject_fault(2, InjectedFault::word(a, FaultKind::Transient));
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        // Second read: scrub healed the corruption; clean path.
        let before = c.stats().reconstructions;
        let r2 = c.read_line(a).unwrap();
        assert_eq!(r2.data, LINE);
        assert_eq!(r2.reconstructed_chip, None);
        assert_eq!(c.stats().reconstructions, before);
    }

    #[test]
    fn scaling_faults_in_two_chips_serial_mode() {
        // Two chips each with a single-bit (correctable) fault: both send
        // catch-words; serial mode re-reads corrected data (Section VII-B).
        let mut c = controller();
        let a = addr(0, 6, 6);
        c.write_line(a, &LINE);
        c.inject_fault(0, InjectedFault::bit(a, 5, FaultKind::Permanent));
        c.inject_fault(3, InjectedFault::bit(a, 40, FaultKind::Permanent));
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert_eq!(c.stats().serial_modes, 1);
    }

    #[test]
    fn chip_failure_plus_scaling_fault_corrected() {
        // Section VII-C: runtime failure in one chip concurrent with a
        // correctable scaling fault in another.
        let mut c = controller();
        let a = addr(2, 8, 9);
        c.write_line(a, &LINE);
        c.inject_fault(1, InjectedFault::bit(a, 10, FaultKind::Permanent));
        c.inject_fault(6, InjectedFault::row(2, 8, FaultKind::Permanent));
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert!(c.stats().serial_modes >= 1);
        assert!(r.used_diagnosis || r.reconstructed_chip.is_some());
    }

    #[test]
    fn collision_detected_and_catch_word_updated() {
        let mut c = controller();
        let a = addr(0, 9, 9);
        // Store the catch-word of chip 2 *as data* in chip 2.
        let cw = c.catch_words.word(2).value();
        let mut line = LINE;
        line[2] = cw;
        c.write_line(a, &line);
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, line, "data delivered correctly despite collision");
        assert!(r.collision);
        assert_eq!(c.stats().collisions, 1);
        assert_eq!(c.stats().catch_word_updates, 1);
        assert_ne!(c.catch_words.word(2).value(), cw, "catch-word regenerated");
        // Subsequent reads are clean (no more collision).
        let r2 = c.read_line(a).unwrap();
        assert!(!r2.collision);
        assert_eq!(r2.data, line);
    }

    #[test]
    fn stats_count_reads_writes() {
        let mut c = controller();
        let a = addr(0, 0, 0);
        c.write_line(a, &LINE);
        c.read_line(a).unwrap();
        c.read_line(a).unwrap();
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().writes, 1);
    }
}
