//! Inter-Line and Intra-Line Fault Diagnosis (paper Section VI).
//!
//! These run when the DIMM-level parity mismatches but no (single) chip
//! identified itself with a catch-word — i.e. the on-die ECC *missed* a
//! multi-bit error (≈0.8% of multi-bit patterns), or multiple catch-words
//! left the faulty chip ambiguous.
//!
//! * **Inter-Line** (VI-A): large faults (column/row/bank/chip) corrupt
//!   neighboring lines too. Stream the whole row buffer (128 lines) and
//!   count catch-words per chip; the chip with ≥10% faulty lines is the
//!   culprit. Verdicts are cached in the [FCT](crate::fct), and an FCT
//!   saturated by one chip condemns that chip outright.
//! * **Intra-Line** (VI-B): a fault confined to the requested line leaves
//!   neighbors clean. Buffer the line, write all-zeros and all-ones test
//!   patterns, and read them back: a chip with *permanent* broken cells
//!   fails the pattern comparison. Transient word faults are not
//!   reproducible this way and end in a DUE — the dominant term of the
//!   paper's Table IV DUE budget.

use crate::chip::WordAddr;
use crate::controller::{LineReadout, XedController, DATA_CHIPS, PARITY_CHIP, TOTAL_CHIPS};
use crate::error::XedError;
use crate::fct::RowAddr;
use xed_ecc::parity;

impl XedController {
    /// Entry point for the parity-mismatch path: FCT lookup, then
    /// Inter-Line, then Intra-Line diagnosis; reconstructs the identified
    /// chip or reports a DUE.
    pub(crate) fn diagnose_and_correct(
        &mut self,
        addr: WordAddr,
        words: [u64; TOTAL_CHIPS],
    ) -> Result<LineReadout, XedError> {
        // 1. A previous diagnosis may already have blamed this row.
        if let Some(chip) = self.fct.lookup(RowAddr {
            bank: addr.bank,
            row: addr.row,
        }) {
            self.stats.fct_hits += 1;
            return self.finish_diagnosed(addr, &words, chip);
        }

        // 2. Inter-Line: stream the row buffer.
        self.stats.inter_line_runs += 1;
        if let Some(chip) = self.inter_line_diagnosis(addr) {
            self.record_diagnosis(addr, chip);
            return self.finish_diagnosed(addr, &words, chip);
        }

        // 3. Intra-Line: pattern test the single line.
        self.stats.intra_line_runs += 1;
        let suspects = self.intra_line_diagnosis(addr, &words);
        match suspects.len() {
            1 => self.finish_diagnosed(addr, &words, suspects[0]),
            n => {
                self.stats.due_events += 1;
                Err(XedError::DetectedUncorrectable { suspects: n as u32 })
            }
        }
    }

    /// Inter-Line Fault Diagnosis: reads every column of `addr`'s row with
    /// XED enabled and counts catch-words per chip. Returns the chip whose
    /// faulty-line count uniquely exceeds the threshold.
    pub(crate) fn inter_line_diagnosis(&mut self, addr: WordAddr) -> Option<usize> {
        let cols = self.geometry().cols;
        let threshold = (cols * self.inter_line_threshold_percent)
            .div_ceil(100)
            .max(1);
        let mut counts = [0u32; TOTAL_CHIPS];
        for col in 0..cols {
            let line = WordAddr {
                bank: addr.bank,
                row: addr.row,
                col,
            };
            let words = self.bus_read(line);
            let (catchers, ncatch) = self.catching_chips(&words);
            for &chip in &catchers[..ncatch] {
                counts[chip] += 1;
            }
        }
        // The verdict must be unambiguous: exactly one chip above the
        // threshold. Two chips both screaming catch-words (a double chip
        // failure) must fall through to a DUE, not a blind reconstruction.
        let mut over: Vec<usize> = (0..TOTAL_CHIPS)
            .filter(|&i| counts[i] >= threshold)
            .collect();
        match (over.len(), over.pop()) {
            (1, Some(chip)) => Some(chip),
            _ => None,
        }
    }

    /// Intra-Line Fault Diagnosis: writes all-zeros then all-ones to the
    /// line and reads them back raw (XED disabled); chips whose readback
    /// mismatches the pattern have permanent broken cells.
    ///
    /// The original bus words are restored afterwards (corrected if the
    /// diagnosis identified a single chip — done by the caller via
    /// [`Self::finish_diagnosed`] — or verbatim otherwise).
    pub(crate) fn intra_line_diagnosis(
        &mut self,
        addr: WordAddr,
        original: &[u64; TOTAL_CHIPS],
    ) -> Vec<usize> {
        let mut suspect = [false; TOTAL_CHIPS];
        for pattern in [0u64, u64::MAX] {
            for chip in &mut self.chips {
                chip.write(addr, pattern);
            }
            for chip in &mut self.chips {
                chip.set_xed_enable(false);
            }
            for (i, flagged) in suspect.iter_mut().enumerate() {
                if self.chips[i].read(addr).value != pattern {
                    *flagged = true;
                }
            }
            for chip in &mut self.chips {
                chip.set_xed_enable(true);
            }
        }
        // Restore the (possibly corrupted) original words verbatim; the
        // caller rewrites the corrected line if reconstruction succeeds.
        for (i, &w) in original.iter().enumerate() {
            self.chips[i].write(addr, w);
        }
        (0..TOTAL_CHIPS).filter(|&i| suspect[i]).collect()
    }

    /// Reconstructs `chip` from parity out of the buffered `words`, scrubs,
    /// and returns the corrected readout flagged as diagnosis-assisted.
    fn finish_diagnosed(
        &mut self,
        addr: WordAddr,
        words: &[u64; TOTAL_CHIPS],
        chip: usize,
    ) -> Result<LineReadout, XedError> {
        let mut data = [0u64; DATA_CHIPS];
        data.copy_from_slice(&words[..DATA_CHIPS]);
        if chip != PARITY_CHIP {
            data[chip] = parity::reconstruct(&data, words[PARITY_CHIP], chip);
        }
        self.stats.reconstructions += 1;
        self.scrub(addr, &data);
        Ok(LineReadout {
            data,
            reconstructed_chip: Some(chip),
            used_diagnosis: true,
            collision: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::chip::{ChipGeometry, OnDieCode, WordAddr};
    use crate::controller::XedController;
    use crate::error::XedError;
    use crate::fault::{FaultKind, InjectedFault};

    fn controller() -> XedController {
        XedController::new(ChipGeometry::small(), OnDieCode::Crc8Atm, 7, 4, 10)
    }

    fn addr(bank: u32, row: u32, col: u32) -> WordAddr {
        WordAddr { bank, row, col }
    }

    const LINE: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

    /// Fabricates the on-die-miss condition: a fault whose corruption the
    /// on-die code cannot see, by directly storing a *valid* codeword with
    /// wrong data. We emulate it with a fault seed chosen so the pattern is
    /// dense, then disabling the chip's event by... injecting into the
    /// parity relationship instead: write different data to one chip after
    /// the line write.
    fn desync_chip(c: &mut XedController, chip: usize, a: WordAddr, bogus: u64) {
        // Writing directly through the chip interface re-encodes: the chip
        // sees a perfectly valid codeword (no on-die event), but the DIMM
        // parity no longer holds — exactly the "on-die ECC missed it"
        // scenario of Section VI.
        let chips = &mut c.chips;
        chips[chip].write(a, bogus);
    }

    #[test]
    fn inter_line_identifies_row_failure_on_miss() {
        let mut c = controller();
        let a = addr(1, 5, 20);
        for col in 0..128 {
            c.write_line(addr(1, 5, col), &LINE);
        }
        // Chip 3 has a row failure *and* its word at the accessed line
        // happens to decode clean (simulated by desync); neighboring lines
        // still scream catch-words.
        c.inject_fault(3, InjectedFault::row(1, 5, FaultKind::Permanent));
        // Overwrite the accessed line's chip-3 word with a valid-but-wrong
        // codeword on top of which the fault pattern is *not* applied:
        // clear and re-add the fault so only other columns are corrupted.
        c.chips[3].clear_faults();
        desync_chip(&mut c, 3, a, 0xBAD);
        for col in 0..128 {
            if col != 20 {
                // fault everywhere else in the row
                c.inject_fault(
                    3,
                    InjectedFault::word(addr(1, 5, col), FaultKind::Permanent)
                        .with_seed(col as u64),
                );
            }
        }
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert!(r.used_diagnosis);
        assert_eq!(r.reconstructed_chip, Some(3));
        assert_eq!(c.stats().inter_line_runs, 1);
    }

    #[test]
    fn fct_caches_inter_line_verdict() {
        let mut c = controller();
        for col in 0..128 {
            c.write_line(addr(0, 9, col), &LINE);
        }
        // Row fault on chip 2, but desync two different lines so the
        // catch-word never fires there.
        c.inject_fault(2, InjectedFault::row(0, 9, FaultKind::Permanent));
        c.chips[2].clear_faults();
        for col in 0..128u32 {
            if col != 30 && col != 31 {
                c.inject_fault(
                    2,
                    InjectedFault::word(addr(0, 9, col), FaultKind::Permanent)
                        .with_seed(900 + col as u64),
                );
            }
        }
        desync_chip(&mut c, 2, addr(0, 9, 30), 0xB0);
        desync_chip(&mut c, 2, addr(0, 9, 31), 0xB1);
        let r1 = c.read_line(addr(0, 9, 30)).unwrap();
        assert_eq!(r1.data, LINE);
        assert_eq!(c.stats().inter_line_runs, 1);
        let r2 = c.read_line(addr(0, 9, 31)).unwrap();
        assert_eq!(r2.data, LINE);
        assert_eq!(c.stats().inter_line_runs, 1, "second miss served from FCT");
        assert!(c.stats().fct_hits >= 1);
    }

    #[test]
    fn intra_line_identifies_permanent_word_fault_on_miss() {
        let mut c = controller();
        let a = addr(2, 2, 2);
        c.write_line(a, &LINE);
        // Permanent single-word fault on chip 6 whose pattern the on-die
        // code misses: emulate the miss by injecting a fault that maps the
        // stored word to another valid codeword. We approximate by
        // scanning seeds until the chip reports no event for this address.
        let mut seed = 0u64;
        let found = loop {
            let f = InjectedFault::word(a, FaultKind::Permanent).with_seed(seed);
            c.chips[6].inject_fault(f);
            let raw = c.chips[6].read(a);
            let missed = raw.value != LINE[6] && !raw.on_die_event;
            if missed {
                break true;
            }
            c.chips[6].clear_faults();
            seed += 1;
            if seed > 5000 {
                break false;
            }
        };
        assert!(found, "no miss-pattern seed found (p≈0.4% per seed)");
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert!(r.used_diagnosis);
        assert_eq!(r.reconstructed_chip, Some(6));
        assert_eq!(c.stats().intra_line_runs, 1);
    }

    #[test]
    fn transient_word_miss_is_due() {
        let mut c = controller();
        let a = addr(0, 1, 1);
        c.write_line(a, &LINE);
        // The on-die-missed *transient* corruption: emulate by desyncing a
        // chip (valid codeword, wrong data, no reproducible broken cells).
        desync_chip(&mut c, 4, a, 0xDEAD);
        let e = c.read_line(a).unwrap_err();
        assert!(
            matches!(e, XedError::DetectedUncorrectable { suspects: 0 }),
            "expected DUE with no suspects, got {e:?}"
        );
        assert_eq!(c.stats().due_events, 1);
        assert_eq!(c.stats().inter_line_runs, 1);
        assert_eq!(c.stats().intra_line_runs, 1);
    }

    #[test]
    fn intra_line_restores_line_contents() {
        let mut c = controller();
        let a = addr(0, 3, 3);
        c.write_line(a, &LINE);
        desync_chip(&mut c, 4, a, 0xDEAD);
        let _ = c.read_line(a); // DUE path; patterns written and restored
                                // The line still holds the (desynced) words rather than a pattern.
        let words = c.bus_read(a);
        assert_eq!(words[0], LINE[0]);
        assert_eq!(words[4], 0xDEAD);
        assert_ne!(words[1], u64::MAX);
    }

    #[test]
    fn condemned_chip_after_fct_saturation() {
        let mut c = controller(); // fct capacity 4
                                  // Column-failure-like pattern: four different rows blamed on chip 5.
        for row in 0..4 {
            for col in 0..128 {
                c.write_line(addr(0, 10 + row, col), &LINE);
            }
        }
        for row in 0..4u32 {
            // Fault chip 5 across the row, desync the accessed column.
            for col in 0..128u32 {
                if col != 0 {
                    c.inject_fault(
                        5,
                        InjectedFault::word(addr(0, 10 + row, col), FaultKind::Permanent)
                            .with_seed((row * 1000 + col) as u64),
                    );
                }
            }
            desync_chip(&mut c, 5, addr(0, 10 + row, 0), 0x5A + row as u64);
            let r = c.read_line(addr(0, 10 + row, 0)).unwrap();
            assert_eq!(r.data, LINE, "row {row}");
        }
        assert_eq!(c.condemned_chip, Some(5));
        // Subsequent reads anywhere treat chip 5 as a standing erasure.
        let a = addr(3, 0, 0);
        c.write_line(a, &LINE);
        let r = c.read_line(a).unwrap();
        assert_eq!(r.data, LINE);
        assert_eq!(r.reconstructed_chip, Some(5));
        assert!(c.stats().fct_hits >= 1);
    }
}
