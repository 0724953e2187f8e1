//! The Faulty-row Chip Tracker (FCT).
//!
//! Inter-Line Fault Diagnosis costs 128 reads, so its verdicts are cached
//! (paper Section VI-A): each FCT entry maps a faulty row to the chip the
//! diagnosis blamed. The structure is deliberately tiny (4–8 entries):
//! a single row failure uses one entry, while a column or bank failure
//! quickly fills every entry with the *same* chip — the signal to mark that
//! chip permanently faulty and reconstruct it on every access.

/// A row address (bank, row) within the DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowAddr {
    /// Bank index.
    pub bank: u32,
    /// Row index.
    pub row: u32,
}

/// Result of recording a diagnosis in the FCT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FctOutcome {
    /// New entry stored.
    Recorded,
    /// The row was already tracked (same chip).
    AlreadyKnown,
    /// The tracker is full and every entry blames the same chip: that chip
    /// should be marked permanently faulty.
    ChipCondemned {
        /// The chip every entry points to.
        chip: usize,
    },
    /// The tracker is full with mixed chips; the oldest entry was evicted
    /// to make room.
    EvictedOldest,
}

/// The Faulty-row Chip Tracker.
#[derive(Debug, Clone)]
pub struct FaultyRowChipTracker {
    capacity: usize,
    entries: Vec<(RowAddr, usize)>,
}

impl FaultyRowChipTracker {
    /// Creates a tracker with the given capacity (paper: 4–8 entries).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FCT needs at least one entry");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The chip previously blamed for `row`, if tracked.
    pub fn lookup(&self, row: RowAddr) -> Option<usize> {
        self.entries
            .iter()
            .find(|(r, _)| *r == row)
            .map(|&(_, c)| c)
    }

    /// Records a diagnosis verdict.
    pub fn record(&mut self, row: RowAddr, chip: usize) -> FctOutcome {
        if let Some(existing) = self.lookup(row) {
            if existing == chip {
                return FctOutcome::AlreadyKnown;
            }
            // Re-diagnosed to a different chip: update in place.
            if let Some(e) = self.entries.iter_mut().find(|(r, _)| *r == row) {
                e.1 = chip;
            }
            return FctOutcome::Recorded;
        }
        if self.entries.len() < self.capacity {
            // alloc: never grows: `new` reserved `capacity` and len < capacity.
            self.entries.push((row, chip));
            if self.entries.len() == self.capacity && self.entries.iter().all(|&(_, c)| c == chip) {
                return FctOutcome::ChipCondemned { chip };
            }
            return FctOutcome::Recorded;
        }
        // Full.
        if self.entries.iter().all(|&(_, c)| c == chip) {
            return FctOutcome::ChipCondemned { chip };
        }
        self.entries.remove(0);
        // alloc: never grows: the remove freed a slot of the reserved capacity.
        self.entries.push((row, chip));
        FctOutcome::EvictedOldest
    }

    /// Clears the tracker (e.g. after the condemned chip is mapped out).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(bank: u32, row: u32) -> RowAddr {
        RowAddr { bank, row }
    }

    #[test]
    fn records_and_looks_up() {
        let mut fct = FaultyRowChipTracker::new(4);
        assert_eq!(fct.record(r(0, 1), 3), FctOutcome::Recorded);
        assert_eq!(fct.lookup(r(0, 1)), Some(3));
        assert_eq!(fct.lookup(r(0, 2)), None);
        assert_eq!(fct.len(), 1);
    }

    #[test]
    fn duplicate_row_same_chip_is_known() {
        let mut fct = FaultyRowChipTracker::new(4);
        fct.record(r(0, 1), 3);
        assert_eq!(fct.record(r(0, 1), 3), FctOutcome::AlreadyKnown);
        assert_eq!(fct.len(), 1);
    }

    #[test]
    fn re_diagnosis_updates_chip() {
        let mut fct = FaultyRowChipTracker::new(4);
        fct.record(r(0, 1), 3);
        assert_eq!(fct.record(r(0, 1), 5), FctOutcome::Recorded);
        assert_eq!(fct.lookup(r(0, 1)), Some(5));
    }

    #[test]
    fn same_chip_filling_condemns() {
        // Column/bank failure signature: many rows, one chip.
        let mut fct = FaultyRowChipTracker::new(4);
        fct.record(r(0, 1), 2);
        fct.record(r(0, 2), 2);
        fct.record(r(0, 3), 2);
        assert_eq!(
            fct.record(r(0, 4), 2),
            FctOutcome::ChipCondemned { chip: 2 }
        );
        // Still condemned on further inserts.
        assert_eq!(
            fct.record(r(0, 5), 2),
            FctOutcome::ChipCondemned { chip: 2 }
        );
    }

    #[test]
    fn mixed_chips_evict_oldest() {
        let mut fct = FaultyRowChipTracker::new(2);
        fct.record(r(0, 1), 1);
        fct.record(r(0, 2), 2);
        assert_eq!(fct.record(r(0, 3), 1), FctOutcome::EvictedOldest);
        assert_eq!(fct.lookup(r(0, 1)), None, "oldest entry evicted");
        assert_eq!(fct.lookup(r(0, 3)), Some(1));
    }

    #[test]
    fn clear_empties() {
        let mut fct = FaultyRowChipTracker::new(2);
        fct.record(r(0, 1), 1);
        fct.clear();
        assert!(fct.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        FaultyRowChipTracker::new(0);
    }
}
