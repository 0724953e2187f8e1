//! A functional DRAM chip with on-die ECC and the XED DC-Mux.
//!
//! The chip really stores (72,64) codewords, really corrupts them when
//! faults are injected, really decodes them with its on-die SECDED engine
//! on every read, and — when XED is enabled — really multiplexes between
//! data and the catch-word exactly as Figure 3 of the paper describes:
//!
//! ```text
//!    if (error detected or corrected by on-die ECC) && XED-Enable
//!        send Catch-Word
//!    else
//!        send data
//! ```

use crate::catch_word::CatchWord;
use crate::cells::CellArray;
use crate::fault::InjectedFault;
use xed_ecc::secded::{Code, DecodeOutcome, SecDed, CRC8_ATM, HAMMING};
use xed_ecc::CodeWord72;

/// Address of one on-die ECC word (one chip's contribution to one cache
/// line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct WordAddr {
    /// Bank index.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Column (cache-line) index within the row.
    pub col: u32,
}

impl WordAddr {
    /// A collision-free 64-bit key for hashing/corruption derivation.
    pub fn key(self) -> u64 {
        ((self.bank as u64) << 52) | ((self.row as u64) << 20) | self.col as u64
    }
}

/// Geometry of the functional chip model.
///
/// Defaults are deliberately small (a full 2Gb array would be wasteful for
/// functional simulation) while keeping the paper's 128-column row buffer,
/// which Inter-Line diagnosis depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipGeometry {
    /// Banks per chip.
    pub banks: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Cache-line columns per row (paper: 128).
    pub cols: u32,
}

impl ChipGeometry {
    /// Small functional-test geometry: 4 banks × 64 rows × 128 columns.
    pub const fn small() -> Self {
        Self {
            banks: 4,
            rows: 64,
            cols: 128,
        }
    }

    /// Linear address for an index in `0..words()`, row-major.
    pub fn addr(&self, index: u64) -> WordAddr {
        let words = self.words();
        assert!(index < words, "index {index} out of {words}");
        let col = (index % self.cols as u64) as u32;
        let row = ((index / self.cols as u64) % self.rows as u64) as u32;
        let bank = (index / (self.cols as u64 * self.rows as u64)) as u32;
        WordAddr { bank, row, col }
    }

    /// Total words in the chip.
    pub fn words(&self) -> u64 {
        self.banks as u64 * self.rows as u64 * self.cols as u64
    }

    /// `true` if `a` is within this geometry.
    pub fn contains(&self, a: WordAddr) -> bool {
        a.bank < self.banks && a.row < self.rows && a.col < self.cols
    }
}

impl Default for ChipGeometry {
    fn default() -> Self {
        Self::small()
    }
}

/// Which SECDED code the on-die ECC engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OnDieCode {
    /// Conventional (72,64) Hamming SECDED.
    Hamming,
    /// The paper's recommended (72,64) CRC8-ATM SECDED (stronger burst
    /// detection, Section V-E).
    #[default]
    Crc8Atm,
}

impl OnDieCode {
    /// The code's kernel table.
    fn code(self) -> &'static Code<64> {
        match self {
            OnDieCode::Hamming => &HAMMING,
            OnDieCode::Crc8Atm => &CRC8_ATM,
        }
    }
}

/// What a chip put on the bus for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusWord {
    /// The 64-bit value transmitted.
    pub value: u64,
    /// `true` if the on-die engine saw a non-clean codeword (this is
    /// internal chip state — *not* visible to the controller, which only
    /// sees `value`; exposed for instrumentation and tests).
    pub on_die_event: bool,
}

/// A functional DRAM chip with on-die ECC.
#[derive(Debug, Clone)]
pub struct DramChip {
    code: &'static Code<64>,
    /// Stored codewords, injected faults and heal state (unwritten words
    /// read as encode(0); see [`crate::cells`]).
    cells: CellArray<CodeWord72>,
    xed_enable: bool,
    catch_word: Option<CatchWord>,
}

impl DramChip {
    /// Builds a chip with the given geometry and on-die code.
    pub fn new(geometry: ChipGeometry, code: OnDieCode) -> Self {
        let code = code.code();
        let cells = CellArray::new(geometry, code.encode(0));
        Self {
            code,
            cells,
            xed_enable: false,
            catch_word: None,
        }
    }

    /// The chip's geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.cells.geometry()
    }

    /// Sets the XED-Enable mode register (paper Section V-A).
    pub fn set_xed_enable(&mut self, enable: bool) {
        self.xed_enable = enable;
    }

    /// Programs the Catch-Word Register via the MRS interface.
    pub fn set_catch_word(&mut self, cw: CatchWord) {
        self.catch_word = Some(cw);
    }

    /// Injects a fault into the chip.
    pub fn inject_fault(&mut self, fault: InjectedFault) {
        self.cells.inject(fault);
    }

    /// Removes all injected faults (test helper; real chips cannot do
    /// this).
    #[cfg(test)]
    pub(crate) fn clear_faults(&mut self) {
        self.cells.clear_faults();
    }

    /// Writes a 64-bit data word: the chip encodes it with the on-die code
    /// and stores the codeword. Writing heals transient corruption at the
    /// address (the cells are re-charged) but not permanent faults.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chip geometry.
    pub fn write(&mut self, addr: WordAddr, data: u64) {
        self.cells.write(addr, self.code.encode(data));
    }

    /// The raw (possibly corrupted) codeword currently at `addr`, before
    /// on-die decoding.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chip geometry.
    pub fn raw_codeword(&self, addr: WordAddr) -> CodeWord72 {
        self.cells.read(addr)
    }

    /// Reads the word at `addr`: on-die decode, then DC-Mux selection
    /// (paper Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chip geometry.
    pub fn read(&self, addr: WordAddr) -> BusWord {
        let received = self.raw_codeword(addr);
        let outcome = self.code.decode(received);
        let event = outcome.is_event();
        let value = if event && self.xed_enable {
            // invariant: the controller programs the Catch-Word Register
            // (set_catch_word) before asserting xed_enable, mirroring the
            // paper's boot-time MRS sequence; enabling XED without a catch
            // word is a programming error worth failing loudly on.
            self.catch_word
                .expect("XED enabled without a catch word")
                .value()
        } else {
            match outcome {
                DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. } => data,
                // Detected-uncorrectable without XED: raw data reaches the
                // bus.
                DecodeOutcome::Detected => received.data(),
            }
        };
        BusWord {
            value,
            on_die_event: event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn addr(bank: u32, row: u32, col: u32) -> WordAddr {
        WordAddr { bank, row, col }
    }

    fn chip() -> DramChip {
        DramChip::new(ChipGeometry::small(), OnDieCode::Crc8Atm)
    }

    #[test]
    fn clean_read_returns_written_data() {
        let mut c = chip();
        c.write(addr(0, 0, 0), 0xABCD);
        let b = c.read(addr(0, 0, 0));
        assert_eq!(b.value, 0xABCD);
        assert!(!b.on_die_event);
    }

    #[test]
    fn unwritten_word_reads_zero() {
        let c = chip();
        assert_eq!(c.read(addr(3, 63, 127)).value, 0);
    }

    #[test]
    fn single_bit_fault_corrected_invisibly() {
        let mut c = chip();
        let a = addr(0, 1, 2);
        c.write(a, 0x1234_5678_9ABC_DEF0);
        c.inject_fault(InjectedFault::bit(a, 17, FaultKind::Permanent));
        let b = c.read(a);
        // On-die ECC corrects it; without XED the corrected data flows out.
        assert_eq!(b.value, 0x1234_5678_9ABC_DEF0);
        assert!(b.on_die_event, "correction is an on-die event");
    }

    #[test]
    fn xed_replaces_event_with_catch_word() {
        let mut c = chip();
        let a = addr(0, 1, 2);
        c.write(a, 42);
        c.set_catch_word(CatchWord::from_value(0xCA7C_4012D));
        c.set_xed_enable(true);
        c.inject_fault(InjectedFault::bit(a, 3, FaultKind::Permanent));
        let b = c.read(a);
        assert_eq!(b.value, 0xCA7C_4012D);
        // Clean addresses still return data.
        let clean = addr(0, 1, 3);
        assert_eq!(c.read(clean).value, 0);
    }

    #[test]
    fn word_fault_garbles_data_without_xed() {
        let mut c = chip();
        let a = addr(1, 2, 3);
        c.write(a, 7);
        c.inject_fault(InjectedFault::word(a, FaultKind::Permanent));
        let b = c.read(a);
        assert!(
            b.on_die_event || b.value != 7,
            "multi-bit fault must be visible somehow"
        );
    }

    #[test]
    fn transient_fault_healed_by_write() {
        let mut c = chip();
        let a = addr(0, 5, 6);
        c.write(a, 1);
        c.inject_fault(InjectedFault::word(a, FaultKind::Transient));
        assert!(c.read(a).on_die_event);
        c.write(a, 2);
        let b = c.read(a);
        assert_eq!(b.value, 2);
        assert!(!b.on_die_event, "write heals transient corruption");
    }

    #[test]
    fn permanent_fault_survives_write() {
        let mut c = chip();
        let a = addr(0, 5, 6);
        c.inject_fault(InjectedFault::word(a, FaultKind::Permanent));
        c.write(a, 2);
        assert!(c.read(a).on_die_event, "permanent cells stay broken");
    }

    #[test]
    fn row_fault_covers_whole_row_only() {
        let mut c = chip();
        c.inject_fault(InjectedFault::row(2, 10, FaultKind::Permanent));
        // The on-die SECDED flags the dense corruption on almost every
        // line; a small fraction (≈1/256 per word) aliases onto a valid
        // codeword — the paper's "on-die detection miss".
        let events = (0..128)
            .filter(|&col| c.read(addr(2, 10, col)).on_die_event)
            .count();
        assert!(events >= 120, "only {events}/128 lines flagged");
        // Every line of the row reads corrupted data or flags an event.
        for col in 0..128 {
            let b = c.read(addr(2, 10, col));
            assert!(b.on_die_event || b.value != 0, "col {col} silently clean");
        }
        assert!(!c.read(addr(2, 11, 0)).on_die_event);
        assert!(!c.read(addr(1, 10, 0)).on_die_event);
    }

    #[test]
    fn geometry_addressing_roundtrip() {
        let g = ChipGeometry::small();
        for i in [0u64, 1, 127, 128, 8191, g.words() - 1] {
            let a = g.addr(i);
            assert!(g.contains(a));
            let back =
                (a.bank as u64 * g.rows as u64 + a.row as u64) * g.cols as u64 + a.col as u64;
            assert_eq!(back, i);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_geometry_write_panics() {
        chip().write(addr(99, 0, 0), 1);
    }

    #[test]
    fn hamming_engine_also_works() {
        let mut c = DramChip::new(ChipGeometry::small(), OnDieCode::Hamming);
        let a = addr(0, 0, 1);
        c.write(a, 0xF00D);
        assert_eq!(c.read(a).value, 0xF00D);
        c.inject_fault(InjectedFault::bit(a, 40, FaultKind::Permanent));
        assert_eq!(c.read(a).value, 0xF00D);
    }
}
