//! XED on top of Single-Chipkill hardware (paper Section IX): a
//! functional model of the 18-x4-chip configuration that reaches
//! **Double-Chipkill-level reliability** by driving the two Reed–Solomon
//! check-symbol chips in *erasure* mode.
//!
//! Each x4 device supplies a 32-bit word per cache-line access, protected
//! internally by a (40,32) CRC8-ATM on-die code
//! ([`xed_ecc::secded::Crc8Atm32`]). Sixteen data chips carry the 64-byte
//! line; two check chips carry RS(18,16) check symbols computed per byte
//! plane over GF(2^8). When a chip's on-die ECC detects or corrects an
//! error, the chip transmits its 32-bit catch-word (Section IX-A notes the
//! narrower catch-word and its faster — but still harmless — collisions).
//! The controller erases the identified chips and lets the two check
//! symbols correct **up to two** chip failures; with no catch-word but a
//! check mismatch (an on-die miss) it falls back to blind single-symbol
//! correction.

use crate::cells::CellArray;
use crate::chip::{ChipGeometry, WordAddr};
use crate::controller::XedStats;
use crate::error::XedError;
use crate::fault::{FaultRegion, InjectedFault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xed_ecc::codeword::CodeWord40;
use xed_ecc::gf::Field;
use xed_ecc::rs::{ReedSolomon, RsScratch};
use xed_ecc::secded::Crc8Atm32;
use xed_telemetry::registry::metrics;

/// Data chips per access.
pub const DATA_CHIPS: usize = 16;
/// Reed–Solomon check-symbol chips.
pub const CHECK_CHIPS: usize = 2;
/// Total x4 devices per access.
pub const TOTAL_CHIPS: usize = DATA_CHIPS + CHECK_CHIPS;
/// Byte planes per 32-bit word.
const PLANES: usize = 4;

/// A functional x4 DRAM device with (40,32) on-die ECC and a DC-Mux.
#[derive(Debug, Clone)]
struct X4Chip {
    code: Crc8Atm32,
    /// Stored codewords, injected faults and heal state (see
    /// [`crate::cells`]).
    cells: CellArray<CodeWord40>,
    xed_enable: bool,
    catch_word: u32,
}

impl X4Chip {
    fn new(geometry: ChipGeometry, catch_word: u32) -> Self {
        let code = Crc8Atm32::new();
        let cells = CellArray::new(geometry, code.encode(0));
        Self {
            code,
            cells,
            xed_enable: true,
            catch_word,
        }
    }

    /// Encodes and stores `data`, healing transient corruption at `addr`.
    /// Panics if `addr` is outside the geometry.
    fn write(&mut self, addr: WordAddr, data: u32) {
        self.cells.write(addr, self.code.encode(data));
    }

    /// DC-Mux read: data, or the catch-word on any on-die event. Panics if
    /// `addr` is outside the geometry.
    fn read(&self, addr: WordAddr) -> u32 {
        use xed_ecc::secded::Decode32;
        let received = self.cells.read(addr);
        match self.code.decode(received) {
            Decode32::Clean { data } => data,
            outcome if self.xed_enable => {
                let _ = outcome;
                self.catch_word
            }
            Decode32::Corrected { data, .. } => data,
            Decode32::Detected => received.data(),
        }
    }
}

/// The corrected payload of one cache-line read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct X4LineReadout {
    /// The sixteen 32-bit data words.
    pub data: [u32; DATA_CHIPS],
    /// Chips whose symbols were repaired, if any (sorted).
    pub corrected_chips: [Option<usize>; 2],
    /// `true` if a catch-word collision was detected and re-keyed.
    pub collision: bool,
}

/// The XED-on-Chipkill memory system: 18 x4 chips + erasure controller.
///
/// ```
/// use xed_core::xed_chipkill::XedChipkillSystem;
/// use xed_core::fault::{InjectedFault, FaultKind};
///
/// let mut sys = XedChipkillSystem::new(7);
/// let line = [0xAB00_0001u32; 16];
/// sys.write_line(0, &line);
/// // TWO whole chips die — beyond ordinary Chipkill, but XED's erasures
/// // reach Double-Chipkill-level correction:
/// sys.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
/// sys.inject_fault(11, InjectedFault::chip(FaultKind::Permanent));
/// assert_eq!(sys.read_line(0).unwrap().data, line);
/// ```
#[derive(Debug)]
pub struct XedChipkillSystem {
    chips: Vec<X4Chip>,
    catch_words: Vec<u32>,
    rs: ReedSolomon,
    /// Reusable Reed–Solomon decoder scratch: the whole read path decodes
    /// all four byte planes with zero heap traffic.
    scratch: RsScratch,
    geometry: ChipGeometry,
    stats: XedStats,
    /// Consumer-side attribution of the telemetry-free RS kernel, published
    /// at drop as `ecc.rs.corrections` and `ecc.rs.erasures`: symbols
    /// repaired blind vs. at caller-declared erasure positions.
    rs_corrections: u64,
    rs_erasures: u64,
    rng: StdRng,
}

impl XedChipkillSystem {
    /// Boots the system: unique random 32-bit catch-words per chip.
    pub fn new(seed: u64) -> Self {
        Self::with_geometry(ChipGeometry::small(), seed)
    }

    /// Boots with an explicit chip geometry.
    pub fn with_geometry(geometry: ChipGeometry, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut catch_words: Vec<u32> = Vec::with_capacity(TOTAL_CHIPS);
        while catch_words.len() < TOTAL_CHIPS {
            let cw = rng.gen();
            if !catch_words.contains(&cw) {
                catch_words.push(cw);
            }
        }
        let chips = catch_words
            .iter()
            .map(|&cw| X4Chip::new(geometry, cw))
            .collect();
        Self {
            chips,
            catch_words,
            rs: ReedSolomon::new(Field::gf256(), TOTAL_CHIPS, DATA_CHIPS),
            scratch: RsScratch::new(),
            geometry,
            stats: XedStats::default(),
            rs_corrections: 0,
            rs_erasures: 0,
            rng,
        }
    }

    /// Controller statistics.
    pub fn stats(&self) -> XedStats {
        self.stats
    }

    /// The chip geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    /// The catch-word programmed into a chip.
    pub fn catch_word(&self, chip: usize) -> u32 {
        self.catch_words[chip]
    }

    /// Injects a fault into chip `chip` (0–15 data, 16–17 check).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 18`.
    pub fn inject_fault(&mut self, chip: usize, fault: InjectedFault) {
        self.chips[chip].inject_fault_checked(fault);
    }

    /// Writes a cache line (sixteen 32-bit words) plus its RS check
    /// symbols.
    pub fn write_line(&mut self, line: u64, data: &[u32; DATA_CHIPS]) {
        let addr = self.geometry.addr(line);
        self.write_line_at(addr, data);
    }

    /// Writes at an explicit address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chip geometry.
    pub fn write_line_at(&mut self, addr: WordAddr, data: &[u32; DATA_CHIPS]) {
        self.stats.writes += 1;
        self.store_line(addr, data);
    }

    fn store_line(&mut self, addr: WordAddr, data: &[u32; DATA_CHIPS]) {
        let mut check_words = [[0u8; PLANES]; CHECK_CHIPS];
        let mut cw = [0u8; TOTAL_CHIPS];
        for p in 0..PLANES {
            let mut symbols = [0u8; DATA_CHIPS];
            for (i, &w) in data.iter().enumerate() {
                symbols[i] = w.to_be_bytes()[p];
            }
            self.rs.encode_into(&symbols, &mut cw);
            for (j, check_word) in check_words.iter_mut().enumerate() {
                check_word[p] = cw[DATA_CHIPS + j];
            }
        }
        for (i, &w) in data.iter().enumerate() {
            self.chips[i].write(addr, w);
        }
        for (j, &word) in check_words.iter().enumerate() {
            self.chips[DATA_CHIPS + j].write(addr, u32::from_be_bytes(word));
        }
    }

    /// Reads a cache line with XED erasure correction.
    ///
    /// # Errors
    ///
    /// Returns [`XedError`] when more than two chips are concurrently
    /// faulty (or a missed error defeats blind correction).
    pub fn read_line(&mut self, line: u64) -> Result<X4LineReadout, XedError> {
        let addr = self.geometry.addr(line);
        self.read_line_at(addr)
    }

    /// Reads at an explicit address.
    ///
    /// # Errors
    ///
    /// Returns [`XedError`] when the corruption exceeds two erasures.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the chip geometry.
    pub fn read_line_at(&mut self, addr: WordAddr) -> Result<X4LineReadout, XedError> {
        self.stats.reads += 1;
        let words = self.bus_read(addr);
        let mut catcher_buf = [0usize; TOTAL_CHIPS];
        let mut ncatch = 0usize;
        for (i, &w) in words.iter().enumerate() {
            if w == self.catch_words[i] {
                catcher_buf[ncatch] = i;
                ncatch += 1;
            }
        }
        let catchers = &catcher_buf[..ncatch];
        self.stats.catch_words_observed += ncatch as u64;

        match ncatch {
            0..=2 => match self.decode_line(addr, &words, catchers) {
                Ok(out) => Ok(out),
                // A chip beyond the erasure set is silently corrupting
                // (an on-die miss): identify it by diagnosis, then retry
                // with the enlarged erasure set (paper Section VI applied
                // to the x4 configuration).
                Err(_) => self.diagnose_and_retry(addr, &words, catchers),
            },
            n => {
                // Serial mode: let on-die ECC correct what it can.
                self.stats.serial_modes += 1;
                for chip in &mut self.chips {
                    chip.xed_enable = false;
                }
                let raw = self.bus_read(addr);
                for chip in &mut self.chips {
                    chip.xed_enable = true;
                }
                match self.decode_line(addr, &raw, &[]) {
                    Ok(out) => Ok(out),
                    Err(_) => match self.diagnose_and_retry(addr, &raw, &[]) {
                        Ok(out) => Ok(out),
                        Err(_) => Err(XedError::MultipleFaultyChips {
                            catch_words: n as u32,
                        }),
                    },
                }
            }
        }
    }

    fn bus_read(&self, addr: WordAddr) -> [u32; TOTAL_CHIPS] {
        let mut words = [0u32; TOTAL_CHIPS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.chips[i].read(addr);
        }
        words
    }

    /// Decodes the four byte-plane RS codewords, treating `erasures` as
    /// known-bad chips, and scrubs the corrected line back.
    fn decode_line(
        &mut self,
        addr: WordAddr,
        words: &[u32; TOTAL_CHIPS],
        erasures: &[usize],
    ) -> Result<X4LineReadout, XedError> {
        let mut corrected_words = *words;
        let mut touched = [false; TOTAL_CHIPS];
        let mut rs_erasure_symbols = 0u64;
        let mut rs_error_symbols = 0u64;
        for p in 0..PLANES {
            let mut symbols = [0u8; TOTAL_CHIPS];
            for (i, &w) in words.iter().enumerate() {
                symbols[i] = w.to_be_bytes()[p];
            }
            match self.rs.decode_with(&symbols, erasures, &mut self.scratch) {
                Ok(decoded) => {
                    for &chip in decoded.corrected {
                        let mut bytes = corrected_words[chip].to_be_bytes();
                        bytes[p] = decoded.codeword[chip];
                        corrected_words[chip] = u32::from_be_bytes(bytes);
                        touched[chip] = true;
                        if erasures.contains(&chip) {
                            rs_erasure_symbols += 1;
                        } else {
                            rs_error_symbols += 1;
                        }
                    }
                }
                Err(_) => {
                    return Err(XedError::DetectedUncorrectable {
                        suspects: erasures.len() as u32,
                    });
                }
            }
        }
        self.rs_corrections += rs_error_symbols;
        self.rs_erasures += rs_erasure_symbols;
        let ntouched = touched.iter().filter(|&&t| t).count();
        if ntouched > 2 {
            return Err(XedError::DetectedUncorrectable {
                suspects: ntouched as u32,
            });
        }

        // Collision check: a reconstructed chip whose value equals its
        // catch-word means the stored data *was* the catch-word; re-key.
        let mut collision = false;
        for &chip in erasures {
            if corrected_words[chip] == self.catch_words[chip] {
                collision = true;
                self.stats.collisions += 1;
                self.rekey(chip);
            }
        }

        let mut data = [0u32; DATA_CHIPS];
        data.copy_from_slice(&corrected_words[..DATA_CHIPS]);
        if ntouched > 0 || !erasures.is_empty() {
            self.stats.reconstructions += 1;
            self.stats.scrub_writes += 1;
            self.store_line(addr, &data);
        }
        // Involved chips = erasures ∪ touched; walking the mask in index
        // order yields them already sorted.
        let mut involved = touched;
        for &e in erasures {
            involved[e] = true;
        }
        let mut chips = involved
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v)
            .map(|(i, _)| i);
        let mut corrected_chips = [None, None];
        for slot in corrected_chips.iter_mut() {
            *slot = chips.next();
        }
        Ok(X4LineReadout {
            data,
            corrected_chips,
            collision,
        })
    }

    /// Inter-Line (row streaming) then Intra-Line (pattern test) diagnosis
    /// when the known erasure set cannot explain a check mismatch, followed
    /// by a retry with the enlarged erasure set (paper Section VI adapted
    /// to the x4 configuration).
    fn diagnose_and_retry(
        &mut self,
        addr: WordAddr,
        words: &[u32; TOTAL_CHIPS],
        catchers: &[usize],
    ) -> Result<X4LineReadout, XedError> {
        // Inter-line: stream the row buffer with XED enabled; a chip with a
        // multi-line fault screams catch-words on its neighbors.
        self.stats.inter_line_runs += 1;
        let cols = self.geometry.cols;
        let threshold = (cols * 10).div_ceil(100).max(1);
        let mut counts = [0u32; TOTAL_CHIPS];
        for col in 0..cols {
            let a = WordAddr { col, ..addr };
            let w = self.bus_read(a);
            for (i, c) in counts.iter_mut().enumerate() {
                if w[i] == self.catch_words[i] {
                    *c += 1;
                }
            }
        }
        let mut suspect_buf = [0usize; TOTAL_CHIPS];
        let mut nsus = catchers.len();
        suspect_buf[..nsus].copy_from_slice(catchers);
        for (i, &c) in counts.iter().enumerate() {
            if c >= threshold && !suspect_buf[..nsus].contains(&i) {
                suspect_buf[nsus] = i;
                nsus += 1;
            }
        }
        suspect_buf[..nsus].sort_unstable();
        if nsus <= CHECK_CHIPS {
            if let Ok(out) = self.decode_line(addr, words, &suspect_buf[..nsus]) {
                return Ok(out);
            }
        }

        // Intra-line: all-zeros / all-ones pattern test finds permanent
        // faults confined to this line.
        self.stats.intra_line_runs += 1;
        let flagged = self.pattern_test(addr, words);
        for (i, &bad) in flagged.iter().enumerate() {
            if bad && !suspect_buf[..nsus].contains(&i) {
                suspect_buf[nsus] = i;
                nsus += 1;
            }
        }
        suspect_buf[..nsus].sort_unstable();
        if nsus <= CHECK_CHIPS {
            if let Ok(out) = self.decode_line(addr, words, &suspect_buf[..nsus]) {
                return Ok(out);
            }
        }
        self.stats.due_events += 1;
        Err(XedError::DetectedUncorrectable {
            suspects: nsus as u32,
        })
    }

    /// Writes all-zeros / all-ones and reads back raw (XED off); chips
    /// whose readback mismatches have permanent broken cells. The original
    /// words are restored verbatim.
    fn pattern_test(
        &mut self,
        addr: WordAddr,
        original: &[u32; TOTAL_CHIPS],
    ) -> [bool; TOTAL_CHIPS] {
        let mut suspect = [false; TOTAL_CHIPS];
        for pattern in [0u32, u32::MAX] {
            for chip in &mut self.chips {
                chip.write(addr, pattern);
                chip.xed_enable = false;
            }
            for (i, flagged) in suspect.iter_mut().enumerate() {
                if self.chips[i].read(addr) != pattern {
                    *flagged = true;
                }
            }
            for chip in &mut self.chips {
                chip.xed_enable = true;
            }
        }
        for (i, &w) in original.iter().enumerate() {
            self.chips[i].write(addr, w);
        }
        suspect
    }

    fn rekey(&mut self, chip: usize) {
        loop {
            let cw: u32 = self.rng.gen();
            if !self.catch_words.contains(&cw) {
                self.catch_words[chip] = cw;
                self.chips[chip].catch_word = cw;
                self.stats.catch_word_updates += 1;
                return;
            }
        }
    }
}

/// Drop is the system's merge point: its totals are published once (the
/// type is not `Clone`), gated on [`xed_telemetry::enabled`].
impl Drop for XedChipkillSystem {
    fn drop(&mut self) {
        self.stats.publish();
        if xed_telemetry::enabled() {
            metrics::ECC_RS_CORRECTIONS.add(self.rs_corrections);
            metrics::ECC_RS_ERASURES.add(self.rs_erasures);
        }
    }
}

impl X4Chip {
    fn inject_fault_checked(&mut self, fault: InjectedFault) {
        if let FaultRegion::Bit { bit, .. } = fault.region {
            assert!(bit < 40, "x4 devices have 40-bit codewords (bit {bit})");
        }
        self.cells.inject(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    const LINE: [u32; 16] = [
        0x0101_0101,
        0x0202_0202,
        0x0303_0303,
        0x0404_0404,
        0x0505_0505,
        0x0606_0606,
        0x0707_0707,
        0x0808_0808,
        0x0909_0909,
        0x0A0A_0A0A,
        0x0B0B_0B0B,
        0x0C0C_0C0C,
        0x0D0D_0D0D,
        0x0E0E_0E0E,
        0x0F0F_0F0F,
        0x1010_1010,
    ];

    fn loaded() -> XedChipkillSystem {
        let mut sys = XedChipkillSystem::new(42);
        for l in 0..8 {
            sys.write_line(l, &LINE);
        }
        sys
    }

    #[test]
    fn clean_roundtrip() {
        let mut sys = loaded();
        let out = sys.read_line(0).unwrap();
        assert_eq!(out.data, LINE);
        assert_eq!(out.corrected_chips, [None, None]);
    }

    #[test]
    fn single_chip_failure_corrected() {
        for chip in [0usize, 7, 15, 16, 17] {
            let mut sys = loaded();
            sys.inject_fault(chip, InjectedFault::chip(FaultKind::Permanent));
            let out = sys.read_line(3).unwrap();
            assert_eq!(out.data, LINE, "chip {chip}");
        }
    }

    #[test]
    fn two_chip_failures_corrected() {
        // The Double-Chipkill-level claim of Section IX.
        let pairs = [(0usize, 9usize), (3, 16), (16, 17), (5, 12)];
        for (a, b) in pairs {
            let mut sys = loaded();
            sys.inject_fault(a, InjectedFault::chip(FaultKind::Permanent));
            sys.inject_fault(b, InjectedFault::chip(FaultKind::Permanent));
            let out = sys.read_line(1).unwrap();
            assert_eq!(out.data, LINE, "chips ({a},{b})");
            assert!(sys.stats().reconstructions >= 1);
        }
    }

    #[test]
    fn three_chip_failures_detected_uncorrectable() {
        let mut sys = loaded();
        for chip in [2usize, 8, 14] {
            sys.inject_fault(chip, InjectedFault::chip(FaultKind::Permanent));
        }
        let err = sys.read_line(0).unwrap_err();
        assert!(
            matches!(
                err,
                XedError::MultipleFaultyChips { .. } | XedError::DetectedUncorrectable { .. }
            ),
            "{err:?}"
        );
        assert!(sys.stats().due_events >= 1);
    }

    #[test]
    fn scaling_bit_faults_in_two_chips_plus_row_failure() {
        // Bit faults are corrected on-die (but signal catch-words); the
        // row failure is one erasure; ≤ 2 erasures total per access.
        let mut sys = loaded();
        let addr = sys.geometry().addr(2);
        sys.inject_fault(4, InjectedFault::bit(addr, 7, FaultKind::Permanent));
        sys.inject_fault(
            9,
            InjectedFault::row(addr.bank, addr.row, FaultKind::Permanent),
        );
        let out = sys.read_line(2).unwrap();
        assert_eq!(out.data, LINE);
    }

    #[test]
    fn transient_faults_healed_by_scrub() {
        let mut sys = loaded();
        let addr = sys.geometry().addr(5);
        sys.inject_fault(6, InjectedFault::word(addr, FaultKind::Transient));
        assert_eq!(sys.read_line(5).unwrap().data, LINE);
        let recon = sys.stats().reconstructions;
        assert_eq!(sys.read_line(5).unwrap().data, LINE);
        assert_eq!(sys.stats().reconstructions, recon, "second read is clean");
    }

    #[test]
    fn collision_on_32bit_catch_word_rekeys() {
        let mut sys = XedChipkillSystem::new(7);
        let mut line = LINE;
        line[3] = sys.catch_word(3);
        sys.write_line(0, &line);
        let out = sys.read_line(0).unwrap();
        assert_eq!(out.data, line);
        assert!(out.collision);
        assert!(sys.stats().catch_word_updates >= 1);
        assert_ne!(sys.catch_word(3), line[3]);
        // And the line still reads fine afterwards.
        assert_eq!(sys.read_line(0).unwrap().data, line);
    }

    #[test]
    fn on_die_miss_single_chip_recovered_blind() {
        // A valid-but-wrong codeword in one chip (the on-die miss): no
        // catch-word, but RS(18,16) blind-corrects one unknown symbol.
        let mut sys = loaded();
        let addr = sys.geometry().addr(4);
        sys.chips[8].write(addr, 0xBAD0_BAD0); // desync: re-encoded wrong data
        let out = sys.read_line(4).unwrap();
        assert_eq!(out.data, LINE);
        assert_eq!(out.corrected_chips[0], Some(8));
    }

    #[test]
    fn two_dead_chips_with_on_die_miss_recovered_by_diagnosis() {
        // Regression (found by proptest): chip faults produce dense random
        // corruption that aliases to a valid codeword at ~1/256 of
        // addresses. With two dead chips, an alias leaves only one
        // catch-word; the controller must diagnose the silent second chip
        // (Inter-Line streaming) and retry with both erased.
        let line: [u32; 16] = [
            3738085988, 343939284, 2766257750, 161660915, 2660809055, 4200930680, 1008387954,
            247567069, 400084481, 3410788242, 1327140031, 406293656, 3068243978, 2084086773,
            4078330029, 1457796438,
        ];
        let mut sys = XedChipkillSystem::new(442058225650391503 % (1 << 32));
        sys.write_line(0, &line);
        sys.inject_fault(10, InjectedFault::chip(FaultKind::Permanent));
        sys.inject_fault(11, InjectedFault::chip(FaultKind::Permanent));
        // Read every line of the row: some will hit the alias path.
        for l in 0..64 {
            sys.write_line(l, &line);
        }
        for l in 0..64 {
            let out = sys.read_line(l).unwrap_or_else(|e| panic!("line {l}: {e}"));
            assert_eq!(out.data, line, "line {l}");
        }
    }

    #[test]
    #[should_panic]
    fn bit_fault_beyond_40_rejected() {
        let mut sys = XedChipkillSystem::new(1);
        let addr = sys.geometry().addr(0);
        sys.inject_fault(0, InjectedFault::bit(addr, 50, FaultKind::Permanent));
    }

    #[test]
    #[should_panic(expected = "out of geometry")]
    fn out_of_geometry_read_panics() {
        let mut sys = loaded();
        let g = sys.geometry();
        let _ = sys.read_line_at(WordAddr {
            bank: 0,
            row: g.rows,
            col: 0,
        });
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let mut sys = loaded();
        let _ = sys.read_line(0);
        assert_eq!(sys.stats().reads, 1);
        assert_eq!(sys.stats().writes, 8);
    }
}
