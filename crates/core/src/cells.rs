//! The cell array shared by the functional chip models: stored on-die
//! codewords, the faults injected over them, and which transient
//! corruption writes have healed.
//!
//! [`DramChip`](crate::chip::DramChip) (x8, 72-bit codewords) and the x4
//! device of [`xed_chipkill`](crate::xed_chipkill) (40-bit codewords) keep
//! only their codec and DC-Mux; everything about *cells* lives here once.
//!
//! * **Paged store.** A word's linear index is
//!   `(bank · rows + row) · cols + col`; codewords sit in fixed pages of
//!   [`PAGE_WORDS`] words keyed by page number. A page is allocated on its
//!   first write (the last page of a geometry is cut to the words that
//!   exist), so memory grows with the pages written and no geometry costs
//!   an up-front allocation. Unwritten words read as the encoded zero.
//! * **Coverage first.** A read walks the faults and asks each whether its
//!   region covers the address before anything else; only a covering
//!   fault consults its heal set.
//! * **Heal sets.** A write records its address in the heal set of every
//!   covering transient fault (the cells are re-charged); permanent
//!   faults keep corrupting.

use crate::chip::{ChipGeometry, WordAddr};
use crate::fault::{FaultKind, InjectedFault};
use std::collections::{BTreeMap, HashSet};
use xed_ecc::secded32::CodeWord40;
use xed_ecc::CodeWord72;

/// Words per page of the store.
const PAGE_WORDS: u64 = 1 << 12;

/// A stored on-die codeword width: the one thing that differs between the
/// x8 and x4 cell arrays is how a fault's pattern lands on the word.
pub(crate) trait CellWord: Copy {
    /// The word with `fault`'s corruption at `addr` XORed in (unchanged
    /// if the fault does not cover `addr`).
    fn corrupted(self, fault: &InjectedFault, addr: WordAddr) -> Self;
}

impl CellWord for CodeWord72 {
    fn corrupted(self, fault: &InjectedFault, addr: WordAddr) -> Self {
        let (dx, cx) = fault.corruption(addr);
        CodeWord72::new(self.data() ^ dx, self.check() ^ cx)
    }
}

impl CellWord for CodeWord40 {
    fn corrupted(self, fault: &InjectedFault, addr: WordAddr) -> Self {
        let (dx, cx) = fault.corruption40(addr);
        CodeWord40::new(self.data() ^ dx, self.check() ^ cx)
    }
}

/// An injected fault and the covered addresses writes have healed since
/// (always empty for a permanent fault).
#[derive(Debug, Clone)]
struct Fault {
    fault: InjectedFault,
    healed: HashSet<WordAddr>,
}

/// One chip's cells: paged codeword store, injected faults, heal state.
#[derive(Debug, Clone)]
pub(crate) struct CellArray<W> {
    geometry: ChipGeometry,
    /// The encoded zero every unwritten word reads as.
    zero: W,
    pages: BTreeMap<u64, Box<[W]>>,
    faults: Vec<Fault>,
}

impl<W: CellWord> CellArray<W> {
    /// An array with nothing written and no faults; `zero` is the
    /// codec's encoding of 0.
    pub(crate) fn new(geometry: ChipGeometry, zero: W) -> Self {
        Self {
            geometry,
            zero,
            pages: BTreeMap::new(),
            faults: Vec::new(),
        }
    }

    /// The geometry the array was built for.
    pub(crate) fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    /// The linear word index of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry (the one geometry check
    /// both chip widths go through).
    fn index(&self, addr: WordAddr) -> u64 {
        let g = self.geometry;
        assert!(g.contains(addr), "address {addr:?} out of geometry");
        (addr.bank as u64 * g.rows as u64 + addr.row as u64) * g.cols as u64 + addr.col as u64
    }

    /// Stores `word` at `addr` and heals `addr` under every covering
    /// transient fault.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub(crate) fn write(&mut self, addr: WordAddr, word: W) {
        let index = self.index(addr);
        let page = index / PAGE_WORDS;
        let (zero, words) = (self.zero, self.geometry.words());
        let cells = self.pages.entry(page).or_insert_with(|| {
            let len = (words - page * PAGE_WORDS).min(PAGE_WORDS);
            vec![zero; len as usize].into_boxed_slice()
        });
        cells[(index % PAGE_WORDS) as usize] = word;
        for f in &mut self.faults {
            if f.fault.kind == FaultKind::Transient && f.fault.region.covers(addr) {
                f.healed.insert(addr);
            }
        }
    }

    /// The stored word at `addr` with every unhealed covering fault's
    /// corruption applied.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub(crate) fn read(&self, addr: WordAddr) -> W {
        let index = self.index(addr);
        let mut word = self
            .pages
            .get(&(index / PAGE_WORDS))
            .map_or(self.zero, |cells| cells[(index % PAGE_WORDS) as usize]);
        for f in &self.faults {
            if f.fault.region.covers(addr) && !f.healed.contains(&addr) {
                word = word.corrupted(&f.fault, addr);
            }
        }
        word
    }

    /// Adds a fault; it corrupts every covered word until (if transient)
    /// a write heals that word.
    pub(crate) fn inject(&mut self, fault: InjectedFault) {
        self.faults.push(Fault {
            fault,
            healed: HashSet::new(),
        });
    }

    /// Removes every injected fault.
    pub(crate) fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Pages allocated so far.
    #[cfg(test)]
    fn pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRegion;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The store this module replaced, kept as the reference model: a
    /// hashed word map, and per fault a hashed heal map consulted for
    /// every fault before asking whether the fault covers the address.
    struct Reference<W> {
        geometry: ChipGeometry,
        zero: W,
        store: HashMap<WordAddr, W>,
        faults: Vec<(InjectedFault, HashMap<WordAddr, bool>)>,
    }

    impl<W: CellWord> Reference<W> {
        fn new(geometry: ChipGeometry, zero: W) -> Self {
            Self {
                geometry,
                zero,
                store: HashMap::new(),
                faults: Vec::new(),
            }
        }

        fn write(&mut self, addr: WordAddr, word: W) {
            assert!(self.geometry.contains(addr));
            self.store.insert(addr, word);
            for (fault, healed) in &mut self.faults {
                if fault.kind == FaultKind::Transient && fault.region.covers(addr) {
                    healed.insert(addr, true);
                }
            }
        }

        fn read(&self, addr: WordAddr) -> W {
            assert!(self.geometry.contains(addr));
            let mut w = *self.store.get(&addr).unwrap_or(&self.zero);
            for (fault, healed) in &self.faults {
                if fault.kind == FaultKind::Transient && healed.get(&addr).copied().unwrap_or(false)
                {
                    continue;
                }
                w = w.corrupted(fault, addr);
            }
            w
        }

        fn inject(&mut self, fault: InjectedFault) {
            self.faults.push((fault, HashMap::new()));
        }
    }

    fn z72() -> CodeWord72 {
        CodeWord72::new(0x0123_4567_89AB_CDEF, 0x5A)
    }

    fn z40() -> CodeWord40 {
        CodeWord40::new(0x89AB_CDEF, 0xA5)
    }

    fn geometry(banks: u32, rows: u32, cols: u32) -> ChipGeometry {
        ChipGeometry { banks, rows, cols }
    }

    fn at(bank: u32, row: u32, col: u32) -> WordAddr {
        WordAddr { bank, row, col }
    }

    /// A random address, drawn from a small neighbourhood (so faults,
    /// writes and reads collide) that still spans several pages.
    fn pick(rng: &mut StdRng, g: ChipGeometry) -> WordAddr {
        let bank = rng.gen_range(0..g.banks.min(3));
        let row = if g.rows > 64 && rng.gen_bool(0.2) {
            g.rows - 1 - rng.gen_range(0..4)
        } else {
            rng.gen_range(0..g.rows.min(40))
        };
        let col = rng.gen_range(0..g.cols);
        at(bank, row, col)
    }

    fn random_fault(rng: &mut StdRng, g: ChipGeometry, bits: u32) -> InjectedFault {
        let a = pick(rng, g);
        let kind = if rng.gen_bool(0.5) {
            FaultKind::Transient
        } else {
            FaultKind::Permanent
        };
        let region = match rng.gen_range(0..6) {
            0 => FaultRegion::Bit {
                addr: a,
                bit: rng.gen_range(0..bits),
            },
            1 => FaultRegion::Word { addr: a },
            2 => FaultRegion::Column {
                bank: a.bank,
                col: a.col,
            },
            3 => FaultRegion::Row {
                bank: a.bank,
                row: a.row,
            },
            4 => FaultRegion::Bank { bank: a.bank },
            _ => FaultRegion::Chip,
        };
        InjectedFault {
            region,
            kind,
            seed: rng.gen(),
        }
    }

    /// Drives the cell array and the reference with one seeded sequence of
    /// writes, reads and injections; every read must agree bit for bit.
    /// Returns the cell array for further checks.
    fn differential<W: CellWord + PartialEq + std::fmt::Debug>(
        g: ChipGeometry,
        zero: W,
        bits: u32,
        make: impl Fn(u64) -> W,
        seed: u64,
    ) -> CellArray<W> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = CellArray::new(g, zero);
        let mut reference = Reference::new(g, zero);
        for step in 0..3000 {
            let a = pick(&mut rng, g);
            match rng.gen_range(0..20) {
                0 => {
                    let f = random_fault(&mut rng, g, bits);
                    cells.inject(f);
                    reference.inject(f);
                }
                1..=7 => {
                    let w = make(rng.gen());
                    cells.write(a, w);
                    reference.write(a, w);
                }
                _ => assert_eq!(
                    cells.read(a),
                    reference.read(a),
                    "seed {seed} step {step} at {a:?}"
                ),
            }
        }
        cells
    }

    /// Both widths through one seeded differential run on `g`.
    fn both_widths(g: ChipGeometry, seed: u64) -> (CellArray<CodeWord72>, CellArray<CodeWord40>) {
        let x8 = differential(g, z72(), 72, |v| CodeWord72::new(v, (v >> 56) as u8), seed);
        let x4 = differential(
            g,
            z40(),
            40,
            |v| CodeWord40::new(v as u32, (v >> 32) as u8),
            seed,
        );
        (x8, x4)
    }

    /// Four seeded differential runs on `g`; returns the last one's arrays.
    fn run_both_widths(g: ChipGeometry) -> (CellArray<CodeWord72>, CellArray<CodeWord40>) {
        for seed in 0..3 {
            both_widths(g, seed);
        }
        both_widths(g, 3)
    }

    #[test]
    fn matches_the_reference_on_the_small_geometry() {
        run_both_widths(ChipGeometry::small());
    }

    #[test]
    fn matches_the_reference_when_words_are_not_a_page_multiple() {
        let g = geometry(3, 5, 7);
        assert_ne!(g.words() % PAGE_WORDS, 0);
        let (x8, x4) = run_both_widths(g);
        assert_eq!(x8.pages(), 1);
        assert_eq!(x4.pages(), 1);
        // The single, partial page holds exactly the geometry's words.
        assert_eq!(x8.pages.values().next().map(|p| p.len()), Some(105));
    }

    #[test]
    fn matches_the_reference_on_the_2gb_layout_and_pages_only_what_is_written() {
        let g = geometry(8, 32768, 128);
        let (x8, x4) = run_both_widths(g);
        for pages in [x8.pages(), x4.pages()] {
            assert!(pages > 1, "writes span several pages");
            // `pick` touches 3 banks × (40 low + 4 high rows): at most
            // one page per 32 rows in each of those regions.
            assert!(pages <= 3 * 3, "{pages} pages allocated");
        }
        let mut cells = CellArray::new(g, z72());
        assert_eq!(cells.pages(), 0, "construction allocates no page");
        assert_eq!(cells.read(at(7, 32767, 127)), z72());
        assert_eq!(cells.pages(), 0, "reads allocate nothing");
        cells.write(at(7, 32767, 127), CodeWord72::new(1, 2));
        cells.write(at(7, 32767, 0), CodeWord72::new(3, 4));
        assert_eq!(cells.pages(), 1);
        cells.write(at(0, 0, 0), CodeWord72::new(5, 6));
        assert_eq!(cells.pages(), 2);
        assert_eq!(cells.read(at(7, 32767, 127)), CodeWord72::new(1, 2));
        assert_eq!(cells.read(at(7, 32767, 0)), CodeWord72::new(3, 4));
        assert_eq!(cells.read(at(0, 0, 0)), CodeWord72::new(5, 6));
    }

    #[test]
    fn transient_row_fault_heals_word_by_word() {
        let g = ChipGeometry::small();
        let mut cells = CellArray::new(g, z72());
        let mut reference = Reference::new(g, z72());
        let f = InjectedFault::row(1, 9, FaultKind::Transient).with_seed(77);
        cells.inject(f);
        reference.inject(f);
        for col in (0..g.cols).step_by(2) {
            cells.write(at(1, 9, col), CodeWord72::new(col as u64, 0));
            reference.write(at(1, 9, col), CodeWord72::new(col as u64, 0));
        }
        for col in 0..g.cols {
            let a = at(1, 9, col);
            let got = cells.read(a);
            assert_eq!(got, reference.read(a));
            if col % 2 == 0 {
                assert_eq!(got, CodeWord72::new(col as u64, 0), "col {col} healed");
            } else {
                assert_ne!(got, z72(), "unwritten col {col} still corrupted");
            }
        }
    }

    #[test]
    fn permanent_fault_survives_a_write() {
        let g = ChipGeometry::small();
        let a = at(2, 3, 4);
        let mut cells = CellArray::new(g, z40());
        let f = InjectedFault::word(a, FaultKind::Permanent).with_seed(5);
        cells.inject(f);
        cells.write(a, CodeWord40::new(9, 9));
        assert_eq!(cells.read(a), CodeWord40::new(9, 9).corrupted(&f, a));
        assert_ne!(cells.read(a), CodeWord40::new(9, 9));
    }

    #[test]
    fn transient_fault_injected_after_a_write_corrupts_until_the_next_write() {
        let g = ChipGeometry::small();
        let a = at(0, 1, 2);
        let mut cells = CellArray::new(g, z72());
        cells.write(a, CodeWord72::new(42, 1));
        let f = InjectedFault::bit(a, 70, FaultKind::Transient);
        cells.inject(f);
        assert_eq!(cells.read(a), CodeWord72::new(42, 1).corrupted(&f, a));
        assert_ne!(cells.read(a), CodeWord72::new(42, 1));
        cells.write(a, CodeWord72::new(43, 1));
        assert_eq!(cells.read(a), CodeWord72::new(43, 1));
    }

    #[test]
    #[should_panic(expected = "out of geometry")]
    fn out_of_geometry_read_panics() {
        CellArray::new(geometry(3, 5, 7), z40()).read(at(0, 5, 0));
    }
}
