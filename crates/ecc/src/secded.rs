//! The SEC-DED codes: one syndrome-table kernel and three column tables.
//!
//! Every on-die and DIMM-level code in the paper is a linear SEC-DED code
//! with 8 check bits, and a linear code is fully described by the columns
//! of its parity-check matrix `H = [A | I₈]` — one 8-bit column per data
//! bit (the check bits' columns are the unit vectors). This module holds
//! one kernel, [`Code`], built at compile time from a code's data columns,
//! and the three column tables the reproduction uses:
//!
//! * **Hamming (72,64)** ([`Hamming7264`]) — the textbook extended Hamming
//!   code, the conventional choice for DIMM-level ECC and the default
//!   assumption for on-die ECC (paper Section II-B). It is *weak against
//!   burst errors*: some aligned multi-bit bursts produce a zero syndrome
//!   and escape detection (Table II).
//! * **CRC8-ATM (72,64)** ([`Crc8Atm`]) — the paper's recommended on-die
//!   code (Section V-E), `g(x) = x^8 + x^2 + x + 1`, the ATM HEC
//!   polynomial from ITU-T I.432.1. It matches Hamming's SECDED guarantees
//!   and detects **100% of burst errors up to 8 bits long**: a burst of
//!   length ≤ 8 leaves a nonzero remainder modulo a degree-8 polynomial.
//! * **CRC8-ATM (40,32)** ([`Crc8Atm32`]) — the same polynomial over the
//!   32-bit word of an x4 device (Section IX), the regime the ATM HEC
//!   literature used (single-bit correction over a 40-bit header).
//!
//! All three share one physical bit order ([`CodeWord72`], [`CodeWord40`]):
//! data bit `K−1−j` sits at physical `j`, and check-byte bit `b` at
//! physical `K+7−b`, for `K` data bits. The kernel computes the syndrome
//! as eight AND + popcount dot products against the rows of `A`, and
//! decodes with one 256-entry syndrome → position table. A `static`
//! initializer proves each table SEC-DED, so a corrupted column fails
//! `cargo build`. The bit-serial originals live in [`crate::reference`].

use crate::bits::parity64;
use crate::codeword::{CodeWord40, CodeWord72};

/// Beats (72-bit codewords) per 64-byte cache line: 8 × 64 data bits.
pub const BEATS_PER_LINE: usize = 8;

/// Outcome of decoding one cache line (8 beats) in a single batched call.
///
/// Per-beat outcomes are folded into two bitmasks so the common all-clean
/// case is a pair of zero checks, with no per-beat allocation or enum
/// matching for the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineOutcome {
    /// Decoded data words, one per beat. Beats flagged in `bad_beats` hold
    /// the *received* (uncorrectable) data and must not be consumed.
    pub data: [u64; BEATS_PER_LINE],
    /// Bitmask of beats that had a single-bit error corrected.
    pub corrected_beats: u8,
    /// Bitmask of beats with a detected-uncorrectable error.
    pub bad_beats: u8,
}

impl LineOutcome {
    /// `true` when any beat was uncorrectable (the line is a DUE).
    pub fn is_due(self) -> bool {
        self.bad_beats != 0
    }

    /// Number of corrected beats.
    pub fn corrected_count(self) -> u32 {
        self.corrected_beats.count_ones()
    }

    /// `true` when every beat decoded clean (no correction, no detection).
    pub fn is_clean(self) -> bool {
        self.corrected_beats == 0 && self.bad_beats == 0
    }
}

/// Result of decoding a (possibly corrupted) 72-bit codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// The codeword was valid; the stored data is returned unchanged.
    Clean {
        /// Decoded data word.
        data: u64,
    },
    /// A single-bit error was detected and corrected.
    Corrected {
        /// Corrected data word.
        data: u64,
        /// Physical bit position (0–71) that was corrected.
        bit: u32,
    },
    /// An error was detected that the code cannot correct
    /// (e.g. a double-bit error).
    Detected,
}

impl DecodeOutcome {
    /// The decoded data if the decoder produced any (`Clean` or `Corrected`).
    pub fn data(self) -> Option<u64> {
        match self {
            DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. } => Some(data),
            DecodeOutcome::Detected => None,
        }
    }

    /// `true` for every outcome other than [`DecodeOutcome::Clean`].
    ///
    /// This is exactly the condition on which a XED-enabled chip transmits a
    /// catch-word (paper Section V-B: the DC-Mux selects the catch-word when
    /// the on-die ECC *detects or corrects* an error).
    pub fn is_event(self) -> bool {
        !matches!(self, DecodeOutcome::Clean { .. })
    }
}

/// A (72,64) single-error-correct double-error-detect code.
///
/// Implemented by the kernel [`Code<64>`] and its two named tables,
/// [`Hamming7264`] (the conventional choice) and [`Crc8Atm`] (the paper's
/// recommendation for on-die ECC), and by the bit-serial oracles in
/// [`crate::reference`].
///
/// Invariants every implementation upholds (enforced by the shared test
/// suite in this crate):
///
/// * `decode(encode(d)) == Clean { data: d }` for all `d`;
/// * flipping any single bit of a valid codeword decodes to
///   `Corrected { data: d, bit }` with the flipped position;
/// * flipping any two bits decodes to `Detected` (never a mis-correction).
pub trait SecDed {
    /// Encodes a 64-bit data word into a 72-bit codeword.
    fn encode(&self, data: u64) -> CodeWord72;

    /// Decodes a received codeword, correcting a single-bit error if present.
    fn decode(&self, received: CodeWord72) -> DecodeOutcome;

    /// `true` if `received` is a valid codeword (zero syndrome).
    ///
    /// The default implementation re-encodes the decoded data; codecs
    /// override it with a cheaper syndrome check.
    fn is_valid(&self, received: CodeWord72) -> bool {
        matches!(self.decode(received), DecodeOutcome::Clean { .. })
    }

    /// `true` if the decoder reports *any* non-clean event for `received`.
    ///
    /// This models the signal the XED DC-Mux taps: detection **or**
    /// correction by the on-die ECC triggers catch-word transmission.
    fn detects_event(&self, received: CodeWord72) -> bool {
        self.decode(received).is_event()
    }

    /// Encodes a whole cache line (8 data words) into 8 codewords.
    fn encode_line(&self, data: &[u64; BEATS_PER_LINE]) -> [CodeWord72; BEATS_PER_LINE] {
        let mut out = [CodeWord72::default(); BEATS_PER_LINE];
        for (w, &d) in out.iter_mut().zip(data) {
            *w = self.encode(d);
        }
        out
    }

    /// Decodes a whole cache line (8 received beats) in one batched call,
    /// folding per-beat outcomes into [`LineOutcome`] bitmasks. This is the
    /// API the memory-controller models consume on their access path.
    fn decode_line(&self, beats: &[CodeWord72; BEATS_PER_LINE]) -> LineOutcome {
        let mut out = LineOutcome {
            data: [0u64; BEATS_PER_LINE],
            corrected_beats: 0,
            bad_beats: 0,
        };
        for (i, &w) in beats.iter().enumerate() {
            // indexing: i enumerates the BEATS_PER_LINE input beats and
            // out.data has exactly BEATS_PER_LINE slots.
            let d = &mut out.data[i];
            match self.decode(w) {
                DecodeOutcome::Clean { data } => *d = data,
                DecodeOutcome::Corrected { data, .. } => {
                    *d = data;
                    out.corrected_beats |= 1 << i;
                }
                DecodeOutcome::Detected => {
                    *d = w.data();
                    out.bad_beats |= 1 << i;
                }
            }
        }
        out
    }
}

/// A linear SEC-DED code over `K` data bits and 8 check bits, held as two
/// tables: the data rows of `A` in `H = [A | I₈]`, and the inverse of its
/// column map.
///
/// The three instances are [`HAMMING`], [`CRC8_ATM`] and the (40,32) table
/// behind [`Crc8Atm32`]. Each is a `static` built by `Code::new`, which
/// proves the code SEC-DED while the initializer is evaluated.
#[derive(Debug)]
pub struct Code<const K: usize> {
    /// `rows[b]` has data bit `i` set iff the column of data bit `i` has
    /// bit `b` set: check bit `b` is `parity(data & rows[b])`.
    rows: [u64; 8],
    /// `pos[s]` is the physical bit whose single-bit error has syndrome
    /// `s`, or −1 when no single-bit error does.
    pos: [i8; 256],
}

impl<const K: usize> Code<K> {
    /// Builds the tables from the columns of the `K` data bits
    /// (`data_columns[i]` for data bit `i`) and proves the code SEC-DED.
    /// Any failed proof is a compile error in a `static` initializer.
    const fn new(data_columns: [u8; K]) -> Self {
        assert!(K <= 64, "data width out of range");
        let mut rows = [0u64; 8];
        let mut i = 0;
        while i < K {
            let mut b = 0;
            while b < 8 {
                if (data_columns[i] >> b) & 1 == 1 {
                    rows[b] |= 1u64 << i;
                }
                b += 1;
            }
            i += 1;
        }
        let mut pos = [-1i8; 256];
        let mut j = 0;
        while j < K + 8 {
            pos[physical_column(&data_columns, j) as usize] = j as i8;
            j += 1;
        }
        let code = Self { rows, pos };
        code.prove(&data_columns);
        code
    }

    /// The compile-time SEC-DED proof over the `K + 8` physical columns:
    ///
    /// * every column is nonzero and the columns are pairwise distinct, so
    ///   every single-bit error has its own nonzero syndrome (distance ≥ 3);
    /// * no XOR of two columns is itself a column, so a double-bit error
    ///   never aliases a single-bit one and is always Detected (distance
    ///   ≥ 4);
    /// * `pos` inverts the column map and holds nothing else, so the
    ///   decoder corrects exactly the single-bit errors;
    /// * the mask rows reproduce every data column, so the runtime
    ///   syndrome is `H` times the received word (both sides are GF(2)
    ///   linear, so agreement on the basis vectors is agreement
    ///   everywhere).
    const fn prove(&self, data_columns: &[u8; K]) {
        let n = K + 8;
        let mut j = 0;
        while j < n {
            let cj = physical_column(data_columns, j);
            assert!(cj != 0, "SEC-DED proof: a column is zero");
            let mut i = 0;
            while i < j {
                let x = physical_column(data_columns, i) ^ cj;
                assert!(
                    x != 0,
                    "SEC-DED proof: two columns are equal (distance < 3)"
                );
                assert!(
                    self.pos[x as usize] == -1,
                    "SEC-DED proof: two columns XOR to a third (distance < 4)"
                );
                i += 1;
            }
            j += 1;
        }
        let mut entries = 0;
        let mut s = 0;
        while s < 256 {
            let p = self.pos[s];
            if p >= 0 {
                assert!(
                    (p as usize) < n && physical_column(data_columns, p as usize) as usize == s,
                    "SEC-DED proof: pos does not invert the column map"
                );
                entries += 1;
            }
            s += 1;
        }
        assert!(entries == n, "SEC-DED proof: pos misses a column");
        let mut i = 0;
        while i < K {
            let mut col = 0u8;
            let mut b = 0;
            while b < 8 {
                col |= (((self.rows[b] >> i) & 1) as u8) << b;
                b += 1;
            }
            assert!(
                col == data_columns[i],
                "SEC-DED proof: a mask row disagrees with a column"
            );
            i += 1;
        }
    }

    /// The 8-bit syndrome of a received word: `check ^ A·data`. Zero ⟺
    /// valid codeword; `syndrome(data, 0)` is the check byte of `data`.
    #[inline]
    fn syndrome(&self, data: u64, check: u8) -> u8 {
        let mut s = check;
        for (b, &row) in self.rows.iter().enumerate() {
            s ^= parity64(data & row) << b;
        }
        s
    }

    /// The one decoder: a zero syndrome is Clean, a single-bit syndrome
    /// flips its physical bit, anything else is Detected.
    #[inline]
    fn decode_parts(&self, data: u64, check: u8) -> DecodeOutcome {
        let s = self.syndrome(data, check);
        if s == 0 {
            return DecodeOutcome::Clean { data };
        }
        // indexing: a u8 syndrome into a 256-entry table.
        match self.pos[s as usize] {
            -1 => DecodeOutcome::Detected,
            p => {
                let bit = p as u32;
                // Physical bit j < K is data bit K−1−j; a check-bit error
                // leaves the data as received.
                let flip = if (bit as usize) < K {
                    1u64 << (K - 1 - bit as usize)
                } else {
                    0
                };
                DecodeOutcome::Corrected {
                    data: data ^ flip,
                    bit,
                }
            }
        }
    }
}

/// The column of physical bit `j` of a `K + 8`-bit codeword: data bit
/// `K−1−j` for `j < K`, check-byte bit `K+7−j` (a unit column) above.
const fn physical_column<const K: usize>(data_columns: &[u8; K], j: usize) -> u8 {
    if j < K {
        data_columns[K - 1 - j]
    } else {
        1u8 << (K + 7 - j)
    }
}

impl SecDed for Code<64> {
    #[inline]
    fn encode(&self, data: u64) -> CodeWord72 {
        CodeWord72::new(data, self.syndrome(data, 0))
    }

    #[inline]
    fn decode(&self, received: CodeWord72) -> DecodeOutcome {
        self.decode_parts(received.data(), received.check())
    }

    #[inline]
    fn is_valid(&self, received: CodeWord72) -> bool {
        self.syndrome(received.data(), received.check()) == 0
    }
}

// ---------------------------------------------------------------------------
// Hamming (72,64): the textbook extended Hamming construction. Positions
// 1..=71 of the inner (71,64) code; the power-of-two positions hold the
// seven Hamming check bits and the other 64 hold the data bits in
// ascending order; an overall-parity bit extends the distance to 4.
// ---------------------------------------------------------------------------

/// Number of Hamming positions (1..=71) in the inner (71,64) code.
const POSITIONS: usize = 71;

/// `(data_pos, pos_to_databit)`: `data_pos[i]` is the Hamming position
/// (1..=71) of data bit `i`, and `pos_to_databit` inverts it (−1 for
/// check-bit positions).
const POSITION_TABLES: ([u8; 64], [i8; POSITIONS + 1]) = build_position_tables();

const fn build_position_tables() -> ([u8; 64], [i8; POSITIONS + 1]) {
    let mut data_pos = [0u8; 64];
    let mut pos_to_databit = [-1i8; POSITIONS + 1];
    let mut di = 0usize;
    let mut p = 1usize;
    while p <= POSITIONS {
        if !p.is_power_of_two() {
            data_pos[di] = p as u8;
            pos_to_databit[p] = di as i8;
            di += 1;
        }
        p += 1;
    }
    assert!(
        di == 64,
        "expected exactly 64 non-power-of-two positions in 1..=71"
    );
    (data_pos, pos_to_databit)
}

pub(crate) const DATA_POS: [u8; 64] = POSITION_TABLES.0;
pub(crate) const POS_TO_DATABIT: [i8; POSITIONS + 1] = POSITION_TABLES.1;

/// The Hamming columns in systematic form: the low 7 bits are the data
/// bit's Hamming position `p`, and bit 7 (the overall-parity check) is set
/// when `p` has even weight, so that every column has odd weight. The
/// decoder's `(syndrome, overall parity)` pair maps one-to-one onto this
/// 8-bit syndrome.
const fn hamming_columns() -> [u8; 64] {
    let mut cols = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        let p = DATA_POS[i];
        cols[i] = p | (((!p.count_ones() & 1) as u8) << 7);
        i += 1;
    }
    cols
}

/// The (72,64) extended Hamming code.
pub static HAMMING: Code<64> = Code::new(hamming_columns());

// ---------------------------------------------------------------------------
// CRC8-ATM: check byte = CRC of the data word (zero init, MSB first).
// ---------------------------------------------------------------------------

/// The CRC8-ATM generator polynomial x^8 + x^2 + x + 1 (low 8 bits).
pub const POLY: u8 = 0x07;

/// The CRC8-ATM columns over `K` data bits: the column of data bit `i` is
/// the CRC of that unit word, `x^(i+8) mod g(x)`.
const fn crc8_columns<const K: usize>() -> [u8; K] {
    let mut cols = [0u8; K];
    let mut r = POLY; // x^8 mod g(x)
    let mut i = 0;
    while i < K {
        cols[i] = r;
        r = if r & 0x80 != 0 {
            (r << 1) ^ POLY
        } else {
            r << 1
        };
        i += 1;
    }
    cols
}

/// The (72,64) CRC8-ATM code.
pub static CRC8_ATM: Code<64> = Code::new(crc8_columns::<64>());

/// The (40,32) CRC8-ATM code of x4 devices.
static CRC8_ATM_32: Code<32> = Code::new(crc8_columns::<32>());

/// The (72,64) extended Hamming SECDED codec ([`HAMMING`]).
///
/// ```
/// use xed_ecc::{Hamming7264, SecDed, DecodeOutcome};
///
/// let code = Hamming7264::new();
/// let w = code.encode(123456789);
/// assert_eq!(code.decode(w), DecodeOutcome::Clean { data: 123456789 });
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Hamming7264;

impl Hamming7264 {
    /// The codec. Its table is a `static` proved SEC-DED at compile time.
    pub fn new() -> Self {
        Self
    }
}

impl SecDed for Hamming7264 {
    #[inline]
    fn encode(&self, data: u64) -> CodeWord72 {
        HAMMING.encode(data)
    }

    #[inline]
    fn decode(&self, received: CodeWord72) -> DecodeOutcome {
        HAMMING.decode(received)
    }

    #[inline]
    fn is_valid(&self, received: CodeWord72) -> bool {
        HAMMING.is_valid(received)
    }
}

/// The (72,64) CRC8-ATM SECDED codec ([`CRC8_ATM`]).
///
/// Encoding appends `crc8(data)` as the check byte; decoding uses a
/// 256-entry syndrome→position table (exactly the single-cycle table-lookup
/// implementation the paper cites from the ATM literature).
///
/// ```
/// use xed_ecc::{Crc8Atm, SecDed, DecodeOutcome};
///
/// let code = Crc8Atm::new();
/// let w = code.encode(0xFEED_FACE_CAFE_BABE);
/// let r = w.with_bit_flipped(70); // corrupt a check bit
/// assert!(matches!(code.decode(r), DecodeOutcome::Corrected { bit: 70, .. }));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc8Atm;

impl Crc8Atm {
    /// The codec. Its table is a `static` proved SEC-DED at compile time.
    pub fn new() -> Self {
        Self
    }

    /// CRC8-ATM of a 64-bit data word (big-endian byte order, standard
    /// MSB-first bit order): the check byte of its codeword.
    pub fn crc8(&self, data: u64) -> u8 {
        CRC8_ATM.syndrome(data, 0)
    }
}

impl SecDed for Crc8Atm {
    #[inline]
    fn encode(&self, data: u64) -> CodeWord72 {
        CRC8_ATM.encode(data)
    }

    #[inline]
    fn decode(&self, received: CodeWord72) -> DecodeOutcome {
        CRC8_ATM.decode(received)
    }

    #[inline]
    fn is_valid(&self, received: CodeWord72) -> bool {
        CRC8_ATM.is_valid(received)
    }
}

/// Decode outcome for the 32-bit code (mirrors [`DecodeOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decode32 {
    /// Valid codeword.
    Clean {
        /// Decoded data.
        data: u32,
    },
    /// Single-bit error corrected.
    Corrected {
        /// Corrected data.
        data: u32,
        /// Physical bit position (0–39).
        bit: u32,
    },
    /// Uncorrectable error detected.
    Detected,
}

impl Decode32 {
    /// `true` for any non-clean outcome (the catch-word trigger).
    pub fn is_event(self) -> bool {
        !matches!(self, Decode32::Clean { .. })
    }
}

/// The (40,32) CRC8-ATM SECDED codec for x4 devices.
///
/// ```
/// use xed_ecc::secded::{Crc8Atm32, Decode32};
///
/// let code = Crc8Atm32::new();
/// let w = code.encode(0xCAFE_F00D);
/// assert_eq!(code.decode(w), Decode32::Clean { data: 0xCAFE_F00D });
/// let rx = w.with_bit_flipped(7);
/// assert!(matches!(code.decode(rx), Decode32::Corrected { data: 0xCAFE_F00D, bit: 7 }));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc8Atm32;

impl Crc8Atm32 {
    /// The codec. Its table is a `static` proved SEC-DED at compile time.
    pub fn new() -> Self {
        Self
    }

    /// CRC8-ATM of a 32-bit word.
    pub fn crc8(&self, data: u32) -> u8 {
        CRC8_ATM_32.syndrome(u64::from(data), 0)
    }

    /// Encodes 32 data bits into a 40-bit codeword.
    #[inline]
    pub fn encode(&self, data: u32) -> CodeWord40 {
        CodeWord40::new(data, self.crc8(data))
    }

    /// `true` if the received word is a valid codeword.
    #[inline]
    pub fn is_valid(&self, received: CodeWord40) -> bool {
        CRC8_ATM_32.syndrome(u64::from(received.data()), received.check()) == 0
    }

    /// Decodes, correcting a single-bit error if present.
    #[inline]
    pub fn decode(&self, received: CodeWord40) -> Decode32 {
        // The 32-bit kernel never sets a data bit above bit 31, so the
        // narrowing casts are exact.
        match CRC8_ATM_32.decode_parts(u64::from(received.data()), received.check()) {
            DecodeOutcome::Clean { data } => Decode32::Clean { data: data as u32 },
            DecodeOutcome::Corrected { data, bit } => Decode32::Corrected {
                data: data as u32,
                bit,
            },
            DecodeOutcome::Detected => Decode32::Detected,
        }
    }
}

/// Shared conformance checks used by the unit tests of the (72,64) codecs
/// and their reference oracles.
#[cfg(test)]
pub(crate) mod conformance {
    use super::*;

    pub(crate) const SAMPLE_DATA: &[u64] = &[
        0,
        u64::MAX,
        1,
        0x8000_0000_0000_0000,
        0xDEAD_BEEF_0BAD_F00D,
        0x0123_4567_89AB_CDEF,
        0x5555_5555_5555_5555,
        0xAAAA_AAAA_AAAA_AAAA,
        42,
        0xFFFF_0000_FFFF_0000,
    ];

    pub(crate) fn roundtrip<C: SecDed>(code: &C) {
        for &d in SAMPLE_DATA {
            let w = code.encode(d);
            assert_eq!(code.decode(w), DecodeOutcome::Clean { data: d });
            assert!(code.is_valid(w));
            assert!(!code.detects_event(w));
        }
    }

    pub(crate) fn corrects_all_single_bit_errors<C: SecDed>(code: &C) {
        for &d in SAMPLE_DATA {
            let w = code.encode(d);
            for i in 0..72 {
                let r = w.with_bit_flipped(i);
                match code.decode(r) {
                    DecodeOutcome::Corrected { data, bit } => {
                        assert_eq!(data, d, "data mismatch for flipped bit {i}");
                        assert_eq!(bit, i, "wrong bit located for flipped bit {i}");
                    }
                    other => panic!("bit {i}: expected Corrected, got {other:?}"),
                }
                assert!(code.detects_event(r));
            }
        }
    }

    pub(crate) fn detects_all_double_bit_errors<C: SecDed>(code: &C) {
        // Exhaustive over all C(72,2) = 2556 pairs for a handful of words.
        for &d in &SAMPLE_DATA[..4] {
            let w = code.encode(d);
            for i in 0..72u32 {
                for j in (i + 1)..72 {
                    let r = w.with_bit_flipped(i).with_bit_flipped(j);
                    assert_eq!(
                        code.decode(r),
                        DecodeOutcome::Detected,
                        "double error ({i},{j}) not flagged Detected"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_data_accessor() {
        assert_eq!(DecodeOutcome::Clean { data: 7 }.data(), Some(7));
        assert_eq!(DecodeOutcome::Corrected { data: 9, bit: 3 }.data(), Some(9));
        assert_eq!(DecodeOutcome::Detected.data(), None);
    }

    #[test]
    fn outcome_is_event() {
        assert!(!DecodeOutcome::Clean { data: 0 }.is_event());
        assert!(DecodeOutcome::Corrected { data: 0, bit: 0 }.is_event());
        assert!(DecodeOutcome::Detected.is_event());
        assert!(!Decode32::Clean { data: 0 }.is_event());
        assert!(Decode32::Corrected { data: 0, bit: 1 }.is_event());
        assert!(Decode32::Detected.is_event());
    }

    #[test]
    fn line_roundtrip_and_masks() {
        let code = Crc8Atm::new();
        let data: [u64; BEATS_PER_LINE] = [0, u64::MAX, 1, 2, 3, 0xDEAD_BEEF, 42, 7];
        let mut beats = code.encode_line(&data);
        let clean = code.decode_line(&beats);
        assert!(clean.is_clean());
        assert!(!clean.is_due());
        assert_eq!(clean.data, data);

        // One corrected beat, one DUE beat.
        beats[2] = beats[2].with_bit_flipped(17);
        beats[5] = beats[5].with_bit_flipped(0).with_bit_flipped(1);
        let out = code.decode_line(&beats);
        assert_eq!(out.corrected_beats, 1 << 2);
        assert_eq!(out.bad_beats, 1 << 5);
        assert_eq!(out.corrected_count(), 1);
        assert!(out.is_due());
        assert_eq!(out.data[2], data[2]);
        for i in [0usize, 1, 3, 4, 6, 7] {
            assert_eq!(out.data[i], data[i]);
        }
    }

    #[test]
    fn every_code_corrects_singles_and_detects_doubles() {
        fn conforms<C: SecDed>(code: &C) {
            conformance::roundtrip(code);
            conformance::corrects_all_single_bit_errors(code);
            conformance::detects_all_double_bit_errors(code);
        }
        conforms(&Hamming7264::new());
        conforms(&Crc8Atm::new());
        // The (40,32) code through its own API: round trip, every single
        // flip corrected to its position, every double flip detected.
        let c = Crc8Atm32::new();
        for d in [0u32, 1, u32::MAX, 0xDEAD_BEEF, 0x8000_0001, 0x1234_5678] {
            let w = c.encode(d);
            assert_eq!(c.decode(w), Decode32::Clean { data: d });
            assert!(c.is_valid(w));
            for i in 0..40 {
                match c.decode(w.with_bit_flipped(i)) {
                    Decode32::Corrected { data, bit } => {
                        assert_eq!(data, d);
                        assert_eq!(bit, i);
                    }
                    other => panic!("bit {i}: {other:?}"),
                }
            }
        }
        let w = c.encode(0xA5A5_5A5A);
        for i in 0..40u32 {
            for j in (i + 1)..40 {
                assert_eq!(
                    c.decode(w.with_bit_flipped(i).with_bit_flipped(j)),
                    Decode32::Detected,
                    "pair ({i},{j})"
                );
            }
        }
    }

    /// The syndrome of every single-bit error pattern is its column, and
    /// `pos` maps it back to the flipped physical bit.
    fn pos_inverts_single_bit_syndromes<const K: usize>(code: &Code<K>) {
        for j in 0..K + 8 {
            let (data, check) = if j < K {
                (1u64 << (K - 1 - j), 0u8)
            } else {
                (0, 1u8 << (K + 7 - j))
            };
            let s = code.syndrome(data, check);
            assert_eq!(code.pos[s as usize], j as i8, "K = {K}, bit {j}");
        }
        let entries = code.pos.iter().filter(|&&p| p >= 0).count();
        assert_eq!(entries, K + 8);
    }

    #[test]
    fn syndrome_table_inverts_every_single_bit_syndrome() {
        pos_inverts_single_bit_syndromes(&HAMMING);
        pos_inverts_single_bit_syndromes(&CRC8_ATM);
        pos_inverts_single_bit_syndromes(&CRC8_ATM_32);
    }

    /// The mask syndrome equals `check_of(data) ^ check` for arbitrary
    /// (mostly invalid) received words, and the check byte is linear.
    fn syndrome_is_linear<const K: usize>(code: &Code<K>) {
        let mask = u64::MAX >> (64 - K);
        assert_eq!(code.syndrome(0, 0), 0, "the zero word has a zero check");
        let words = [
            (0u64, 0u8),
            (u64::MAX, 0xFF),
            (0xDEAD_BEEF_0BAD_F00D, 0x5A),
            (0xDEAD_BEEF, 0x5A),
            (0x0123_4567_89AB_CDEF, 0x81),
            (1 << 63, 1),
            (0x8000_0001, 1),
        ];
        for (d, ch) in words {
            let d = d & mask;
            assert_eq!(code.syndrome(d, ch), code.syndrome(d, 0) ^ ch);
        }
        let pairs = [(0x1234u64, 0x9876u64), (u64::MAX, 0x0F0F), (1 << 63, 1)];
        for (a, b) in pairs {
            let (a, b) = (a & mask, b & mask);
            assert_eq!(
                code.syndrome(a ^ b, 0),
                code.syndrome(a, 0) ^ code.syndrome(b, 0)
            );
        }
    }

    #[test]
    fn every_syndrome_is_linear_in_the_received_word() {
        syndrome_is_linear(&HAMMING);
        syndrome_is_linear(&CRC8_ATM);
        syndrome_is_linear(&CRC8_ATM_32);
    }

    #[test]
    fn crc8_matches_a_bitwise_crc_at_both_widths() {
        // Cross-check the column-table CRC against a bit-at-a-time LFSR.
        fn crc_bitwise(bytes: &[u8]) -> u8 {
            let mut crc = 0u8;
            for &byte in bytes {
                crc ^= byte;
                for _ in 0..8 {
                    crc = if crc & 0x80 != 0 {
                        (crc << 1) ^ POLY
                    } else {
                        crc << 1
                    };
                }
            }
            crc
        }
        let (c64, c32) = (Crc8Atm::new(), Crc8Atm32::new());
        for d in [0u64, 1, u64::MAX, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            assert_eq!(c64.crc8(d), crc_bitwise(&d.to_be_bytes()));
        }
        for d in [0u32, 5, 0xFFFF_FFFF, 0x0BAD_F00D] {
            assert_eq!(c32.crc8(d), crc_bitwise(&d.to_be_bytes()));
            // Leading zero bytes keep the CRC state at zero, so the 32-bit
            // CRC equals the 64-bit one of the zero-extended word.
            assert_eq!(c32.crc8(d), c64.crc8(u64::from(d)));
        }
    }

    #[test]
    fn crc_codes_detect_every_burst_up_to_8() {
        // The paper's Table II claim: 100% detection of bursts of length
        // 1..=8, at both widths. Exhaustive over all start positions and
        // all interior patterns of the burst (endpoints fixed to 1).
        fn bursts(bits: u32) -> impl Iterator<Item = (u32, u32, Vec<u32>)> {
            (1..=8u32).flat_map(move |len| {
                let interior = len.saturating_sub(2);
                (0..=(bits - len)).flat_map(move |start| {
                    (0..(1u32 << interior)).map(move |pat| {
                        let mut flips = vec![start];
                        if len > 1 {
                            flips.push(start + len - 1);
                        }
                        flips.extend(
                            (0..interior)
                                .filter(|k| (pat >> k) & 1 == 1)
                                .map(|k| start + 1 + k),
                        );
                        (len, start, flips)
                    })
                })
            })
        }
        let c64 = Crc8Atm::new();
        let w = c64.encode(0xABCD_EF01_2345_6789);
        for (len, start, flips) in bursts(72) {
            let r = flips.iter().fold(w, |acc, &i| acc.with_bit_flipped(i));
            assert!(
                !c64.is_valid(r),
                "72-bit burst len {len} at {start} undetected"
            );
        }
        let c32 = Crc8Atm32::new();
        let w = c32.encode(0x0F0F_F0F0);
        for (len, start, flips) in bursts(40) {
            let r = flips.iter().fold(w, |acc, &i| acc.with_bit_flipped(i));
            assert!(
                !c32.is_valid(r),
                "40-bit burst len {len} at {start} undetected"
            );
        }
    }

    #[test]
    fn some_aligned_hamming_burst4_is_undetected() {
        // The motivating weakness from Table II: there exists a 4-bit
        // physically contiguous burst whose error pattern is a codeword.
        let code = Hamming7264::new();
        let w = code.encode(0);
        let found = (0..=(72 - 4)).any(|start| {
            let r = (0..4).fold(w, |acc, k| acc.with_bit_flipped(start + k));
            code.is_valid(r) && r != w
        });
        assert!(found, "expected at least one undetected burst-4 pattern");
    }

    #[test]
    fn hamming_check_bits_differ_across_data() {
        let code = Hamming7264::new();
        assert_eq!(code.encode(0).check(), 0);
        // Not a guarantee in general, but these particular words differ.
        assert_ne!(code.encode(1).check(), code.encode(2).check());
    }
}
