//! Pre-optimization reference implementations of the ECC kernels.
//!
//! The word-parallel kernels in [`crate::secded`] and [`crate::rs`] replaced the seed's bit-serial /
//! `Vec`-allocating implementations. Those originals live here, verbatim,
//! for two reasons:
//!
//! 1. **Differential testing.** The equivalence suite
//!    (`tests/ecc_kernel_equivalence.rs`) proves the optimized kernels
//!    bit-identical to these references — exhaustively over all single- and
//!    double-bit errors of the 72/40-bit codes, and under seeded
//!    random/burst/errata sweeps for the Reed–Solomon decoder.
//! 2. **Convenience API.** The `Vec`-returning Reed–Solomon
//!    [`ReedSolomon::encode`]/[`ReedSolomon::decode`]/
//!    [`ReedSolomon::syndromes`] entry points are defined here and remain
//!    available for callers that prefer owned results over scratch reuse
//!    (tests, tools, one-shot decodes).
//!
//! Nothing in this module is on the simulation hot path; the `xed-analyze`
//! XL009 rule keeps heap allocation out of the designated hot modules of
//! this crate, and this module is the designated home for everything the
//! rule banishes.

use crate::codeword::{CodeWord40, CodeWord72};
use crate::gf::Field;
use crate::rs::{Decoded, ReedSolomon, RsError};
use crate::secded::{Decode32, DecodeOutcome, SecDed, DATA_POS, POLY, POS_TO_DATABIT};

/// Number of Hamming positions (1..=71) in the inner (71,64) code.
const POSITIONS: usize = 71;
/// Number of Hamming check bits (positions 1,2,4,...,64).
const CHECKS: usize = 7;

// ---------------------------------------------------------------------------
// Bit-serial (72,64) extended Hamming codec — the seed implementation of
// `Hamming7264`, walking all 64 data bits and 7 check bits per word.
// ---------------------------------------------------------------------------

/// The original bit-serial (72,64) extended Hamming SECDED codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefHamming7264;

impl RefHamming7264 {
    /// Builds the reference codec.
    pub fn new() -> Self {
        Self
    }

    /// Bit-serial syndrome: loops every data and check bit, XORing Hamming
    /// positions into the accumulator.
    fn syndrome(&self, received: CodeWord72) -> (u8, u8) {
        let mut syn = 0u8;
        let mut overall = 0u8;
        // Data bits contribute their Hamming position to the syndrome.
        for (i, &p) in DATA_POS.iter().enumerate() {
            let b = ((received.data() >> i) & 1) as u8;
            if b == 1 {
                syn ^= p;
                overall ^= 1;
            }
        }
        // Check bits: physical check bit c (0..7 exclusive of last) sits at
        // Hamming position 2^c; physical check bit 7 is the overall parity.
        let check = received.check();
        for c in 0..CHECKS {
            if (check >> c) & 1 == 1 {
                syn ^= 1u8 << c;
                overall ^= 1;
            }
        }
        overall ^= (check >> 7) & 1;
        (syn, overall)
    }

    /// Bit-serial check-byte computation.
    fn check_bits(&self, data: u64) -> u8 {
        let mut syn = 0u8;
        let mut ones = 0u8;
        for (i, &p) in DATA_POS.iter().enumerate() {
            if (data >> i) & 1 == 1 {
                syn ^= p;
                ones ^= 1;
            }
        }
        // Check bits are chosen to zero the syndrome.
        let mut check = syn & 0x7F;
        // Overall parity covers all 71 inner bits.
        let inner_parity = ones ^ ((check.count_ones() & 1) as u8);
        check |= inner_parity << 7;
        check
    }

    /// Translates a Hamming position (1..=71) into a physical bit index.
    fn position_to_physical(&self, p: u8) -> u32 {
        if (p as usize).is_power_of_two() {
            // Hamming check bit c sits in check-byte bit c = physical 71 - c.
            71 - p.trailing_zeros()
        } else {
            // Data bit di of the u64 word = physical 63 - di.
            // indexing: decode only passes positions in 1..=71.
            63 - POS_TO_DATABIT[p as usize] as u32
        }
    }
}

impl SecDed for RefHamming7264 {
    fn encode(&self, data: u64) -> CodeWord72 {
        CodeWord72::new(data, self.check_bits(data))
    }

    fn decode(&self, received: CodeWord72) -> DecodeOutcome {
        let (syn, overall) = self.syndrome(received);
        match (syn, overall) {
            (0, 0) => DecodeOutcome::Clean {
                data: received.data(),
            },
            (0, 1) => DecodeOutcome::Corrected {
                data: received.data(),
                bit: 64,
            },
            (s, 1) if (s as usize) <= POSITIONS => {
                let phys = self.position_to_physical(s);
                let fixed = received.with_bit_flipped(phys);
                DecodeOutcome::Corrected {
                    data: fixed.data(),
                    bit: phys,
                }
            }
            _ => DecodeOutcome::Detected,
        }
    }

    fn is_valid(&self, received: CodeWord72) -> bool {
        self.syndrome(received) == (0, 0)
    }
}

// ---------------------------------------------------------------------------
// Bit-at-a-time CRC8-ATM codecs — LFSR shifted one bit per step, and a
// linear-search decoder with no lookup tables at all.
// ---------------------------------------------------------------------------

/// Bit-at-a-time CRC8-ATM of a 64-bit word (MSB-first LFSR, no tables).
pub fn crc8_u64_bitserial(data: u64) -> u8 {
    let mut crc = 0u8;
    for byte in data.to_be_bytes() {
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

/// Bit-at-a-time CRC8-ATM of a 32-bit word.
pub fn crc8_u32_bitserial(data: u32) -> u8 {
    let mut crc = 0u8;
    for byte in data.to_be_bytes() {
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

/// Syndrome of the single-bit error at physical position `i` of a (72,64)
/// codeword, computed bit-serially.
fn single_bit_syndrome_72(i: u32) -> u8 {
    if i < 64 {
        crc8_u64_bitserial(1u64 << (63 - i))
    } else {
        1u8 << (71 - i)
    }
}

/// Syndrome of the single-bit error at physical position `i` of a (40,32)
/// codeword, computed bit-serially.
fn single_bit_syndrome_40(i: u32) -> u8 {
    if i < 32 {
        crc8_u32_bitserial(1u32 << (31 - i))
    } else {
        1u8 << (39 - i)
    }
}

/// The (72,64) CRC8-ATM SECDED codec, bit-serial: LFSR CRC plus a linear
/// search over the 72 single-bit syndromes instead of a lookup table.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefCrc8Atm;

impl RefCrc8Atm {
    /// Builds the reference codec.
    pub fn new() -> Self {
        Self
    }
}

impl SecDed for RefCrc8Atm {
    fn encode(&self, data: u64) -> CodeWord72 {
        CodeWord72::new(data, crc8_u64_bitserial(data))
    }

    fn decode(&self, received: CodeWord72) -> DecodeOutcome {
        let s = crc8_u64_bitserial(received.data()) ^ received.check();
        if s == 0 {
            return DecodeOutcome::Clean {
                data: received.data(),
            };
        }
        for i in 0..72u32 {
            if single_bit_syndrome_72(i) == s {
                let fixed = received.with_bit_flipped(i);
                return DecodeOutcome::Corrected {
                    data: fixed.data(),
                    bit: i,
                };
            }
        }
        DecodeOutcome::Detected
    }

    fn is_valid(&self, received: CodeWord72) -> bool {
        crc8_u64_bitserial(received.data()) == received.check()
    }
}

/// The (40,32) CRC8-ATM SECDED codec, bit-serial (mirrors
/// [`crate::secded::Crc8Atm32`]'s API).
#[derive(Debug, Clone, Copy, Default)]
pub struct RefCrc8Atm32;

impl RefCrc8Atm32 {
    /// Builds the reference codec.
    pub fn new() -> Self {
        Self
    }

    /// Encodes 32 data bits into a 40-bit codeword.
    pub fn encode(&self, data: u32) -> CodeWord40 {
        CodeWord40::new(data, crc8_u32_bitserial(data))
    }

    /// Decodes, correcting a single-bit error if present.
    pub fn decode(&self, received: CodeWord40) -> Decode32 {
        let s = crc8_u32_bitserial(received.data()) ^ received.check();
        if s == 0 {
            return Decode32::Clean {
                data: received.data(),
            };
        }
        for i in 0..40u32 {
            if single_bit_syndrome_40(i) == s {
                let fixed = received.with_bit_flipped(i);
                return Decode32::Corrected {
                    data: fixed.data(),
                    bit: i,
                };
            }
        }
        Decode32::Detected
    }

    /// `true` if the received word is a valid codeword.
    pub fn is_valid(&self, received: CodeWord40) -> bool {
        crc8_u32_bitserial(received.data()) == received.check()
    }
}

// ---------------------------------------------------------------------------
// Vec-based Reed–Solomon pipeline — the seed implementation of
// `ReedSolomon::{encode, syndromes, decode}`, allocating every intermediate
// polynomial. Doubles as the public convenience API.
// ---------------------------------------------------------------------------

/// Seed-verbatim Horner evaluation of the received word through
/// [`Field::mul`]'s log/antilog walk. The optimized decoder now computes
/// syndromes as XOR folds of independent flat-table products; the
/// reference pipeline keeps its own copy of the original walk so the
/// differential baseline stays genuinely pre-optimization.
fn eval_received_ref(rs: &ReedSolomon, received: &[u8], x: u8) -> u8 {
    let f = rs.field();
    let mut acc = 0u8;
    for &c in received {
        acc = f.mul(acc, x) ^ c;
    }
    acc
}

/// Seed-verbatim codeword validity check (see [`eval_received_ref`]).
fn is_valid_ref(rs: &ReedSolomon, received: &[u8]) -> bool {
    (0..rs.nsym()).all(|j| eval_received_ref(rs, received, rs.field().alpha_pow(j)) == 0)
}

impl ReedSolomon {
    /// Encodes `data` (length `k`) into a systematic codeword of length `n`.
    ///
    /// Allocating counterpart of [`ReedSolomon::encode_into`]; this is the
    /// seed implementation, kept as the reference.
    ///
    /// ```
    /// use xed_ecc::rs::ReedSolomon;
    /// use xed_ecc::gf::Field;
    ///
    /// let rs = ReedSolomon::new(Field::gf256(), 18, 16);
    /// let data: Vec<u8> = (0..16).collect();
    /// let cw = rs.encode(&data);
    /// let mut rx = cw.clone();
    /// rx[3] ^= 0xFF; // one chip returns garbage
    /// let out = rs.decode(&rx, &[]).unwrap();
    /// assert_eq!(out.data(16), &data[..]);
    /// assert_eq!(out.corrected, vec![3]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or a symbol exceeds the field size.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k(), "expected {} data symbols", self.k());
        let f = self.field();
        let max = (f.size() - 1) as u8;
        assert!(data.iter().all(|&s| s <= max), "symbol exceeds field size");
        let nsym = self.nsym();
        let gen = self.generator();
        // Synthetic division of data(x)·x^nsym by g(x); codeword index i
        // corresponds to the coefficient of x^(n-1-i).
        let mut out = vec![0u8; self.n()];
        out[..self.k()].copy_from_slice(data);
        for i in 0..self.k() {
            let coef = out[i];
            if coef != 0 {
                for j in 1..=nsym {
                    // generator is ascending; g[nsym] = 1 is the lead term.
                    out[i + j] ^= f.mul(gen[nsym - j], coef);
                }
            }
        }
        out[..self.k()].copy_from_slice(data);
        out
    }

    /// Computes the `nsym` syndromes `S_j = r(α^j)`.
    pub fn syndromes(&self, received: &[u8]) -> Vec<u8> {
        (0..self.nsym())
            .map(|j| eval_received_ref(self, received, self.field().alpha_pow(j)))
            .collect()
    }

    /// Decodes a received word, correcting up to `nsym` erased symbols (at
    /// the given indices) and unknown errors, provided
    /// `2·errors + erasures ≤ nsym`.
    ///
    /// This is the seed's `Vec`-allocating pipeline, kept verbatim as the
    /// reference for [`ReedSolomon::decode_with`] (which is asserted
    /// bit-identical by the equivalence suite) and as a convenience API.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::Detected`] when the corruption exceeds the code's
    /// capability (including decoder-detected inconsistencies).
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != n` or an erasure index is out of range.
    pub fn decode(&self, received: &[u8], erasures: &[usize]) -> Result<Decoded, RsError> {
        assert_eq!(received.len(), self.n(), "expected {} symbols", self.n());
        for &e in erasures {
            assert!(e < self.n(), "erasure index {e} out of range");
        }
        let nsym = self.nsym();
        if erasures.len() > nsym {
            return Err(RsError::Detected);
        }

        let synd = self.syndromes(received);
        if synd.iter().all(|&s| s == 0) {
            return Ok(Decoded {
                codeword: received.to_vec(),
                corrected: Vec::new(),
            });
        }

        let f = self.field();
        // Erasure locator Γ(x) = Π (1 + X_i·x), X_i = α^(n-1-index).
        let mut gamma = vec![1u8];
        for &idx in erasures {
            let x = f.alpha_pow(self.n() - 1 - idx);
            gamma = f.poly_mul(&gamma, &[1, x]);
        }

        // Forney syndromes: coefficients e..nsym-1 of Γ(x)·S(x).
        let e = erasures.len();
        let prod = f.poly_mul(&gamma, &synd);
        let forney: Vec<u8> = (e..nsym)
            .map(|i| prod.get(i).copied().unwrap_or(0))
            .collect();

        // Berlekamp–Massey on the Forney syndromes finds the error locator σ.
        let sigma = berlekamp_massey(f, &forney);
        let errors = sigma.len() - 1;
        if 2 * errors + e > nsym {
            return Err(RsError::Detected);
        }

        // Errata locator Ψ = σ·Γ; Chien search for its roots.
        let psi = f.poly_mul(&sigma, &gamma);
        let mut positions = Vec::new();
        for i in 0..self.n() {
            let x_inv = f.alpha_pow(f.order() - ((self.n() - 1 - i) % f.order()));
            if f.poly_eval(&psi, x_inv) == 0 {
                positions.push(i);
            }
        }
        if positions.len() != psi.len() - 1 {
            return Err(RsError::Detected);
        }

        // Error evaluator Ω = (S·Ψ) mod x^nsym.
        let mut omega = f.poly_mul(&synd, &psi);
        omega.truncate(nsym);

        // Formal derivative Ψ'(x): over GF(2^m) only odd-degree terms survive.
        let mut psi_prime = vec![0u8; psi.len().saturating_sub(1)];
        for (i, slot) in psi_prime.iter_mut().enumerate() {
            if i % 2 == 0 {
                *slot = psi[i + 1];
            }
        }

        // Forney magnitudes: e_k = X_k · Ω(X_k⁻¹) / Ψ'(X_k⁻¹).
        let mut corrected_word = received.to_vec();
        for &i in &positions {
            let xk = f.alpha_pow(self.n() - 1 - i);
            let xk_inv = f.inv(xk);
            let denom = f.poly_eval(&psi_prime, xk_inv);
            if denom == 0 {
                return Err(RsError::Detected);
            }
            let num = f.mul(xk, f.poly_eval(&omega, xk_inv));
            corrected_word[i] ^= f.div(num, denom);
        }

        // Verify: the corrected word must be a valid codeword.
        if !is_valid_ref(self, &corrected_word) {
            return Err(RsError::Detected);
        }
        // Report only positions whose value actually changed (an erasure may
        // have held the correct value by luck).
        let corrected: Vec<usize> = positions
            .into_iter()
            .filter(|&i| corrected_word[i] != received[i])
            .collect();
        Ok(Decoded {
            codeword: corrected_word,
            corrected,
        })
    }
}

/// Berlekamp–Massey: smallest LFSR (as locator polynomial σ, ascending,
/// σ(0)=1) generating the syndrome sequence. `Vec`-based seed version.
fn berlekamp_massey(f: &Field, synd: &[u8]) -> Vec<u8> {
    let mut sigma = vec![1u8];
    let mut prev = vec![1u8];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut b = 1u8;
    for n in 0..synd.len() {
        let mut delta = synd[n];
        for i in 1..=l.min(sigma.len() - 1) {
            delta ^= f.mul(sigma[i], synd[n - i]);
        }
        if delta == 0 {
            m += 1;
        } else if 2 * l <= n {
            let t = sigma.clone();
            let coef = f.div(delta, b);
            sigma = poly_sub_shifted(f, &sigma, &prev, coef, m);
            l = n + 1 - l;
            prev = t;
            b = delta;
            m = 1;
        } else {
            let coef = f.div(delta, b);
            sigma = poly_sub_shifted(f, &sigma, &prev, coef, m);
            m += 1;
        }
    }
    // Trim trailing zeros so sigma.len()-1 == degree.
    while sigma.len() > 1 && sigma[sigma.len() - 1] == 0 {
        sigma.pop();
    }
    sigma
}

/// Returns `a(x) + coef·x^shift·b(x)` (subtraction == addition in GF(2^m)).
fn poly_sub_shifted(f: &Field, a: &[u8], b: &[u8], coef: u8, shift: usize) -> Vec<u8> {
    let mut out = a.to_vec();
    if out.len() < b.len() + shift {
        out.resize(b.len() + shift, 0);
    }
    for (i, &bi) in b.iter().enumerate() {
        out[i + shift] ^= f.mul(coef, bi);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secded::conformance;

    #[test]
    fn ref_hamming_conformance() {
        let c = RefHamming7264::new();
        conformance::roundtrip(&c);
        conformance::corrects_all_single_bit_errors(&c);
    }

    #[test]
    fn ref_crc8_conformance() {
        let c = RefCrc8Atm::new();
        conformance::roundtrip(&c);
        conformance::corrects_all_single_bit_errors(&c);
    }

    #[test]
    fn ref_crc8_matches_table_crc() {
        let fast = crate::Crc8Atm::new();
        for d in [0u64, 1, u64::MAX, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            assert_eq!(crc8_u64_bitserial(d), fast.crc8(d));
        }
    }

    #[test]
    fn ref_crc8_32_roundtrip() {
        let c = RefCrc8Atm32::new();
        for d in [0u32, 1, u32::MAX, 0xCAFE_F00D] {
            let w = c.encode(d);
            assert!(c.is_valid(w));
            assert_eq!(c.decode(w), Decode32::Clean { data: d });
            for i in 0..40 {
                assert_eq!(
                    c.decode(w.with_bit_flipped(i)),
                    Decode32::Corrected { data: d, bit: i }
                );
            }
        }
    }
}
