//! Finite-field arithmetic GF(2^m) for m ≤ 8, backed by log/antilog tables.
//!
//! Chipkill-style codes operate on DRAM-device-sized *symbols* rather than
//! bits. This module provides the field arithmetic for the Reed–Solomon
//! codecs in [`crate::rs`]: GF(16) for x4-device symbols and GF(256) for
//! 8-bit symbols (and for pairing two x4 beats into one byte symbol, the
//! construction commercial chipkill uses).

use std::fmt;

/// Builds the `(exp, log)` tables of GF(2^m) at compile time, where
/// `SIZE = 2^m` and `EXP2 = 2·(2^m − 1)` (the exp table is doubled so
/// `mul` can skip a modular reduction). Evaluation FAILS THE BUILD if the
/// polynomial is not primitive — i.e. if `x` does not generate the full
/// multiplicative group.
const fn build_exp_log<const SIZE: usize, const EXP2: usize>(
    m: u32,
    poly: u32,
) -> ([u8; EXP2], [u16; SIZE]) {
    assert!(
        EXP2 == 2 * (SIZE - 1),
        "exp table must be twice the group order"
    );
    let order = SIZE - 1;
    let mut exp = [0u8; EXP2];
    let mut log = [0u16; SIZE];
    let mut x = 1u32;
    let mut i = 0usize;
    while i < order {
        assert!(
            i == 0 || x != 1,
            "polynomial is not primitive (x has smaller order)"
        );
        exp[i] = x as u8;
        exp[i + order] = x as u8;
        log[x as usize] = i as u16;
        x <<= 1;
        if x & (1 << m) != 0 {
            x ^= poly;
        }
        i += 1;
    }
    assert!(x == 1, "polynomial is not primitive (x never returns to 1)");
    (exp, log)
}

const GF256_TABLES: ([u8; 510], [u16; 256]) = build_exp_log::<256, 510>(8, 0x11D);
/// Compile-time antilog table of GF(256): `GF256_EXP[i] = α^i` (doubled).
pub(crate) const GF256_EXP: [u8; 510] = GF256_TABLES.0;
/// Compile-time log table of GF(256) (entry 0 unused).
pub(crate) const GF256_LOG: [u16; 256] = GF256_TABLES.1;

const GF16_TABLES: ([u8; 30], [u16; 16]) = build_exp_log::<16, 30>(4, 0x13);
const GF16_EXP: [u8; 30] = GF16_TABLES.0;
const GF16_LOG: [u16; 16] = GF16_TABLES.1;

/// GF(256) multiplication through the compile-time tables (const-evaluable
/// mirror of [`Field::mul`]; used by the Reed–Solomon generator proofs).
pub(crate) const fn gf256_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF256_EXP[GF256_LOG[a as usize] as usize + GF256_LOG[b as usize] as usize]
    }
}

/// Flat GF(256) multiplication table `GF256_MUL[a][b] = a·b`, built at
/// compile time from the proved log/antilog tables. The Reed–Solomon hot
/// path multiplies through this single L1-resident load instead of the
/// zero-test + two log reads + antilog read of [`gf256_mul`]; the table is
/// 64 KiB and entry-for-entry identical to [`Field::mul`] on GF(256)
/// (asserted below and by this module's tests).
pub(crate) static GF256_MUL: [[u8; 256]; 256] = build_gf256_mul();

const fn build_gf256_mul() -> [[u8; 256]; 256] {
    let mut t = [[0u8; 256]; 256];
    let mut a = 0usize;
    while a < 256 {
        let mut b = 0usize;
        while b < 256 {
            t[a][b] = gf256_mul(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    t
}

// ---------------------------------------------------------------------------
// Compile-time field proofs. `build_exp_log` already proves α generates the
// multiplicative group (primitivity); these blocks prove the tables are
// mutually inverse and that every nonzero element has a multiplicative
// inverse — the properties the Reed–Solomon decoder's divisions rely on.
// A corrupted table entry fails `cargo build` here.
// ---------------------------------------------------------------------------
const _: () = {
    // exp and log are mutual inverses on the nonzero elements.
    let mut a = 1usize;
    while a < 256 {
        assert!(
            GF256_EXP[GF256_LOG[a] as usize] as usize == a,
            "GF256 exp∘log ≠ id"
        );
        let inv = GF256_EXP[255 - GF256_LOG[a] as usize];
        assert!(
            gf256_mul(a as u8, inv) == 1,
            "GF256 element without inverse"
        );
        a += 1;
    }
    let mut i = 0usize;
    while i < 255 {
        assert!(
            GF256_LOG[GF256_EXP[i] as usize] as usize == i,
            "GF256 log∘exp ≠ id"
        );
        assert!(
            GF256_EXP[i] == GF256_EXP[i + 255],
            "GF256 doubled exp table mismatch"
        );
        i += 1;
    }
};

const _: () = {
    // The flat table row/column structure: a·0 = 0·b = 0, a·1 = a, and the
    // diagonal of inverses multiplies to 1 (spot-proofs; the full 256×256
    // equality against `Field::mul` is a unit test).
    let mut a = 0usize;
    while a < 256 {
        assert!(GF256_MUL[a][0] == 0 && GF256_MUL[0][a] == 0);
        assert!(GF256_MUL[a][1] == a as u8 && GF256_MUL[1][a] == a as u8);
        if a != 0 {
            let inv = GF256_EXP[255 - GF256_LOG[a] as usize];
            assert!(
                GF256_MUL[a][inv as usize] == 1,
                "GF256_MUL row lacks inverse product"
            );
        }
        a += 1;
    }
};

const _: () = {
    let mut a = 1usize;
    while a < 16 {
        assert!(
            GF16_EXP[GF16_LOG[a] as usize] as usize == a,
            "GF16 exp∘log ≠ id"
        );
        let la = GF16_LOG[a] as usize;
        let inv = GF16_EXP[15 - la];
        // mul through the tables: α^(log a + log inv) must be 1.
        assert!(
            GF16_EXP[la + GF16_LOG[inv as usize] as usize] == 1,
            "GF16 element without inverse"
        );
        a += 1;
    }
    let mut i = 0usize;
    while i < 15 {
        assert!(
            GF16_LOG[GF16_EXP[i] as usize] as usize == i,
            "GF16 log∘exp ≠ id"
        );
        i += 1;
    }
};

/// A GF(2^m) field defined by a primitive polynomial.
///
/// Elements are represented as integers `0..2^m` in polynomial basis.
/// Multiplication and inversion go through log/antilog tables built at
/// construction.
#[derive(Clone)]
pub struct Field {
    m: u32,
    size: usize,
    poly: u32,
    log: Vec<u16>,
    exp: Vec<u8>,
}

impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Field")
            .field("m", &self.m)
            .field("poly", &format_args!("{:#x}", self.poly))
            .finish()
    }
}

impl Field {
    /// The standard GF(256) field used by the byte-symbol Reed–Solomon
    /// codecs (primitive polynomial x^8+x^4+x^3+x^2+1). Backed by the
    /// compile-time tables proved correct by this module's `const`
    /// assertions.
    pub fn gf256() -> Self {
        Self {
            m: 8,
            size: 256,
            poly: 0x11D,
            log: GF256_LOG.to_vec(),
            exp: GF256_EXP.to_vec(),
        }
    }

    /// GF(16) with primitive polynomial x^4+x+1, for x4-device symbols.
    /// Backed by compile-time tables like [`Field::gf256`].
    pub fn gf16() -> Self {
        Self {
            m: 4,
            size: 16,
            poly: 0x13,
            log: GF16_LOG.to_vec(),
            exp: GF16_EXP.to_vec(),
        }
    }

    /// Field extension degree m.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// The defining primitive polynomial, including the leading term.
    pub fn poly(&self) -> u32 {
        self.poly
    }

    /// Number of field elements (2^m).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Order of the multiplicative group (2^m − 1).
    pub fn order(&self) -> usize {
        self.size - 1
    }

    /// α^i for the primitive element α = x.
    #[inline]
    pub fn alpha_pow(&self, i: usize) -> u8 {
        self.exp[i % self.order()]
    }

    /// Field addition (XOR).
    #[inline]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            // indexing: log entries are < order, so the sum is < 2*order-1
            // = exp.len(), and a u8 always indexes the 256-entry log.
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[inline]
    pub fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "inverse of zero");
        self.exp[self.order() - self.log[a as usize] as usize]
    }

    /// Multiplicative inverse, or `None` for zero.
    ///
    /// The Reed–Solomon decoder uses this instead of [`Field::inv`] so a
    /// degenerate received word surfaces as [`crate::rs::RsError::Detected`]
    /// rather than a library panic.
    #[inline]
    pub fn try_inv(&self, a: u8) -> Option<u8> {
        if a == 0 {
            None
        } else {
            // indexing: log[a] < order for a != 0, so the difference is
            // in 1..=order < exp.len(); a u8 indexes the 256-entry log.
            Some(self.exp[self.order() - self.log[a as usize] as usize])
        }
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[inline]
    pub fn div(&self, a: u8, b: u8) -> u8 {
        if a == 0 {
            0
        } else {
            self.mul(a, self.inv(b))
        }
    }

    /// Field division `a / b`, or `None` when `b == 0`.
    #[inline]
    pub fn try_div(&self, a: u8, b: u8) -> Option<u8> {
        if a == 0 && b != 0 {
            return Some(0);
        }
        self.try_inv(b).map(|binv| self.mul(a, binv))
    }

    /// Evaluates a polynomial (coefficients ascending, `poly[i]·x^i`) at `x`.
    pub fn poly_eval(&self, poly: &[u8], x: u8) -> u8 {
        let mut acc = 0u8;
        for &c in poly.iter().rev() {
            acc = self.mul(acc, x) ^ c;
        }
        acc
    }

    /// Multiplies two polynomials over the field (ascending coefficients).
    pub fn poly_mul(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u8; a.len() + b.len() - 1];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                out[i + j] ^= self.mul(ai, bj);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Field {
        /// Builds GF(2^m) at run time from a primitive polynomial given
        /// including the leading term (e.g. `0x11D` = x^8+x^4+x^3+x^2+1 for
        /// GF(256)): the oracle of the compile-time tables.
        ///
        /// # Panics
        ///
        /// Panics if `m` is not in `1..=8` or the polynomial is not primitive
        /// (i.e. `x` does not generate the multiplicative group).
        fn new(m: u32, poly: u32) -> Self {
            assert!((1..=8).contains(&m), "only GF(2^1)..GF(2^8) supported");
            let size = 1usize << m;
            let order = size - 1;
            let mut log = vec![0u16; size];
            let mut exp = vec![0u8; 2 * order];
            let mut x = 1u32;
            for i in 0..order {
                assert!(
                    i == 0 || x != 1,
                    "polynomial {poly:#x} is not primitive for m={m} (x has order {i})"
                );
                exp[i] = x as u8;
                exp[i + order] = x as u8;
                log[x as usize] = i as u16;
                x <<= 1;
                if x & (1 << m) != 0 {
                    x ^= poly;
                }
            }
            assert_eq!(x, 1, "polynomial {poly:#x} is not primitive for m={m}");
            Self {
                m,
                size,
                poly,
                log,
                exp,
            }
        }
    }

    fn fields() -> Vec<Field> {
        vec![Field::gf256(), Field::gf16()]
    }

    #[test]
    fn mul_identity_and_zero() {
        for f in fields() {
            for a in 0..f.size() as u16 {
                let a = a as u8;
                assert_eq!(f.mul(a, 1), a);
                assert_eq!(f.mul(1, a), a);
                assert_eq!(f.mul(a, 0), 0);
            }
        }
    }

    #[test]
    fn mul_commutative_associative_distributive_gf16() {
        let f = Field::gf16();
        for a in 0..16u8 {
            for b in 0..16u8 {
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for c in 0..16u8 {
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                    assert_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
                }
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for f in fields() {
            for a in 1..f.size() as u16 {
                let a = a as u8;
                assert_eq!(f.mul(a, f.inv(a)), 1, "a={a} in GF(2^{})", f.m());
                assert_eq!(
                    f.div(f.mul(a, 7.min(f.order() as u8)), a),
                    7.min(f.order() as u8)
                );
            }
        }
    }

    #[test]
    fn try_inv_and_try_div_match_checked_variants() {
        for f in fields() {
            assert_eq!(f.try_inv(0), None);
            assert_eq!(f.try_div(5.min(f.order() as u8), 0), None);
            assert_eq!(f.try_div(0, 0), None);
            for a in 1..f.size() as u16 {
                let a = a as u8;
                assert_eq!(f.try_inv(a), Some(f.inv(a)));
                assert_eq!(f.try_div(a, a), Some(1));
                assert_eq!(f.try_div(0, a), Some(0));
            }
        }
    }

    #[test]
    fn alpha_generates_group() {
        for f in fields() {
            let mut seen = vec![false; f.size()];
            for i in 0..f.order() {
                let v = f.alpha_pow(i);
                assert!(!seen[v as usize], "α^{i} repeats in GF(2^{})", f.m());
                seen[v as usize] = true;
            }
            assert!(!seen[0]);
        }
    }

    #[test]
    fn poly_eval_horner() {
        let f = Field::gf256();
        // p(x) = 3 + 2x + x^2 at x=2 : 3 ^ mul(2,2) ^ mul(1,4) = 3^4^4 = 3
        let p = [3u8, 2, 1];
        assert_eq!(f.poly_eval(&p, 2), 3);
        assert_eq!(f.poly_eval(&p, 0), 3);
        assert_eq!(f.poly_eval(&[], 5), 0);
    }

    #[test]
    fn poly_mul_degree_and_linearity() {
        let f = Field::gf256();
        let a = [1u8, 1]; // (1 + x)
        let b = [1u8, 2]; // (1 + 2x)
        let prod = f.poly_mul(&a, &b);
        assert_eq!(prod.len(), 3);
        // roots of the product are roots of either factor
        assert_eq!(f.poly_eval(&prod, 1), 0);
        assert_eq!(f.poly_eval(&prod, f.inv(2)), 0);
    }

    #[test]
    #[should_panic]
    fn non_primitive_poly_rejected() {
        // x^4 + x^3 + x^2 + x + 1 has order 5, not primitive for GF(16).
        let _ = Field::new(4, 0x1F);
    }

    #[test]
    fn log_exp_inverse() {
        let f = Field::gf256();
        for a in 1..=255u8 {
            assert_eq!(f.alpha_pow(f.log[a as usize] as usize), a);
        }
    }

    #[test]
    fn const_tables_match_runtime_construction() {
        // The compile-time tables must agree with Field::new's runtime
        // generation for the same polynomials.
        let runtime = Field::new(8, 0x11D);
        let shipped = Field::gf256();
        assert_eq!(runtime.log, shipped.log);
        assert_eq!(runtime.exp, shipped.exp);
        let runtime = Field::new(4, 0x13);
        let shipped = Field::gf16();
        assert_eq!(runtime.log, shipped.log);
        assert_eq!(runtime.exp, shipped.exp);
    }

    #[test]
    fn const_mul_matches_field_mul() {
        let f = Field::gf256();
        for a in [0u8, 1, 2, 0x53, 0xCA, 0xFF] {
            for b in [0u8, 1, 3, 0x8E, 0xFF] {
                assert_eq!(super::gf256_mul(a, b), f.mul(a, b));
            }
        }
    }

    #[test]
    fn flat_mul_table_matches_field_mul_exhaustively() {
        // Every entry of the 64 KiB hot-path table equals the log/antilog
        // product — the property the Reed–Solomon fast decoder relies on to
        // stay bit-identical to the reference pipeline.
        let f = Field::gf256();
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(
                    super::GF256_MUL[a as usize][b as usize],
                    f.mul(a, b),
                    "a={a:#x} b={b:#x}"
                );
            }
        }
    }
}
