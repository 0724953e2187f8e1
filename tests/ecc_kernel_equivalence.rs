//! Differential proofs that the word-parallel, allocation-free ECC kernels
//! are bit-identical to the seed's bit-serial / `Vec`-allocating reference
//! implementations (`xed::ecc::reference`).
//!
//! * Hamming(72,64) and CRC8-ATM(72,64): exhaustive over all 72 single-bit
//!   and all C(72,2) = 2556 double-bit error patterns per sample word, plus
//!   every aligned burst-8 pattern.
//! * CRC8-ATM(40,32): exhaustive over all 40 single-bit and C(40,2) = 780
//!   double-bit patterns, plus all 255 nonzero check-byte patterns, which
//!   reach every syndrome.
//! * Reed–Solomon: `decode_with` (fixed scratch) vs the reference `decode`
//!   (`Vec` pipeline) over seeded random error and erasure sweeps for the
//!   RS(18,16), RS(36,32) and GF(16) RS(15,11) configurations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xed::ecc::codeword::CodeWord40;
use xed::ecc::gf::Field;
use xed::ecc::reference::{
    crc8_u32_bitserial, crc8_u64_bitserial, RefCrc8Atm, RefCrc8Atm32, RefHamming7264,
};
use xed::ecc::rs::{ReedSolomon, RsScratch};
use xed::ecc::secded::{Crc8Atm32, SecDed};
use xed::ecc::{CodeWord72, Crc8Atm, Hamming7264};

const SAMPLE_WORDS: &[u64] = &[
    0,
    u64::MAX,
    1,
    0x8000_0000_0000_0000,
    0xDEAD_BEEF_0BAD_F00D,
    0x0123_4567_89AB_CDEF,
    0x5555_5555_5555_5555,
    0xAAAA_AAAA_AAAA_AAAA,
    0xFFFF_0000_FFFF_0000,
    42,
];

/// Every received word a (72,64) differential sweep should cover for one
/// data word: clean, all single-bit, all double-bit, all aligned burst-8.
fn received_variants(clean: CodeWord72) -> Vec<CodeWord72> {
    let mut out = vec![clean];
    for i in 0..72 {
        out.push(clean.with_bit_flipped(i));
    }
    for i in 0..72u32 {
        for j in (i + 1)..72 {
            out.push(clean.with_bit_flipped(i).with_bit_flipped(j));
        }
    }
    for chip in 0..9u32 {
        for pattern in 1..=255u8 {
            let e = CodeWord72::error_pattern(
                (0..8u32)
                    .filter(|b| (pattern >> b) & 1 == 1)
                    .map(|b| 8 * chip + b),
            );
            out.push(clean.with_error(e));
        }
    }
    out
}

#[test]
fn hamming_kernel_matches_reference_exhaustively() {
    let fast = Hamming7264::new();
    let slow = RefHamming7264::new();
    for &d in SAMPLE_WORDS {
        let wf = fast.encode(d);
        let ws = slow.encode(d);
        assert_eq!(wf, ws, "encode({d:#x})");
        for r in received_variants(wf) {
            assert_eq!(fast.decode(r), slow.decode(r), "decode({r})");
            assert_eq!(fast.is_valid(r), slow.is_valid(r), "is_valid({r})");
        }
    }
}

#[test]
fn crc8_kernel_matches_reference_exhaustively() {
    let fast = Crc8Atm::new();
    let slow = RefCrc8Atm::new();
    for &d in SAMPLE_WORDS {
        let wf = fast.encode(d);
        let ws = slow.encode(d);
        assert_eq!(wf, ws, "encode({d:#x})");
        assert_eq!(fast.crc8(d), crc8_u64_bitserial(d));
        for r in received_variants(wf) {
            assert_eq!(fast.decode(r), slow.decode(r), "decode({r})");
            assert_eq!(fast.is_valid(r), slow.is_valid(r), "is_valid({r})");
        }
    }
}

#[test]
fn crc8_kernels_match_on_random_received_words() {
    // Arbitrary (data, check) pairs — mostly invalid words, far outside
    // the single/double/burst classes above.
    let fast_h = Hamming7264::new();
    let slow_h = RefHamming7264::new();
    let fast_c = Crc8Atm::new();
    let slow_c = RefCrc8Atm::new();
    let mut rng = StdRng::seed_from_u64(0xECC0_0001);
    for _ in 0..20_000 {
        let r = CodeWord72::new(rng.gen(), rng.gen());
        assert_eq!(fast_h.decode(r), slow_h.decode(r), "hamming {r}");
        assert_eq!(fast_c.decode(r), slow_c.decode(r), "crc8 {r}");
    }
}

#[test]
fn secded32_kernel_matches_reference_exhaustively() {
    let fast = Crc8Atm32::new();
    let slow = RefCrc8Atm32::new();
    for &w in SAMPLE_WORDS {
        let d = w as u32;
        let wf = fast.encode(d);
        assert_eq!(wf, slow.encode(d), "encode({d:#x})");
        assert_eq!(fast.crc8(d), crc8_u32_bitserial(d));
        let mut received = vec![wf];
        for i in 0..40 {
            received.push(wf.with_bit_flipped(i));
        }
        for i in 0..40u32 {
            for j in (i + 1)..40 {
                received.push(wf.with_bit_flipped(i).with_bit_flipped(j));
            }
        }
        // Every nonzero check-byte error: the syndrome is the error itself,
        // so these reach all 255 nonzero syndromes.
        for pattern in 1..=255u8 {
            received.push(CodeWord40::new(wf.data(), wf.check() ^ pattern));
        }
        for r in received {
            assert_eq!(fast.decode(r), slow.decode(r));
            assert_eq!(fast.is_valid(r), slow.is_valid(r));
        }
    }
    // Random (data, check) pairs.
    let mut rng = StdRng::seed_from_u64(0xECC0_0032);
    for _ in 0..20_000 {
        let r = CodeWord40::new(rng.gen(), rng.gen());
        assert_eq!(fast.decode(r), slow.decode(r));
    }
}

/// Asserts `decode_with` (scratch) and `decode` (reference) agree — on the
/// Ok codeword+corrected set, or on both returning Err.
fn assert_rs_agree(rs: &ReedSolomon, scratch: &mut RsScratch, rx: &[u8], erasures: &[usize]) {
    let reference = rs.decode(rx, erasures);
    let fast = rs.decode_with(rx, erasures, scratch);
    match (&reference, &fast) {
        (Ok(a), Ok(b)) => {
            assert_eq!(&a.codeword[..], b.codeword, "codeword mismatch");
            assert_eq!(&a.corrected[..], b.corrected, "corrected mismatch");
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb),
        _ => panic!("divergence: reference={reference:?} fast={fast:?}"),
    }
}

fn rs_random_sweep(field: Field, n: usize, k: usize, seed: u64, trials: usize) {
    let rs = ReedSolomon::new(field, n, k);
    let mut scratch = RsScratch::new();
    let nsym = n - k;
    let max_sym = (rs.field().size() - 1) as u8;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..trials {
        let data: Vec<u8> = (0..k).map(|_| rng.gen::<u8>() & max_sym).collect();
        let mut rx = rs.encode(&data);

        // Random errata: e erasures + t corrupted unknown positions, from
        // in-capability through decidedly beyond it.
        let e = rng.gen_range(0..=nsym);
        let t = rng.gen_range(0..=nsym);
        let mut erasures: Vec<usize> = Vec::new();
        while erasures.len() < e {
            let p = rng.gen_range(0..n);
            if !erasures.contains(&p) {
                erasures.push(p);
            }
        }
        for &p in &erasures {
            rx[p] = rng.gen::<u8>() & max_sym;
        }
        for _ in 0..t {
            let p = rng.gen_range(0..n);
            rx[p] ^= (rng.gen::<u8>() & max_sym).max(1);
        }
        assert_rs_agree(&rs, &mut scratch, &rx, &erasures);

        // And the same received word with no erasure information.
        assert_rs_agree(&rs, &mut scratch, &rx, &[]);
    }
}

#[test]
fn rs_18_16_decode_with_matches_reference() {
    rs_random_sweep(Field::gf256(), 18, 16, 0x5EED_1816, 4000);
}

#[test]
fn rs_36_32_decode_with_matches_reference() {
    rs_random_sweep(Field::gf256(), 36, 32, 0x5EED_3632, 2500);
}

#[test]
fn rs_15_11_gf16_decode_with_matches_reference() {
    rs_random_sweep(Field::gf16(), 15, 11, 0x5EED_1511, 2500);
}

#[test]
fn rs_encode_into_matches_reference_encode() {
    let mut rng = StdRng::seed_from_u64(0x5EED_E4C0);
    for (field, n, k) in [
        (Field::gf256(), 18, 16),
        (Field::gf256(), 36, 32),
        (Field::gf16(), 15, 11),
    ] {
        let max_sym = (field.size() - 1) as u8;
        let rs = ReedSolomon::new(field, n, k);
        let mut out = [0u8; xed::ecc::rs::MAX_N];
        for _ in 0..500 {
            let data: Vec<u8> = (0..k).map(|_| rng.gen::<u8>() & max_sym).collect();
            rs.encode_into(&data, &mut out[..n]);
            assert_eq!(rs.encode(&data), &out[..n]);
            assert!(rs.is_valid(&out[..n]));
        }
    }
}

#[test]
fn rs_exhaustive_single_symbol_errors_match() {
    // Every position × a spread of error values, for the paper's RS(18,16).
    let rs = ReedSolomon::new(Field::gf256(), 18, 16);
    let mut scratch = RsScratch::new();
    let data: Vec<u8> = (0..16).map(|i| (i * 17 + 3) as u8).collect();
    let clean = rs.encode(&data);
    for pos in 0..18 {
        for val in [1u8, 0x55, 0xAA, 0xFF] {
            let mut rx = clean.clone();
            rx[pos] ^= val;
            assert_rs_agree(&rs, &mut scratch, &rx, &[]);
            assert_rs_agree(&rs, &mut scratch, &rx, &[pos]);
            // Erasing an unrelated healthy position too.
            let other = (pos + 7) % 18;
            assert_rs_agree(&rs, &mut scratch, &rx, &[pos.min(other), pos.max(other)]);
        }
    }
}

#[test]
fn line_decode_matches_per_beat_reference() {
    use xed::ecc::secded::{DecodeOutcome, BEATS_PER_LINE};
    let fast = Crc8Atm::new();
    let slow = RefCrc8Atm::new();
    let mut rng = StdRng::seed_from_u64(0x11FE_11FE);
    for _ in 0..2000 {
        let data: [u64; BEATS_PER_LINE] = std::array::from_fn(|_| rng.gen());
        let mut beats = fast.encode_line(&data);
        // Corrupt a random subset of beats with 0–3 bit flips each.
        for w in beats.iter_mut() {
            for _ in 0..rng.gen_range(0..=3u32) {
                if rng.gen_bool(0.4) {
                    *w = w.with_bit_flipped(rng.gen_range(0..72));
                }
            }
        }
        let line = fast.decode_line(&beats);
        for (i, &w) in beats.iter().enumerate() {
            match slow.decode(w) {
                DecodeOutcome::Clean { data: d } => {
                    assert_eq!(line.data[i], d);
                    assert_eq!(line.corrected_beats >> i & 1, 0);
                    assert_eq!(line.bad_beats >> i & 1, 0);
                }
                DecodeOutcome::Corrected { data: d, .. } => {
                    assert_eq!(line.data[i], d);
                    assert_eq!(line.corrected_beats >> i & 1, 1);
                    assert_eq!(line.bad_beats >> i & 1, 0);
                }
                DecodeOutcome::Detected => {
                    assert_eq!(line.data[i], w.data());
                    assert_eq!(line.bad_beats >> i & 1, 1);
                }
            }
        }
    }
}
