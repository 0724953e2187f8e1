//! Randomized property tests on the core data structures and invariants
//! across the workspace.
//!
//! These were originally written with `proptest`; they are now seeded
//! sweeps over the deterministic in-tree RNG so the workspace builds and
//! tests fully offline. Each test draws a few hundred cases from a fixed
//! seed, so failures are exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xed::ecc::chipkill::Chipkill;
use xed::ecc::gf::Field;
use xed::ecc::rs::ReedSolomon;
use xed::ecc::secded::{DecodeOutcome, SecDed};
use xed::ecc::{parity, CodeWord72, Crc8Atm, Hamming7264};
use xed::faultsim::fault::{FaultExtent, FaultRange};
use xed::faultsim::geometry::DramGeometry;
use xed::testkit::seeds;

const CASES: usize = 300;

fn rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(seeds::PROPTEST_BASE ^ salt)
}

// ---- SECDED codes ------------------------------------------------

#[test]
fn crc8_roundtrip() {
    let code = Crc8Atm::new();
    let mut r = rng(1);
    for _ in 0..CASES {
        let data: u64 = r.gen();
        assert_eq!(
            code.decode(code.encode(data)),
            DecodeOutcome::Clean { data }
        );
    }
}

#[test]
fn hamming_roundtrip() {
    let code = Hamming7264::new();
    let mut r = rng(2);
    for _ in 0..CASES {
        let data: u64 = r.gen();
        assert_eq!(
            code.decode(code.encode(data)),
            DecodeOutcome::Clean { data }
        );
    }
}

#[test]
fn crc8_corrects_any_single_flip() {
    let code = Crc8Atm::new();
    let mut r = rng(3);
    for _ in 0..CASES {
        let data: u64 = r.gen();
        let bit = r.gen_range(0..72u32);
        let rx = code.encode(data).with_bit_flipped(bit);
        assert_eq!(code.decode(rx), DecodeOutcome::Corrected { data, bit });
    }
}

#[test]
fn hamming_never_miscorrects_double_flips() {
    let code = Hamming7264::new();
    let mut r = rng(4);
    for _ in 0..CASES {
        let data: u64 = r.gen();
        let a = r.gen_range(0..72u32);
        let mut b = r.gen_range(0..72u32);
        while b == a {
            b = r.gen_range(0..72u32);
        }
        let rx = code.encode(data).with_bit_flipped(a).with_bit_flipped(b);
        assert_eq!(code.decode(rx), DecodeOutcome::Detected);
    }
}

#[test]
fn crc8_is_linear_in_data() {
    let code = Crc8Atm::new();
    let mut r = rng(5);
    for _ in 0..CASES {
        let (a, b): (u64, u64) = (r.gen(), r.gen());
        assert_eq!(code.crc8(a ^ b), code.crc8(a) ^ code.crc8(b));
    }
}

#[test]
fn codeword_flip_involution() {
    let mut r = rng(6);
    for _ in 0..CASES {
        let w = CodeWord72::new(r.gen(), r.gen());
        let bit = r.gen_range(0..72u32);
        assert_eq!(w.with_bit_flipped(bit).with_bit_flipped(bit), w);
        let expect = if w.bit(bit) == 1 {
            w.weight() - 1
        } else {
            w.weight() + 1
        };
        assert_eq!(w.with_bit_flipped(bit).weight(), expect);
    }
}

// ---- RAID-3 parity ------------------------------------------------

fn random_words<const N: usize>(r: &mut StdRng) -> [u64; N] {
    let mut out = [0u64; N];
    for w in &mut out {
        *w = r.gen();
    }
    out
}

#[test]
fn parity_reconstructs_any_erasure() {
    let mut r = rng(7);
    for _ in 0..CASES {
        let words: [u64; 8] = random_words(&mut r);
        let erased = r.gen_range(0..8usize);
        let p = parity::compute(&words);
        let mut rx = words;
        rx[erased] = r.gen();
        assert_eq!(parity::reconstruct(&rx, p, erased), words[erased]);
    }
}

#[test]
fn parity_update_equals_recompute() {
    let mut r = rng(8);
    for _ in 0..CASES {
        let words: [u64; 8] = random_words(&mut r);
        let idx = r.gen_range(0..8usize);
        let new_word: u64 = r.gen();
        let p = parity::compute(&words);
        let updated = parity::update(p, words[idx], new_word);
        let mut w2 = words;
        w2[idx] = new_word;
        assert_eq!(updated, parity::compute(&w2));
    }
}

// ---- GF(256) ------------------------------------------------------

#[test]
fn gf256_mul_commutes_and_distributes() {
    let f = Field::gf256();
    let mut r = rng(9);
    for _ in 0..CASES {
        let (a, b, c): (u8, u8, u8) = (r.gen(), r.gen(), r.gen());
        assert_eq!(f.mul(a, b), f.mul(b, a));
        assert_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
    }
}

#[test]
fn gf256_inverse() {
    let f = Field::gf256();
    for a in 1..=255u8 {
        assert_eq!(f.mul(a, f.inv(a)), 1);
    }
}

// ---- Reed-Solomon ---------------------------------------------------

#[test]
fn rs_corrects_single_symbol() {
    let rs = ReedSolomon::new(Field::gf256(), 18, 16);
    let mut r = rng(10);
    for _ in 0..CASES {
        let mut data = [0u8; 16];
        for d in &mut data {
            *d = r.gen();
        }
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        let pos = r.gen_range(0..18usize);
        rx[pos] ^= r.gen_range(1..=255u8);
        let out = rs.decode(&rx, &[]).unwrap();
        assert_eq!(out.codeword, cw);
    }
}

#[test]
fn rs_erasure_pair() {
    let rs = ReedSolomon::new(Field::gf256(), 18, 16);
    let mut r = rng(11);
    for _ in 0..CASES {
        let mut data = [0u8; 16];
        for d in &mut data {
            *d = r.gen();
        }
        let cw = rs.encode(&data);
        let a = r.gen_range(0..18usize);
        let mut b = r.gen_range(0..18usize);
        while b == a {
            b = r.gen_range(0..18usize);
        }
        let mut rx = cw.clone();
        rx[a] = r.gen();
        rx[b] = r.gen();
        let out = rs.decode(&rx, &[a, b]).unwrap();
        assert_eq!(out.codeword, cw);
    }
}

#[test]
fn chipkill_never_returns_wrong_data_for_single_error() {
    let ck = Chipkill::new();
    let mut r = rng(12);
    for _ in 0..CASES {
        let mut data = [0u8; 16];
        for d in &mut data {
            *d = r.gen();
        }
        let beat = ck.encode(&data);
        let mut rx = beat;
        let pos = r.gen_range(0..18usize);
        rx[pos] ^= r.gen_range(1..=255u8);
        match ck.decode(&rx) {
            xed::ecc::chipkill::SymbolOutcome::Corrected { data: d, .. } => {
                assert_eq!(d, data.to_vec());
            }
            xed::ecc::chipkill::SymbolOutcome::Clean(_) => panic!("corruption unseen"),
            xed::ecc::chipkill::SymbolOutcome::Due => panic!("single error is correctable"),
        }
    }
}

// ---- Fault ranges ---------------------------------------------------

#[test]
fn fault_range_intersection_symmetric() {
    let geom = DramGeometry::x8_2gb();
    let mut r = rng(13);
    for _ in 0..CASES {
        let mut ra = StdRng::seed_from_u64(r.gen());
        let mut rb = StdRng::seed_from_u64(r.gen());
        let ea = FaultExtent::ALL[ra.gen_range(0..6)];
        let eb = FaultExtent::ALL[rb.gen_range(0..6)];
        let a = FaultRange::sample(&mut ra, ea, &geom);
        let b = FaultRange::sample(&mut rb, eb, &geom);
        assert_eq!(a.intersect(&b), b.intersect(&a));
        assert!(a.overlaps(&a));
        // Intersection is "smaller": anything overlapping the intersection
        // overlaps both.
        if let Some(x) = a.intersect(&b) {
            assert!(x.overlaps(&a) && x.overlaps(&b));
        }
    }
}

// ---- Functional XED system -----------------------------------------

#[test]
fn xed_roundtrips_arbitrary_lines() {
    use xed::core::{XedConfig, XedDimm};
    let mut r = rng(14);
    for _ in 0..32 {
        let n = r.gen_range(1..8usize);
        let lines: Vec<[u64; 8]> = (0..n).map(|_| random_words(&mut r)).collect();
        let mut dimm = XedDimm::new(XedConfig::default());
        for (i, line) in lines.iter().enumerate() {
            dimm.write_line(i as u64, line);
        }
        for (i, line) in lines.iter().enumerate() {
            let out = dimm.read_line(i as u64).unwrap();
            assert_eq!(&out.data, line);
        }
    }
}

// ---- (40,32) x4 SECDED ----------------------------------------------

#[test]
fn crc8_32_roundtrip_and_single_bit() {
    use xed::ecc::secded::{Crc8Atm32, Decode32};
    let code = Crc8Atm32::new();
    let mut r = rng(15);
    for _ in 0..CASES {
        let data: u32 = r.gen();
        let bit = r.gen_range(0..40u32);
        let w = code.encode(data);
        assert_eq!(code.decode(w), Decode32::Clean { data });
        let rx = w.with_bit_flipped(bit);
        assert_eq!(code.decode(rx), Decode32::Corrected { data, bit });
    }
}

// ---- XED-on-Chipkill (x4) ---------------------------------------------

#[test]
fn xed_chipkill_survives_any_two_chip_failures() {
    use xed::core::fault::{FaultKind, InjectedFault};
    use xed::core::xed_chipkill::XedChipkillSystem;
    let mut r = rng(16);
    let mut tested = 0;
    while tested < 64 {
        let seed: u64 = r.gen();
        let mut line = [0u32; 16];
        for w in &mut line {
            *w = r.gen();
        }
        let a = r.gen_range(0..18usize);
        let mut b = r.gen_range(0..18usize);
        while b == a {
            b = r.gen_range(0..18usize);
        }
        let mut sys = XedChipkillSystem::new(seed);
        // Avoid lines whose data equals a catch-word (tested separately).
        if (0..16).any(|i| line[i] == sys.catch_word(i)) {
            continue;
        }
        sys.write_line(0, &line);
        sys.inject_fault(a, InjectedFault::chip(FaultKind::Permanent));
        sys.inject_fault(b, InjectedFault::chip(FaultKind::Permanent));
        let out = sys.read_line(0).unwrap();
        assert_eq!(out.data, line);
        tested += 1;
    }
}

// ---- Trace files ------------------------------------------------------

#[test]
fn trace_file_serialization_roundtrip() {
    use xed::memsim::tracefile::FileTrace;
    let mut r = rng(17);
    for _ in 0..32 {
        let n = r.gen_range(1..50usize);
        let ops: Vec<(u64, bool, u64)> = (0..n)
            .map(|_| {
                (
                    r.gen_range(1..10_000u64),
                    r.gen::<bool>(),
                    r.gen_range(0..1u64 << 40),
                )
            })
            .collect();
        let text: String = ops
            .iter()
            .map(|(gap, w, addr)| {
                format!("{gap} {} {:#x}\n", if *w { "W" } else { "R" }, addr * 64)
            })
            .collect();
        let mut parsed: FileTrace = text.parse().unwrap();
        assert_eq!(parsed.len(), ops.len());
        for (gap, is_write, line_addr) in ops {
            let op = parsed.next_op();
            assert_eq!(op.gap, gap);
            assert_eq!(op.is_write, is_write);
            assert_eq!(op.line_addr, line_addr);
        }
    }
}

#[test]
fn xed_survives_one_random_chip_failure() {
    use xed::core::fault::{FaultKind, InjectedFault};
    use xed::core::{XedConfig, XedDimm};
    let mut r = rng(18);
    for _ in 0..64 {
        let line: [u64; 8] = random_words(&mut r);
        let chip = r.gen_range(0..9usize);
        let transient: bool = r.gen();
        let mut dimm = XedDimm::new(XedConfig::default());
        dimm.write_line(0, &line);
        let kind = if transient {
            FaultKind::Transient
        } else {
            FaultKind::Permanent
        };
        dimm.inject_fault(chip, InjectedFault::chip(kind));
        let out = dimm.read_line(0).unwrap();
        assert_eq!(out.data, line);
    }
}
