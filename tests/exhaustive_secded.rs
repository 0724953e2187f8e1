//! Exhaustive SECDED sweeps and golden constants (ISSUE satellite).
//!
//! The compile-time `const` proofs in `xed-ecc` show the syndrome *tables*
//! have the distance-4 structure; these tests drive the full runtime
//! encode/decode path through every error pattern the code claims to handle:
//!
//! * all 72 single-bit flips correct back to the original data, reporting
//!   the exact flipped position — for **both** (72,64) variants;
//! * all C(72,2) = 2556 double-bit flips are flagged `Detected` and never
//!   mis-corrected;
//! * the same sweep for the (40,32) x4 codec over its 40 positions;
//! * `FitRates::table_i()` is pinned to the paper's Table I values (also
//!   enforced at analysis time by xed-analyze rule XL007).

use xed::ecc::secded::{Crc8Atm32, Decode32, DecodeOutcome, SecDed};
use xed::ecc::{Crc8Atm, Hamming7264};
use xed::faultsim::fault::{FaultExtent, Persistence};
use xed::faultsim::fit::FitRates;

/// Data words chosen to exercise diverse bit patterns (sparse, dense,
/// alternating, byte-boundary, and random-looking).
const DATA_WORDS: [u64; 6] = [
    0,
    u64::MAX,
    0xAAAA_5555_AAAA_5555,
    0x0123_4567_89AB_CDEF,
    0x8000_0000_0000_0001,
    0xDEAD_BEEF_0BAD_F00D,
];

fn sweep_72<C: SecDed>(code: &C, name: &str) {
    for &data in &DATA_WORDS {
        let w = code.encode(data);
        assert_eq!(
            code.decode(w),
            DecodeOutcome::Clean { data },
            "{name}: clean decode"
        );

        // Every single-bit flip corrects to the original data and names the
        // flipped position.
        for i in 0..72 {
            let rx = w.with_bit_flipped(i);
            assert_eq!(
                code.decode(rx),
                DecodeOutcome::Corrected { data, bit: i },
                "{name}: single-bit flip at {i} (data {data:#x})"
            );
        }

        // Every double-bit flip is detected, never mis-corrected.
        for i in 0..72 {
            for j in (i + 1)..72 {
                let rx = w.with_bit_flipped(i).with_bit_flipped(j);
                assert_eq!(
                    code.decode(rx),
                    DecodeOutcome::Detected,
                    "{name}: double-bit flip at ({i},{j}) (data {data:#x})"
                );
            }
        }
    }
}

#[test]
fn hamming_exhaustive_single_and_double_sweep() {
    sweep_72(&Hamming7264::new(), "Hamming7264");
}

#[test]
fn crc8_atm_exhaustive_single_and_double_sweep() {
    sweep_72(&Crc8Atm::new(), "Crc8Atm");
}

#[test]
fn crc8_atm32_exhaustive_single_and_double_sweep() {
    let code = Crc8Atm32::new();
    for &data64 in &DATA_WORDS {
        let data = data64 as u32;
        let w = code.encode(data);
        assert_eq!(code.decode(w), Decode32::Clean { data });
        for i in 0..40 {
            let rx = w.with_bit_flipped(i);
            assert_eq!(
                code.decode(rx),
                Decode32::Corrected { data, bit: i },
                "x4 single-bit flip at {i} (data {data:#x})"
            );
        }
        for i in 0..40 {
            for j in (i + 1)..40 {
                let rx = w.with_bit_flipped(i).with_bit_flipped(j);
                assert_eq!(
                    code.decode(rx),
                    Decode32::Detected,
                    "x4 double-bit flip at ({i},{j}) (data {data:#x})"
                );
            }
        }
    }
}

/// Pins `FitRates::table_i()` to the paper's Table I (Sridharan & Liberty
/// per-chip FIT rates), including the folded multi-bank/multi-rank Chip row
/// and the derived totals. xed-analyze rule XL007 enforces the same values
/// at analysis time by linking against the crate.
#[test]
fn fit_rates_table_i_golden() {
    let rates = FitRates::table_i();
    let golden: [(FaultExtent, f64, f64); 6] = [
        (FaultExtent::Bit, 14.2, 18.6),
        (FaultExtent::Word, 1.4, 0.3),
        (FaultExtent::Column, 1.4, 5.6),
        (FaultExtent::Row, 0.2, 8.2),
        (FaultExtent::Bank, 0.8, 10.0),
        // multi-bank 0.3/1.4 + multi-rank 0.9/2.8 folded into Chip.
        (FaultExtent::Chip, 1.2, 4.2),
    ];
    assert_eq!(rates.rows().len(), golden.len());
    for (extent, t, p) in golden {
        assert!(
            (rates.fit_for(extent, Persistence::Transient) - t).abs() < 1e-12,
            "transient FIT drift for {extent:?}"
        );
        assert!(
            (rates.fit_for(extent, Persistence::Permanent) - p).abs() < 1e-12,
            "permanent FIT drift for {extent:?}"
        );
    }
    assert!((rates.total_fit() - 66.1).abs() < 1e-9);
    assert!((rates.large_fault_fit() - 33.3).abs() < 1e-9);
}
