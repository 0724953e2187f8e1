//! Data-path entry points for the verification oracles (`xed-testkit`).
//!
//! The Monte-Carlo response model in `xed-faultsim` abstracts each fault
//! arrival into a verdict (Corrected / DUE / SDC). The functions here
//! realize those abstract outcomes *concretely*: they build a functional
//! memory system, inject a real corruption pattern, perform a real read
//! through the real decoders, and classify what came out. The exhaustive
//! small-geometry oracle (DESIGN.md §12) uses them as the independent
//! side of its differential comparison.
//!
//! Two helpers pin the micro-architectural assumption a model draw
//! encodes: [`with_miss_at`] crafts a fault whose corruption at a chosen
//! address is a *codeword* of the on-die CRC8-ATM code — the chip decodes
//! it as clean and transmits wrong data (the paper's 0.8 % "on-die
//! detection miss", Section VI) — while [`with_event_at`] guarantees the
//! opposite. Both verify the constructed pattern against the bit-serial
//! *reference* decoder in `xed_ecc::reference`, not the production
//! mask–popcount kernels, so the oracle does not inherit a kernel bug.

use crate::chip::{ChipGeometry, WordAddr};
use crate::dimm::{XedConfig, XedDimm};
use crate::fault::InjectedFault;
use crate::secded_dimm::{SecdedDimm, SecdedReadout};
use crate::xed_chipkill::XedChipkillSystem;
use xed_ecc::reference::crc8_u64_bitserial;

/// Three-way classification of one realized line read.
///
/// `Corrected` covers both "clean" and "corrected": the oracle compares
/// against the Monte-Carlo verdict with `Benign` folded into `Corrected`
/// (both mean the access returned the right data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathOutcome {
    /// The read returned the written data.
    Corrected,
    /// The read reported a detected uncorrectable error.
    Due,
    /// The read silently returned wrong data.
    Sdc,
}

/// The line pattern every oracle read/write uses (distinct per chip so a
/// mis-correction that swaps chips cannot alias back to "correct").
const LINE_X8: [u64; 8] = [
    0x0102_0304_0506_0708,
    0x1112_1314_1516_1718,
    0x2122_2324_2526_2728,
    0x3132_3334_3536_3738,
    0x4142_4344_4546_4748,
    0x5152_5354_5556_5758,
    0x6162_6364_6566_6768,
    0x7172_7374_7576_7778,
];

/// Cap on the deterministic corruption-seed searches. The searched
/// property holds per seed with probability ≈ 1/256 ([`with_miss_at`]) or
/// ≈ 255/256 ([`with_event_at`]), so 2¹⁷ candidates put the failure
/// probability below 2⁻⁷⁰⁰.
const SEARCH_CAP: u64 = 1 << 17;

/// Replaces `fault`'s corruption seed so that its (72,64) corruption at
/// `addr` is a nonzero *codeword* of the on-die CRC8-ATM code: the chip's
/// on-die decode sees a clean word and transmits wrong data — a concrete
/// on-die detection miss at that address.
///
/// Deterministic: scans candidate seeds from a fixed base. Verified
/// against the bit-serial reference CRC.
pub fn with_miss_at(fault: InjectedFault, addr: WordAddr) -> InjectedFault {
    for seed in 0..SEARCH_CAP {
        let candidate = fault.with_seed(0xD15E_A5E0u64.wrapping_add(seed));
        let (dx, cx) = candidate.corruption(addr);
        if cx == crc8_u64_bitserial(dx) {
            return candidate;
        }
    }
    // invariant: a 1/256-per-candidate search over 2^17 dense splitmix64
    // corruption patterns cannot exhaust without finding a codeword.
    unreachable_search()
}

/// Replaces `fault`'s corruption seed so that its corruption at `addr` is
/// *not* a codeword: the on-die decode flags an event (detection or
/// correction), which is what the DC-Mux turns into a catch-word.
pub fn with_event_at(fault: InjectedFault, addr: WordAddr) -> InjectedFault {
    for seed in 0..SEARCH_CAP {
        let candidate = fault.with_seed(0xE4E2_7000u64.wrapping_add(seed));
        let (dx, cx) = candidate.corruption(addr);
        if cx != crc8_u64_bitserial(dx) {
            return candidate;
        }
    }
    unreachable_search()
}

/// Search-exhaustion sink, kept out of line so the search loops stay
/// branch-light. Never reached (see [`SEARCH_CAP`]).
#[cold]
fn unreachable_search() -> InjectedFault {
    // invariant: callers searched 2^17 independent ≈1/256 (or ≈255/256)
    // candidates, so exhaustion is statistically impossible.
    unreachable!("corruption-seed search exhausted {SEARCH_CAP} candidates") // xed-analyze: allow(XL003) — see invariant
}

/// Realizes one line read through the conventional 9-chip SECDED DIMM
/// with the given faults injected (chip index, fault).
pub fn secded_read(faults: &[(usize, InjectedFault)], line: u64) -> PathOutcome {
    let mut dimm = SecdedDimm::new(ChipGeometry::small());
    dimm.write_line(line, &LINE_X8);
    for &(chip, fault) in faults {
        dimm.inject_fault(chip, fault);
    }
    match dimm.read_line(line) {
        SecdedReadout::Due { .. } => PathOutcome::Due,
        SecdedReadout::Ok { data, .. } => {
            if data == LINE_X8 {
                PathOutcome::Corrected
            } else {
                PathOutcome::Sdc
            }
        }
    }
}

/// Realizes one line read through the 9-chip XED DIMM (catch-words,
/// RAID-3 parity, serial mode, Inter-/Intra-Line diagnosis) with the
/// given faults injected.
pub fn xed_read(faults: &[(usize, InjectedFault)], line: u64) -> PathOutcome {
    let mut dimm = XedDimm::new(XedConfig::default());
    dimm.write_line(line, &LINE_X8);
    for &(chip, fault) in faults {
        dimm.inject_fault(chip, fault);
    }
    match dimm.read_line(line) {
        Err(_) => PathOutcome::Due,
        Ok(readout) => {
            if readout.data == LINE_X8 {
                PathOutcome::Corrected
            } else {
                PathOutcome::Sdc
            }
        }
    }
}

/// Realizes one line read through the 18-chip x4 XED + Chipkill system
/// (catch-word erasures into RS(18,16)) with the given faults injected.
pub fn xed_chipkill_read(faults: &[(usize, InjectedFault)], line: u64, seed: u64) -> PathOutcome {
    let mut sys = XedChipkillSystem::new(seed);
    let data: [u32; 16] = core::array::from_fn(|i| 0x0101_0101u32.wrapping_mul(i as u32 + 1));
    sys.write_line(line, &data);
    for &(chip, fault) in faults {
        sys.inject_fault(chip, fault);
    }
    match sys.read_line(line) {
        Err(_) => PathOutcome::Due,
        Ok(readout) => {
            if readout.data == data {
                PathOutcome::Corrected
            } else {
                PathOutcome::Sdc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{DramChip, OnDieCode};
    use crate::fault::FaultKind;

    fn addr() -> WordAddr {
        WordAddr {
            bank: 0,
            row: 1,
            col: 2,
        }
    }

    #[test]
    fn miss_pattern_is_invisible_to_the_on_die_decoder() {
        let fault = with_miss_at(InjectedFault::word(addr(), FaultKind::Permanent), addr());
        let mut chip = DramChip::new(ChipGeometry::small(), OnDieCode::Crc8Atm);
        chip.write(addr(), 0xABCD);
        chip.inject_fault(fault);
        let bus = chip.read(addr());
        assert!(!bus.on_die_event, "a codeword-xor corruption decodes clean");
        assert_ne!(bus.value, 0xABCD, "and the transmitted data is wrong");
    }

    #[test]
    fn event_pattern_is_always_flagged() {
        let fault = with_event_at(InjectedFault::word(addr(), FaultKind::Permanent), addr());
        let mut chip = DramChip::new(ChipGeometry::small(), OnDieCode::Crc8Atm);
        chip.write(addr(), 0xABCD);
        chip.inject_fault(fault);
        assert!(chip.read(addr()).on_die_event);
    }

    #[test]
    fn secded_read_classifies_clean_and_chip_fault() {
        assert_eq!(secded_read(&[], 0), PathOutcome::Corrected);
        // A dead chip defeats DIMM SECDED one way or the other.
        let out = secded_read(&[(3, InjectedFault::chip(FaultKind::Permanent))], 0);
        assert_ne!(out, PathOutcome::Corrected);
    }

    #[test]
    fn xed_read_reconstructs_single_chip_fault() {
        let out = xed_read(&[(3, InjectedFault::chip(FaultKind::Permanent))], 0);
        assert_eq!(out, PathOutcome::Corrected);
    }

    #[test]
    fn xed_chipkill_read_survives_two_chip_faults() {
        let faults = [
            (2, InjectedFault::chip(FaultKind::Permanent)),
            (9, InjectedFault::chip(FaultKind::Permanent)),
        ];
        assert_eq!(
            xed_chipkill_read(&faults, 0, 0xCA7C),
            PathOutcome::Corrected
        );
    }
}
