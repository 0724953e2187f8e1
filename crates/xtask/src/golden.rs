//! Golden-value rules XL007/XL008: the linked constants must match the
//! paper. These call into the library crates, so they compare what the
//! binaries will actually run with — not a regex over source text.

use crate::analyze::Finding;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xed_faultsim::fault::{FaultExtent, Persistence};
use xed_faultsim::fit::FitRates;

fn finding(rule: &'static str, file: &str, message: String) -> Finding {
    Finding::error(rule, file, 0, String::new(), message)
}

/// XL007: `FitRates::table_i()` must reproduce paper Table I (Sridharan &
/// Liberty's per-chip FIT rates) exactly, including the folded multi-bank
/// and multi-rank contributions and the derived totals.
pub fn check_fit_table() -> Vec<Finding> {
    const FILE: &str = "crates/faultsim/src/fit.rs";
    let mut out = Vec::new();
    let rates = FitRates::table_i();

    // (extent, transient FIT, permanent FIT) from Table I; Chip folds
    // multi-bank 0.3/1.4 and multi-rank 0.9/2.8 into 1.2/4.2.
    let golden: [(FaultExtent, f64, f64); 6] = [
        (FaultExtent::Bit, 14.2, 18.6),
        (FaultExtent::Word, 1.4, 0.3),
        (FaultExtent::Column, 1.4, 5.6),
        (FaultExtent::Row, 0.2, 8.2),
        (FaultExtent::Bank, 0.8, 10.0),
        (FaultExtent::Chip, 1.2, 4.2),
    ];
    for (extent, t, p) in golden {
        let gt = rates.fit_for(extent, Persistence::Transient);
        let gp = rates.fit_for(extent, Persistence::Permanent);
        if (gt - t).abs() > 1e-12 || (gp - p).abs() > 1e-12 {
            out.push(finding(
                "XL007",
                FILE,
                format!("Table I drift for {extent:?}: shipped ({gt}, {gp}) FIT, paper ({t}, {p})"),
            ));
        }
    }
    if (rates.total_fit() - 66.1).abs() > 1e-9 {
        out.push(finding(
            "XL007",
            FILE,
            format!(
                "total_fit() = {} FIT, paper Table I totals 66.1",
                rates.total_fit()
            ),
        ));
    }
    if (rates.large_fault_fit() - 33.3).abs() > 1e-9 {
        out.push(finding(
            "XL007",
            FILE,
            format!(
                "large_fault_fit() = {} FIT, paper's multi-bit total is 33.3",
                rates.large_fault_fit()
            ),
        ));
    }
    out
}

/// XL008: the catch-word mechanism and DIMM geometries must match paper
/// §IV–V and §IX: a 9-chip ECC-DIMM (8 data + RAID-3 parity as the 9th),
/// an 18-device Chipkill rank (16 data + 2 check), 64-bit catch-words on
/// x8 parts and 32-bit on x4, all drawn uniquely per chip, and the
/// CRC8-ATM on-die polynomial 0x07.
pub fn check_catch_word_constants() -> Vec<Finding> {
    let mut out = Vec::new();

    if xed_core::controller::DATA_CHIPS != 8
        || xed_core::controller::PARITY_CHIP != 8
        || xed_core::controller::TOTAL_CHIPS != 9
    {
        out.push(finding(
            "XL008",
            "crates/core/src/controller.rs",
            format!(
                "ECC-DIMM geometry drift: {} data chips, parity at {}, {} total; the paper's \
                 commodity ECC-DIMM is 8 + 1 parity = 9 (§IV)",
                xed_core::controller::DATA_CHIPS,
                xed_core::controller::PARITY_CHIP,
                xed_core::controller::TOTAL_CHIPS
            ),
        ));
    }

    if xed_core::xed_chipkill::DATA_CHIPS != 16
        || xed_core::xed_chipkill::CHECK_CHIPS != 2
        || xed_core::xed_chipkill::TOTAL_CHIPS != 18
    {
        out.push(finding(
            "XL008",
            "crates/core/src/xed_chipkill.rs",
            format!(
                "Chipkill geometry drift: {} + {} = {} devices; the paper's x4 Chipkill rank \
                 is 16 data + 2 check = 18 (§IX-A)",
                xed_core::xed_chipkill::DATA_CHIPS,
                xed_core::xed_chipkill::CHECK_CHIPS,
                xed_core::xed_chipkill::TOTAL_CHIPS
            ),
        ));
    }

    if xed_ecc::secded::POLY != 0x07 {
        out.push(finding(
            "XL008",
            "crates/ecc/src/secded.rs",
            format!(
                "on-die CRC polynomial {:#04x}; the paper's recommended code is CRC8-ATM \
                 (x^8+x^2+x+1 = 0x07, §V-E)",
                xed_ecc::secded::POLY
            ),
        ));
    }

    // Behavioral spot-checks, deterministic by construction.
    let mut rng = StdRng::seed_from_u64(0x9ED);
    for _ in 0..64 {
        let cw = xed_core::catch_word::CatchWord::random_x4(&mut rng);
        if cw.value() > u64::from(u32::MAX) {
            out.push(finding(
                "XL008",
                "crates/core/src/catch_word.rs",
                format!(
                    "x4 catch-word {:#x} exceeds 32 bits; x4 transfers carry 32 bits (§IX-A)",
                    cw.value()
                ),
            ));
            break;
        }
    }
    let table = xed_core::catch_word::CatchWordTable::generate(&mut rng, 9);
    for i in 0..9 {
        for j in (i + 1)..9 {
            if table.word(i) == table.word(j) {
                out.push(finding(
                    "XL008",
                    "crates/core/src/catch_word.rs",
                    format!(
                        "catch-words for chips {i} and {j} collide; §V-A requires a unique \
                             word per chip"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_tree_is_golden() {
        assert!(check_fit_table().is_empty());
        assert!(check_catch_word_constants().is_empty());
    }
}
