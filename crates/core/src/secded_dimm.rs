//! A *conventional* 9-chip ECC-DIMM running DIMM-level (72,64) SECDED —
//! the baseline XED replaces.
//!
//! Each memory beat carries 8 bits from every chip: 64 data bits from the
//! eight data chips plus 8 check bits from the ninth. The memory
//! controller decodes each of the eight beats with a (72,64) SECDED code.
//! This is exactly the organization of Figure 2(a), and making it runnable
//! shows *why* the paper calls the 9th chip "superfluous" once chips have
//! on-die ECC:
//!
//! * single-bit faults — already absorbed by the on-die ECC, so the
//!   DIMM-level code has nothing to do;
//! * multi-bit chip faults — inject an 8-bit burst into every beat, which
//!   a SECDED code cannot correct, and (per Table II) may even silently
//!   *mis-correct*.

use crate::chip::{ChipGeometry, DramChip, OnDieCode};
use crate::fault::InjectedFault;
use xed_ecc::secded::{SecDed, BEATS_PER_LINE};
use xed_ecc::{CodeWord72, Hamming7264};
use xed_telemetry::registry::metrics;

const DATA_CHIPS: usize = 8;
const TOTAL_CHIPS: usize = 9;
const BEATS: usize = BEATS_PER_LINE;

/// Outcome of reading one cache line through DIMM-level SECDED.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecdedReadout {
    /// All beats decoded cleanly or with single-bit corrections.
    Ok {
        /// The (possibly corrected) cache line.
        data: [u64; DATA_CHIPS],
        /// Beats that needed a single-bit correction.
        corrected_beats: u32,
    },
    /// At least one beat had a detected-uncorrectable (double-bit or
    /// worse) error.
    Due {
        /// Number of uncorrectable beats.
        bad_beats: u32,
    },
}

/// Controller statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SecdedStats {
    /// Lines read.
    pub reads: u64,
    /// Single-bit beat corrections performed.
    pub corrections: u64,
    /// Detected uncorrectable lines.
    pub due_events: u64,
}

/// The conventional ECC-DIMM: nine chips + per-beat (72,64) SECDED.
#[derive(Debug)]
pub struct SecdedDimm {
    chips: Vec<DramChip>,
    code: Hamming7264,
    geometry: ChipGeometry,
    stats: SecdedStats,
}

impl SecdedDimm {
    /// Builds the DIMM (chips carry on-die ECC, the paper's Figure 1
    /// world).
    pub fn new(geometry: ChipGeometry) -> Self {
        let chips = (0..TOTAL_CHIPS)
            .map(|_| DramChip::new(geometry, OnDieCode::Crc8Atm))
            .collect();
        Self {
            chips,
            code: Hamming7264::new(),
            geometry,
            stats: SecdedStats::default(),
        }
    }

    /// The chip geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    /// Controller statistics.
    pub fn stats(&self) -> SecdedStats {
        self.stats
    }

    /// Injects a fault into chip `chip` (0–7 data, 8 ECC).
    pub fn inject_fault(&mut self, chip: usize, fault: InjectedFault) {
        self.chips[chip].inject_fault(fault);
    }

    /// Writes a cache line: data to the eight chips, per-beat SECDED check
    /// bytes to the ninth.
    pub fn write_line(&mut self, line: u64, data: &[u64; DATA_CHIPS]) {
        let addr = self.geometry.addr(line);
        for (i, &w) in data.iter().enumerate() {
            self.chips[i].write(addr, w);
        }
        // Beat b carries byte b of every chip's 64-bit word.
        let mut check_word = [0u8; BEATS];
        for (b, slot) in check_word.iter_mut().enumerate() {
            let beat = gather_beat(data, b);
            *slot = self.code.encode(beat).check();
        }
        self.chips[DATA_CHIPS].write(addr, u64::from_be_bytes(check_word));
    }

    /// Reads a cache line, decoding each beat with the (72,64) SECDED code.
    pub fn read_line(&mut self, line: u64) -> SecdedReadout {
        self.stats.reads += 1;
        let addr = self.geometry.addr(line);
        let mut words = [0u64; TOTAL_CHIPS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.chips[i].read(addr).value;
        }
        let check_bytes = words[DATA_CHIPS].to_be_bytes();

        let mut data = [0u64; DATA_CHIPS];
        data.copy_from_slice(&words[..DATA_CHIPS]);
        // Assemble all eight received beats, then decode the whole line in
        // one batched call — this is the controller's access-path kernel.
        let mut beats = [CodeWord72::default(); BEATS];
        for (b, w) in beats.iter_mut().enumerate() {
            *w = CodeWord72::new(gather_beat(&data, b), check_bytes[b]);
        }
        let out = self.code.decode_line(&beats);
        self.stats.corrections += u64::from(out.corrected_count());
        if out.is_due() {
            self.stats.due_events += 1;
            SecdedReadout::Due {
                bad_beats: out.bad_beats.count_ones(),
            }
        } else {
            for b in xed_ecc::bits::set_bits64(out.corrected_beats as u64) {
                scatter_beat(&mut data, b as usize, out.data[b as usize]);
            }
            SecdedReadout::Ok {
                data,
                corrected_beats: out.corrected_count(),
            }
        }
    }
}

/// Drop is the DIMM's merge point: its totals are published once (the
/// type is not `Clone`), gated on [`xed_telemetry::enabled`].
impl Drop for SecdedDimm {
    fn drop(&mut self) {
        if !xed_telemetry::enabled() {
            return;
        }
        metrics::CORE_SECDED_READS.add(self.stats.reads);
        metrics::CORE_SECDED_CORRECTIONS.add(self.stats.corrections);
        metrics::CORE_SECDED_DUE.add(self.stats.due_events);
    }
}

/// Byte `b` of each data chip's word, assembled MSB-first into the beat's
/// 64 data bits (chip 0 in the high byte).
fn gather_beat(data: &[u64; DATA_CHIPS], b: usize) -> u64 {
    let mut beat = 0u64;
    for &w in data.iter() {
        beat = (beat << 8) | w.to_be_bytes()[b] as u64;
    }
    beat
}

/// Inverse of [`gather_beat`].
fn scatter_beat(data: &mut [u64; DATA_CHIPS], b: usize, beat: u64) {
    let bytes = beat.to_be_bytes();
    for (chip, &byte) in bytes.iter().enumerate() {
        let mut w = data[chip].to_be_bytes();
        w[b] = byte;
        data[chip] = u64::from_be_bytes(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    const LINE: [u64; 8] = [0x0102_0304_0506_0708, 2, 3, 4, 5, 6, 7, 8];

    fn dimm() -> SecdedDimm {
        let mut d = SecdedDimm::new(ChipGeometry::small());
        for l in 0..8 {
            d.write_line(l, &LINE);
        }
        d
    }

    #[test]
    fn beat_gather_scatter_roundtrip() {
        let data = LINE;
        for b in 0..8 {
            let beat = gather_beat(&data, b);
            let mut copy = data;
            scatter_beat(&mut copy, b, beat);
            assert_eq!(copy, data);
        }
        // Chip 0's byte lands in the beat's most significant byte.
        assert_eq!(gather_beat(&LINE, 0) >> 56, 0x01);
        assert_eq!(gather_beat(&LINE, 7) >> 56, 0x08);
    }

    #[test]
    fn clean_roundtrip() {
        let mut d = dimm();
        match d.read_line(0) {
            SecdedReadout::Ok {
                data,
                corrected_beats,
            } => {
                assert_eq!(data, LINE);
                assert_eq!(corrected_beats, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chip_failure_defeats_dimm_secded() {
        // The Figure 1 story: an 8-bit-per-beat burst is beyond SECDED.
        let mut d = dimm();
        d.inject_fault(3, InjectedFault::chip(FaultKind::Permanent));
        let mut fine = 0;
        let mut due = 0;
        for l in 0..8 {
            match d.read_line(l) {
                SecdedReadout::Due { .. } => due += 1,
                SecdedReadout::Ok { data, .. } => {
                    // A silently "Ok" line here is a *mis-correction* —
                    // allowed by Hamming's weak burst detection, but the
                    // data must then be wrong (we never get lucky-right).
                    if data == LINE {
                        fine += 1;
                    }
                }
            }
        }
        assert_eq!(fine, 0, "no line can read back correct through a dead chip");
        assert!(due >= 4, "most lines are detected uncorrectable, got {due}");
    }

    #[test]
    fn ecc_chip_failure_also_fatal() {
        let mut d = dimm();
        d.inject_fault(8, InjectedFault::chip(FaultKind::Permanent));
        // Check-byte garbage: beats decode as single-bit-in-check
        // (harmless) or uncorrectable; data itself is intact either way
        // when beats say Ok.
        let mut due = 0;
        for l in 0..8 {
            if let SecdedReadout::Due { .. } = d.read_line(l) {
                due += 1;
            }
        }
        assert!(due >= 1);
    }

    #[test]
    fn bit_faults_invisible_with_on_die_ecc() {
        // The "superfluous 9th chip" premise: on-die ECC already absorbs
        // the single-bit faults that DIMM SECDED was built for.
        let mut d = dimm();
        let addr = d.geometry().addr(1);
        d.inject_fault(5, InjectedFault::bit(addr, 20, FaultKind::Permanent));
        match d.read_line(1) {
            SecdedReadout::Ok {
                data,
                corrected_beats,
            } => {
                assert_eq!(data, LINE);
                assert_eq!(corrected_beats, 0, "on-die ECC fixed it first");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dimm();
        let _ = d.read_line(0);
        d.inject_fault(2, InjectedFault::chip(FaultKind::Permanent));
        let _ = d.read_line(1);
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert!(s.due_events >= 1 || s.corrections >= 1);
    }
}
