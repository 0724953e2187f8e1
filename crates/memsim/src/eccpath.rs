//! Functional ECC datapath for the cycle-level simulator.
//!
//! The reliability overlays in [`crate::overlay`] model ECC purely through
//! its *timing* footprint (burst extension, extra transactions, rank
//! ganging). This module adds the *functional* half: with
//! [`crate::sim::SimConfig::functional_ecc`] enabled, every completed
//! demand read also pushes a synthesized 64-byte cache line through the
//! batched (72,64) CRC8-ATM [`SecDed::decode_line`] kernel — the same
//! word-parallel decode the memory controller models in `xed-core` use —
//! so the simulated access path exercises the real coding-theory hot path
//! end to end.
//!
//! Everything is deterministic: line contents are synthesized from the
//! line address with a splitmix64-style mixer, and a sparse, hash-selected
//! subset of addresses carries an injected single-bit (correctable) or
//! double-bit (detected-uncorrectable) error. Two runs with the same
//! address stream therefore produce identical [`EccPathStats`].

use xed_ecc::crc8::Crc8Atm;
use xed_ecc::secded::{LineOutcome, SecDed, BEATS_PER_LINE};
use xed_telemetry::registry::metrics;

/// One in `2^SINGLE_FLIP_SHIFT` lines carries a single-bit error.
const SINGLE_FLIP_SHIFT: u32 = 7;
/// One in `2^DOUBLE_FLIP_SHIFT` lines carries a double-bit error instead.
const DOUBLE_FLIP_SHIFT: u32 = 13;

/// Decode-path counters accumulated over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EccPathStats {
    /// Cache lines pushed through the batched decoder.
    pub lines_decoded: u64,
    /// Beats whose single-bit error the code corrected.
    pub beats_corrected: u64,
    /// Lines with at least one detected-uncorrectable beat.
    pub due_lines: u64,
}

/// The functional (72,64) CRC8-ATM decode stage of the read path.
#[derive(Debug, Clone)]
pub struct EccDatapath {
    code: Crc8Atm,
    stats: EccPathStats,
}

/// splitmix64 finalizer: a cheap, well-mixed hash of a 64-bit value.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EccDatapath {
    /// Builds the datapath.
    pub fn new() -> Self {
        Self {
            code: Crc8Atm::new(),
            stats: EccPathStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> EccPathStats {
        self.stats
    }

    /// Publishes this datapath's totals into the global registry
    /// (`memsim.eccpath.*`, plus the consumer-attributed `ecc.*` kernel
    /// counters — the kernels themselves are telemetry-free). Called once
    /// per simulation at its merge point; gated on
    /// [`xed_telemetry::enabled`].
    pub fn publish(&self) {
        if !xed_telemetry::enabled() {
            return;
        }
        let s = self.stats;
        metrics::MEMSIM_ECCPATH_LINES_DECODED.add(s.lines_decoded);
        metrics::MEMSIM_ECCPATH_BEATS_CORRECTED.add(s.beats_corrected);
        metrics::MEMSIM_ECCPATH_DUE_LINES.add(s.due_lines);
        metrics::ECC_LINES_DECODED.add(s.lines_decoded);
        metrics::ECC_WORDS_DECODED.add(s.lines_decoded * BEATS_PER_LINE as u64);
        metrics::ECC_CORRECTIONS.add(s.beats_corrected);
        metrics::ECC_DUE_WORDS.add(s.due_lines);
    }

    /// Decodes the (synthesized) cache line at `line_addr`: encode eight
    /// beats, apply the address's deterministic error pattern, and run the
    /// batched line decode.
    pub fn read_line(&mut self, line_addr: u64) -> LineOutcome {
        let mut data = [0u64; BEATS_PER_LINE];
        for (b, w) in data.iter_mut().enumerate() {
            *w = mix64(line_addr.wrapping_mul(BEATS_PER_LINE as u64) + b as u64);
        }
        let mut beats = self.code.encode_line(&data);

        // Sparse deterministic error injection, keyed off the address.
        let h = mix64(line_addr ^ 0xECC0_DE00_5EED_0001);
        if h & ((1 << DOUBLE_FLIP_SHIFT) - 1) == 1 {
            let beat = ((h >> 24) % BEATS_PER_LINE as u64) as usize;
            let i = ((h >> 32) % 72) as u32;
            let j = ((h >> 40) % 71) as u32;
            let j = if j >= i { j + 1 } else { j };
            beats[beat] = beats[beat].with_bit_flipped(i).with_bit_flipped(j);
        } else if h & ((1 << SINGLE_FLIP_SHIFT) - 1) == 0 {
            let beat = ((h >> 24) % BEATS_PER_LINE as u64) as usize;
            let i = ((h >> 32) % 72) as u32;
            beats[beat] = beats[beat].with_bit_flipped(i);
        }

        let out = self.code.decode_line(&beats);
        self.stats.lines_decoded += 1;
        self.stats.beats_corrected += u64::from(out.corrected_count());
        if out.is_due() {
            self.stats.due_lines += 1;
        }
        out
    }
}

impl Default for EccDatapath {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_counts_consistent() {
        let mut a = EccDatapath::new();
        let mut b = EccDatapath::new();
        for addr in 0..4096u64 {
            let ra = a.read_line(addr * 64);
            let rb = b.read_line(addr * 64);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().lines_decoded, 4096);
        // The injection rates guarantee both event kinds show up over a
        // 4096-line sweep, and most lines stay clean.
        assert!(a.stats().beats_corrected > 0);
        assert!(a.stats().due_lines > 0);
        assert!(a.stats().beats_corrected + a.stats().due_lines < 1024);
    }

    #[test]
    fn corrected_line_recovers_synthesized_data() {
        let mut path = EccDatapath::new();
        // Find an address whose injected error is a single-bit flip and
        // check the decode returns the original synthesized words.
        let mut seen_correction = false;
        for addr in 0..2048u64 {
            let out = path.read_line(addr);
            if out.corrected_count() > 0 && !out.is_due() {
                seen_correction = true;
                let expect: Vec<u64> = (0..BEATS_PER_LINE as u64)
                    .map(|b| mix64(addr.wrapping_mul(BEATS_PER_LINE as u64) + b))
                    .collect();
                assert_eq!(&out.data[..], &expect[..]);
            }
        }
        assert!(seen_correction);
    }
}
