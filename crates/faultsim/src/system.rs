//! Channel/rank/chip organization of the simulated memory systems.

use crate::geometry::DramGeometry;

/// Device width of the DRAM parts a system is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceWidth {
    /// x8 parts: 8 data pins, 64-bit word per cache-line access.
    X8,
    /// x4 parts: 4 data pins, 32-bit word per cache-line access.
    X4,
}

/// Physical organization of a simulated memory system.
///
/// The paper's baseline (Section III): 4 channels, each with a dual-ranked
/// 4GB DIMM of 2Gb x8 devices — i.e. 2 ranks × 9 chips per channel for
/// ECC-DIMM-based systems, or 2 ranks × 18 x4-chips per channel for
/// chipkill-based systems (Section IX).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// DRAM devices per rank (including ECC/check devices).
    pub chips_per_rank: u32,
    /// Device width.
    pub width: DeviceWidth,
    /// Per-device geometry.
    pub geometry: DramGeometry,
}

impl SystemConfig {
    /// The x8 baseline: 4 channels × 2 ranks × 9 chips (ECC-DIMM).
    pub fn x8_ecc_dimm() -> Self {
        Self {
            channels: 4,
            ranks_per_channel: 2,
            chips_per_rank: 9,
            width: DeviceWidth::X8,
            geometry: DramGeometry::x8_2gb(),
        }
    }

    /// The x8 non-ECC baseline: 4 channels × 2 ranks × 8 chips.
    pub fn x8_non_ecc() -> Self {
        Self {
            chips_per_rank: 8,
            ..Self::x8_ecc_dimm()
        }
    }

    /// The x4 chipkill organization: 4 channels × 2 ranks × 18 chips
    /// (16 data + 2 check devices per rank).
    pub fn x4_chipkill() -> Self {
        Self {
            channels: 4,
            ranks_per_channel: 2,
            chips_per_rank: 18,
            width: DeviceWidth::X4,
            geometry: DramGeometry::x4_2gb(),
        }
    }

    /// Total ranks in the system.
    pub fn total_ranks(&self) -> u32 {
        self.channels * self.ranks_per_channel
    }

    /// Total DRAM devices in the system.
    pub fn total_chips(&self) -> u32 {
        self.total_ranks() * self.chips_per_rank
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::x8_ecc_dimm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x8_baseline_has_72_chips() {
        let s = SystemConfig::x8_ecc_dimm();
        assert_eq!(s.total_chips(), 72);
        assert_eq!(s.total_ranks(), 8);
    }

    #[test]
    fn x4_chipkill_has_144_chips() {
        let s = SystemConfig::x4_chipkill();
        assert_eq!(s.total_chips(), 144);
    }

    #[test]
    fn non_ecc_has_64_chips() {
        assert_eq!(SystemConfig::x8_non_ecc().total_chips(), 64);
    }
}
