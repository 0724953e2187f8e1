//! Internal organization of a DRAM device.

/// Geometry of one DRAM device (chip), in units of on-die ECC words.
///
/// The paper's baseline devices are 2Gb x8 parts organized as 8 banks ×
/// 32K rows × 128 cache-line columns (Table V); each column access makes
/// the chip supply one 64-bit word (8 bursts of 8 bits), which is also the
/// granularity of the on-die ECC. So the device's address space, at on-die
/// word granularity, is `banks × rows × cols` 64-bit words:
/// 8 × 32768 × 128 × 64 bits = 2 Gbit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Banks per device.
    pub banks: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Cache-line columns per row (each contributes one 64-bit word per
    /// device).
    pub cols: u32,
    /// Bits per on-die ECC word (64 for x8 devices; 32 for x4 devices,
    /// which supply 32 bits per cache-line access).
    pub word_bits: u32,
}

impl DramGeometry {
    /// The paper's 2Gb x8 device: 8 banks, 32K rows, 128 columns, 64-bit
    /// words (Table V).
    pub const fn x8_2gb() -> Self {
        Self {
            banks: 8,
            rows: 32 * 1024,
            cols: 128,
            word_bits: 64,
        }
    }

    /// A 2Gb x4 device: same array organization but each access supplies a
    /// 32-bit word, so twice the columns.
    pub const fn x4_2gb() -> Self {
        Self {
            banks: 8,
            rows: 32 * 1024,
            cols: 256,
            word_bits: 32,
        }
    }

    /// Total number of on-die ECC words.
    pub fn words(&self) -> u64 {
        self.banks as u64 * self.rows as u64 * self.cols as u64
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::x8_2gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capacity_bits(g: DramGeometry) -> u64 {
        g.words() * u64::from(g.word_bits)
    }

    #[test]
    fn x8_device_is_2gbit() {
        assert_eq!(capacity_bits(DramGeometry::x8_2gb()), 2u64 << 30);
        assert_eq!(DramGeometry::x8_2gb().words(), (2u64 << 30) / 64);
    }

    #[test]
    fn x4_device_is_2gbit() {
        assert_eq!(capacity_bits(DramGeometry::x4_2gb()), 2u64 << 30);
    }

    #[test]
    fn default_is_x8() {
        assert_eq!(DramGeometry::default(), DramGeometry::x8_2gb());
    }
}
