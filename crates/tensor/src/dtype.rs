//! Logical storage datatypes.
//!
//! Kernels in this reproduction always *compute* in `f32`, but the memory
//! system costs traffic in the bytes a real deployment would move. `DType`
//! carries that logical width. Sub-byte types (the whole point of
//! quantization) are expressed in bits so that e.g. AQLM's 12-bit packed
//! indices have an exact size.

/// Logical storage type of a tensor or index stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE-754 binary32.
    F32,
    /// IEEE-754 binary16 (the paper's baseline precision).
    F16,
    /// 8-bit integer.
    I8,
    /// 4-bit integer (AWQ / QoQ element-wise quantization).
    I4,
    /// Arbitrary bit-width per element (VQ index streams: 8, 12, 16 bits…).
    Bits(u8),
}

impl DType {
    /// Width of one element in bits.
    ///
    /// ```
    /// use vqllm_tensor::DType;
    /// assert_eq!(DType::F16.bits(), 16);
    /// assert_eq!(DType::Bits(12).bits(), 12);
    /// ```
    pub fn bits(self) -> u32 {
        match self {
            DType::F32 => 32,
            DType::F16 => 16,
            DType::I8 => 8,
            DType::I4 => 4,
            DType::Bits(b) => u32::from(b),
        }
    }

    /// Bytes needed to store `n` elements of this type, rounded up to whole
    /// bytes (packed storage, the way the paper's quantized formats work).
    pub fn bytes_for(self, n: usize) -> usize {
        (n * self.bits() as usize).div_ceil(8)
    }

    /// Size of a single element in bytes, rounded up. Useful for aligned
    /// (non-packed) layouts such as codebook entries.
    pub fn byte_width(self) -> usize {
        (self.bits() as usize).div_ceil(8)
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "fp32"),
            DType::F16 => write!(f, "fp16"),
            DType::I8 => write!(f, "int8"),
            DType::I4 => write!(f, "int4"),
            DType::Bits(b) => write!(f, "b{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_match_widths() {
        assert_eq!(DType::F32.bits(), 32);
        assert_eq!(DType::F16.bits(), 16);
        assert_eq!(DType::I8.bits(), 8);
        assert_eq!(DType::I4.bits(), 4);
        assert_eq!(DType::Bits(12).bits(), 12);
    }

    #[test]
    fn packed_bytes_round_up() {
        // 3 × 12-bit = 36 bits = 4.5 bytes → 5.
        assert_eq!(DType::Bits(12).bytes_for(3), 5);
        // 2 × 4-bit = 1 byte exactly.
        assert_eq!(DType::I4.bytes_for(2), 1);
        assert_eq!(DType::I4.bytes_for(3), 2);
        assert_eq!(DType::F16.bytes_for(10), 20);
    }

    #[test]
    fn byte_width_rounds_up() {
        assert_eq!(DType::Bits(12).byte_width(), 2);
        assert_eq!(DType::I4.byte_width(), 1);
        assert_eq!(DType::F32.byte_width(), 4);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(DType::F16.to_string(), "fp16");
        assert_eq!(DType::Bits(12).to_string(), "b12");
    }
}
