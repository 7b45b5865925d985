//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the checksum that
//! guards a checkpoint file.
//!
//! Implemented from scratch (the workspace is offline) as the
//! classic reflected table-driven algorithm. CRC-32 detects **every**
//! single-bit error and every burst error up to 32 bits regardless of
//! message length, so a flipped bit or a changed digit anywhere in a
//! checkpoint never loads silently.

/// 256-entry lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CRC-32 "check" value from the catalogue of parametrised
    /// CRC algorithms: CRC-32/ISO-HDLC over ASCII "123456789".
    #[test]
    fn reference_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    /// The property the checkpoint leans on: flipping any single bit
    /// of a message changes its CRC.
    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let data: Vec<u8> = (0..97u8).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&mutated),
                    clean,
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}
