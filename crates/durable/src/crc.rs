//! CRC-32 (the IEEE 802.3 polynomial), table-driven and
//! dependency-free. Used to checksum WAL records and snapshots so a
//! torn or bit-flipped tail is *detected* rather than replayed.
//!
//! CRC-32 is linear over GF(2): any single-bit flip always changes
//! the checksum, and any burst error shorter than 32 bits is caught —
//! exactly the corruption classes a torn append produces.

/// Reflected polynomial for IEEE CRC-32.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Continue a CRC over `data` from a previous [`crc32_update`] state.
/// Start from `!0` and finish by inverting (see [`crc32`]).
pub(crate) fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The CRC-32 of `data` (IEEE, as produced by zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_update_agrees_with_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32(data);
        let mut state = !0u32;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(!state, whole);
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }
}
