//! CRC-32 (the IEEE 802.3 polynomial, reflected, as zlib's `crc32`
//! computes it), dependency-free. Used to checksum WAL records and
//! snapshots so a torn or bit-flipped tail is *detected* rather than
//! replayed.
//!
//! CRC-32 is linear over GF(2): any single-bit flip always changes
//! the checksum, and any burst error shorter than 32 bits is caught —
//! exactly the corruption classes a torn append produces.
//!
//! ## Slicing-by-16
//!
//! The textbook table CRC folds one byte per step, and each step's
//! table index depends on the previous step's result: one chain of
//! dependent loads, about 300 MB/s. [`crc32_update`] instead folds 16
//! bytes per step with 16 tables, `TABLES[j][b]` being the CRC
//! contribution of byte `b` followed by `j` zero bytes. The state is
//! XORed into the block's first four bytes, and the 16 lookups of a
//! block are independent of each other, so the core issues them
//! together and only the final XOR waits on the previous block. The
//! last `len % 16` bytes go through the bytewise loop.
//!
//! Both loops compute the same function, so the checksum — and every
//! byte on disk — is bit-identical to zlib's `crc32` whatever the
//! input's length, alignment or split into [`crc32_update`] calls
//! (the tests check the sliced loop against the bytewise one, and two
//! MiB-sized inputs against values zlib computed).

/// Reflected polynomial for IEEE CRC-32.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// `TABLES[0]` is the bytewise table; `TABLES[j][b]` advances
/// `TABLES[j - 1][b]` over one more zero byte.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// The bytewise CRC step over `data`: the tail of [`crc32_update`],
/// and the oracle its sliced loop is tested against.
fn crc32_update_bytewise(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Continue a CRC over `data` from a previous [`crc32_update`] state.
/// Start from `!0` and finish by inverting (see [`crc32`]).
pub(crate) fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut blocks = data.chunks_exact(SLICE);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    crc32_update_bytewise(c, blocks.remainder())
}

/// The CRC-32 of `data` (IEEE, as produced by zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` bytes of a 64-bit LCG's top byte, from `seed`.
    fn lcg_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

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

    #[test]
    fn sliced_crc_equals_the_bytewise_oracle() {
        // Random bytes, every length 0..=80 (zero to five blocks and
        // every remainder), start offsets 0..16 into the buffer (so
        // no alignment is assumed), several start states, and every
        // split of the input into two chained updates.
        let buf = lcg_bytes(7, 96);
        for state in [!0u32, 0, 0x1234_5678, 0x8000_0001] {
            for offset in 0..SLICE {
                for len in 0..=80 {
                    let data = &buf[offset..offset + len];
                    let want = crc32_update_bytewise(state, data);
                    assert_eq!(
                        crc32_update(state, data),
                        want,
                        "state {state:#x} offset {offset} len {len}"
                    );
                    for split in 0..=len {
                        let (a, b) = data.split_at(split);
                        assert_eq!(
                            crc32_update(crc32_update(state, a), b),
                            want,
                            "state {state:#x} offset {offset} len {len} split {split}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mib_inputs_match_zlib() {
        // Values from Python's `zlib.crc32` over the same bytes:
        // `bytes((i*i + (i >> 11)) & 0xff for i in range(1 << 20))`,
        // and 3 MiB + 13 bytes of the LCG's top byte from seed
        // 0x9E3779B97F4A7C15 (`lcg_bytes`).
        let a: Vec<u8> = (0..1usize << 20)
            .map(|i| (i.wrapping_mul(i) + (i >> 11)) as u8)
            .collect();
        assert_eq!(crc32(&a), 0x8BCF_CF83);
        let b = lcg_bytes(0x9E37_79B9_7F4A_7C15, (3 << 20) + 13);
        assert_eq!(crc32(&b), 0x3B66_6A5A);
        // One chained split mid-block agrees with the one-shot value.
        assert_eq!(
            !crc32_update(crc32_update(!0, &b[..1001]), &b[1001..]),
            0x3B66_6A5A
        );
    }
}
