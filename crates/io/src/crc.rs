//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-8.
//!
//! The workspace builds fully offline, so the checksum is implemented here
//! rather than pulled from crates.io. Every `.pmb` section payload and the
//! header + section table carry one of these; a flipped bit anywhere in a
//! checkpoint surfaces as a typed [`crate::IoError`] instead of garbage
//! entities.
//!
//! The kernel folds eight bytes per step through eight 256-entry tables
//! (built at compile time by a `const fn`): table `k` advances a byte's
//! contribution past `k` further zero bytes, so the eight lookups of a step
//! are independent and XOR together. The 0–7 bytes left over go through
//! table 0 one at a time, the classic bytewise loop. The result is the
//! bytewise CRC's for every input (`tests` keeps that loop as the oracle);
//! it runs several times faster.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 of `data` (init all-ones, final xor — the zlib/PNG variant).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The bytewise loop the crate first shipped: the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn equals_bytewise_at_every_length_and_offset() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(&[0u8; 64]);
        let mut buf = [0u8; 64];
        buf[40] ^= 1;
        assert_ne!(crc32(&buf), a);
    }
}
