//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), the one
//! checksum of every byte format: `RPSSNAP1` artifacts, WAL records,
//! [`crate::CheckedStore`] page sums and `RPSWIRE1` frames.
//!
//! [`crc32`] is slicing-by-8 (Intel's "slicing" family of table CRCs):
//! table `k` holds the CRC contribution of a byte followed by `k` zero
//! bytes, so eight lookups fold eight input bytes per step instead of
//! one. The output is the plain bytewise CRC's, bit for bit; the
//! bytewise loop stays as this module's test oracle.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is
/// `TABLES[0][b]` pushed through `k` more zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3, the `cksum`/zlib polynomial) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[usize::from(w[4])]
            ^ t2[usize::from(w[5])]
            ^ t1[usize::from(w[6])]
            ^ t0[usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise reference: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 check values.
        for f in [crc32, crc32_bytewise] {
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn every_length_and_alignment_matches_the_bytewise_oracle() {
        // Lengths 0..=2048 cover every tail length (len % 8) many times
        // over; start offsets 0..8 cover every misalignment of the word.
        let buf: Vec<u8> = (0u32..2056)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=2048 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {off}, length {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_equals_the_bytewise_oracle(
            bytes in proptest::collection::vec(any::<u8>(), 0..2049),
            off in 0usize..8,
        ) {
            let mut buf = vec![0u8; off];
            buf.extend_from_slice(&bytes);
            let s = &buf[off..];
            prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }
}
