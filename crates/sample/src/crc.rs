//! CRC32, the workspace's one integrity digest (no external deps).

/// CRC32 (IEEE 802.3, the `cksum`/zlib polynomial) lookup table, built at
/// compile time.
static CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the integrity digest `phast-experiments`
/// seals `BENCH_*.json` artifacts and run-journal records with, and the
/// core-configuration fingerprint in its journal cell keys.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Any single-bit flip changes the digest.
        let a = crc32(b"checkpoint");
        let b = crc32(b"cheakpoint");
        assert_ne!(a, b);
    }
}
