//! FNV-1a 64, the digest behind the result-cache keys. The build script
//! includes this file too, so the source fingerprint it folds into every
//! key comes from the same hasher.

/// FNV-1a 64 offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running digest `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}
