//! FNV-1a, the hash behind every driver's replay fingerprint.
//!
//! Drivers fold the `Debug` text of each submitted batch (plus its
//! routing prefix) into a running hash; a same-seed replay must
//! reproduce it byte for byte. [`FnvWriter`] lets `write!` feed that
//! text straight into the hash instead of building a `String` first.

use std::fmt;

/// FNV-1a 64-bit offset basis: the hash of the empty stream.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Folds `bytes` into `hash`.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// A [`fmt::Write`] sink that folds formatted text into an FNV-1a hash
/// without allocating: `write!(FnvWriter(&mut h), "{x}")` leaves `h`
/// exactly as `fnv1a(&mut h, format!("{x}").as_bytes())` would.
pub struct FnvWriter<'a>(pub &'a mut u64);

impl fmt::Write for FnvWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn writer_matches_hashing_the_formatted_string() {
        let (idx, v) = (4711usize, [1.5f64, -2.0]);
        let mut via_string = FNV_OFFSET;
        fnv1a(&mut via_string, format!("{idx}|{v:?}").as_bytes());
        let mut via_writer = FNV_OFFSET;
        write!(FnvWriter(&mut via_writer), "{idx}|{v:?}").unwrap();
        assert_eq!(via_writer, via_string);
        assert_ne!(via_writer, FNV_OFFSET);
    }
}
