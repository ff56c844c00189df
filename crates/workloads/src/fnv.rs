//! FNV-1a, the hash behind every driver's replay fingerprint.
//!
//! Drivers fold the `Debug` text of each submitted batch (plus its
//! routing prefix) into a running hash; a same-seed replay must
//! reproduce it byte for byte. [`FnvWriter`] lets `write!` feed that
//! text straight into the hash instead of building a `String` first.
//!
//! # Folding a fixed string in O(1)
//!
//! [`FnvJump`] folds one fixed byte string `S` in constant time, with
//! the same result as folding it byte by byte. With `P` the FNV prime,
//! `l` the low byte of the state `h`, and all arithmetic wrapping mod
//! 2^64:
//!
//! ```text
//! fnv1a(h, S) == h·P^|S| + K_S[l]
//! ```
//!
//! A byte XOR changes only the low byte, so `h ^ b == h + ((l ^ b) − l)`,
//! and one step is `h·P + c(l, b)` with `c(l, b) = ((l ^ b) − l)·P`.
//! The low 8 bits of a product depend only on the low 8 bits of its
//! factors, so the next low byte, `((l ^ b)·P) mod 256`, depends on `l`
//! alone. By induction, the whole walk over `S` adds a term that
//! depends on `S` and the first low byte only, and multiplies `h` by
//! `P^|S|`. Starting the walk at `h = l` gives that term:
//! `K_S[l] = fnv1a(l, S) − l·P^|S|`, one walk of `S` per low byte. No
//! step drops a bit, so the identity is exact for every state.

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

/// An exact O(1) FNV-1a fold of one fixed byte string (see the module
/// docs): `jump.apply(h)` equals `h` after `fnv1a(&mut h, s)`, for
/// every state `h`. Building one costs 256 walks of `s`.
pub struct FnvJump {
    /// `P^|s|`.
    scale: u64,
    /// `K_s[l] = fnv1a(l, s) − l·P^|s|`, indexed by the low byte `l`.
    offset: [u64; 256],
}

impl FnvJump {
    /// The jump over `s`.
    pub fn new(s: &[u8]) -> FnvJump {
        let scale = s.iter().fold(1u64, |p, _| p.wrapping_mul(FNV_PRIME));
        let offset = std::array::from_fn(|l| {
            let mut h = l as u64;
            fnv1a(&mut h, s);
            h.wrapping_sub((l as u64).wrapping_mul(scale))
        });
        FnvJump { scale, offset }
    }

    /// The state after folding the string into `hash`.
    pub fn apply(&self, hash: u64) -> u64 {
        hash.wrapping_mul(self.scale)
            .wrapping_add(self.offset[(hash & 0xff) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    fn folded(mut hash: u64, s: &[u8]) -> u64 {
        fnv1a(&mut hash, s);
        hash
    }

    /// Every low byte, under a fixed high part and under none, for the
    /// empty string, one byte, and a text longer than 256 bytes.
    #[test]
    fn jump_matches_the_byte_fold_at_every_low_byte() {
        let long = format!("|{:?}", (0..80u32).collect::<Vec<_>>());
        for s in [&b""[..], b"\xff", b"RegionId(7)", long.as_bytes()] {
            let jump = FnvJump::new(s);
            for l in 0..256u64 {
                for high in [0, FNV_OFFSET & !0xff, !0xff] {
                    let h = high | l;
                    assert_eq!(jump.apply(h), folded(h, s), "s={s:?} h={h:#x}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn jump_equals_the_byte_fold(
            s in prop::collection::vec(any::<u8>(), 0..601),
            hashes in prop::collection::vec(any::<u64>(), 1..8),
        ) {
            let jump = FnvJump::new(&s);
            for h in hashes.into_iter().chain([FNV_OFFSET]) {
                prop_assert_eq!(jump.apply(h), folded(h, &s));
            }
        }
    }
}
