//! The workspace's one fixed-key hasher, for hash maps read only by key.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–rotate over 64-bit words with a fixed key, so a map costs no
/// per-process `RandomState` draw and a probe no SipHash rounds.
///
/// A map hashed with it still has no order anyone may read: it is for
/// tables accessed strictly by key (the flow table, the scheduler's live
/// index), where the hash decides speed only. The output depends on the
/// input alone — never on the process or the build — and a unit test
/// pins it. It is not keyed against crafted collisions; use it only where
/// the map's size is bounded by the caller, not by an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

/// Builds [`FixedHasher`]s: the `S` parameter of a fixed-key map.
pub type BuildFixedHasher = BuildHasherDefault<FixedHasher>;

// `#[inline]` throughout: the maps that use it live in other crates, and
// a probe that calls out of line for every word costs more than the hash.
impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the high bits the best mixed; the map picks
        // buckets from the low ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn output_is_pinned_for_fixed_inputs() {
        let state = BuildFixedHasher::default();
        let words: Vec<u64> = [0u64, 1, 750_000, u64::MAX]
            .iter()
            .map(|w| state.hash_one(w))
            .collect();
        assert_eq!(
            words,
            [
                0,
                0xdc9c_882a_5545_f306,
                0x9d89_e82d_c1a8_96d2,
                0x2363_77d5_aeba_0cf9
            ]
        );
        let mut bytes = FixedHasher::default();
        bytes.write(b"fixed-key hasher");
        let mut tuple = FixedHasher::default();
        tuple.write_u64(7);
        tuple.write_u64(42);
        assert_eq!(
            [bytes.finish(), tuple.finish()],
            [0x6c1e_ed31_b1ce_170e, 0x5d6f_d263_4422_1a33]
        );
    }
}
