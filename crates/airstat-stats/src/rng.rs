//! Deterministic, hierarchical seed derivation.
//!
//! A fleet simulation draws random numbers in thousands of independent
//! places: every network layout, every client's usage profile, every link's
//! shadowing term. If all of those shared one RNG stream, adding a single
//! draw anywhere would perturb every downstream value, making tests brittle
//! and regressions impossible to localize.
//!
//! [`SeedTree`] solves this by deriving *labelled child seeds* from a parent
//! seed with a small keyed mixer (SplitMix64 over a FNV-1a label hash). The
//! same `(seed, label-path)` always yields the same child, and distinct
//! labels yield statistically independent streams. Components receive a
//! subtree and never touch their siblings' randomness.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixing function.
///
/// This is the `splitmix64` step function from Steele et al., commonly used
/// to expand and decorrelate seed material.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string, used to turn labels into seed material.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A node in a deterministic seed-derivation tree.
///
/// # Examples
///
/// ```
/// use airstat_stats::rng::SeedTree;
/// use rand::Rng;
///
/// let root = SeedTree::new(42);
/// let mut net_rng = root.child("network").indexed(7).rng();
/// let x: f64 = net_rng.gen();
///
/// // The same path always reproduces the same stream.
/// let mut again = SeedTree::new(42).child("network").indexed(7).rng();
/// assert_eq!(x, again.gen::<f64>());
///
/// // Sibling paths are decorrelated.
/// let mut other = SeedTree::new(42).child("network").indexed(8).rng();
/// assert_ne!(x, other.gen::<f64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    state: u64,
}

impl SeedTree {
    /// Creates a root node from a user-facing seed.
    ///
    /// The seed is pre-mixed so that small seeds (0, 1, 2, ...) still yield
    /// well-distributed child states.
    pub fn new(seed: u64) -> Self {
        SeedTree {
            state: splitmix64(seed ^ 0x000A_1757_A70B_A5E0),
        }
    }

    /// Derives a child node labelled by a string.
    pub fn child(&self, label: &str) -> Self {
        SeedTree {
            state: splitmix64(self.state ^ fnv1a(label.as_bytes())),
        }
    }

    /// Derives a child node labelled by an index (e.g. the n-th AP).
    pub fn indexed(&self, index: u64) -> Self {
        // Mix the index through splitmix64 first so that consecutive
        // indices do not land on consecutive internal states.
        SeedTree {
            state: splitmix64(self.state ^ splitmix64(index ^ INDEX_DOMAIN)),
        }
    }

    /// Instantiates a fast, non-cryptographic RNG for this node.
    pub fn rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.state)
    }
}

/// Domain-separation constant so that `indexed(n)` and `child(&n.to_string())`
/// never alias.
const INDEX_DOMAIN: u64 = 0x1D5E_ED00_00D0_4A11;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn same_path_same_stream() {
        let a = SeedTree::new(7).child("rf").indexed(3);
        let b = SeedTree::new(7).child("rf").indexed(3);
        assert_eq!(a.state, b.state);
        let (mut ra, mut rb) = (a.rng(), b.rng());
        for _ in 0..32 {
            assert_eq!(ra.gen::<u64>(), rb.gen::<u64>());
        }
    }

    #[test]
    fn sibling_labels_differ() {
        let root = SeedTree::new(7);
        assert_ne!(root.child("rf").state, root.child("traffic").state);
    }

    #[test]
    fn sibling_indices_differ() {
        let node = SeedTree::new(7).child("ap");
        let states: HashSet<u64> = (0..10_000).map(|i| node.indexed(i).state).collect();
        assert_eq!(states.len(), 10_000, "indexed children must not collide");
    }

    #[test]
    fn different_roots_differ() {
        assert_ne!(SeedTree::new(0).state, SeedTree::new(1).state);
    }

    #[test]
    fn label_order_matters() {
        let root = SeedTree::new(9);
        assert_ne!(
            root.child("a").child("b").state,
            root.child("b").child("a").state
        );
    }

    #[test]
    fn small_seeds_produce_spread_states() {
        // Consecutive seeds must not produce nearby states; check the top
        // byte varies across the first 256 seeds.
        let tops: HashSet<u8> = (0..256)
            .map(|s| (SeedTree::new(s).state >> 56) as u8)
            .collect();
        assert!(
            tops.len() > 100,
            "top byte spread too small: {}",
            tops.len()
        );
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a 64-bit of empty string is the offset basis.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        // And of "a" per the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn splitmix_is_bijective_sample() {
        // splitmix64 is a bijection; sample a few million would be slow,
        // so check a modest set for collisions.
        let outs: HashSet<u64> = (0..100_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 100_000);
    }
}
