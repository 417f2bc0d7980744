//! Reservoir sampling (Algorithm R).
//!
//! The paper's Figure 1 is a *snapshot*: one evening in January 2015 the
//! backend sampled the RSSI of every currently-connected client (~309,000 of
//! them). Our backend does the same with a bounded-memory uniform sample so
//! that snapshot collection cost does not scale with fleet size.

use rand::Rng;

/// A fixed-capacity uniform random sample of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Creates an empty reservoir holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be > 0");
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offers one item to the reservoir.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            // Replace a random slot with probability capacity / seen.
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;

    #[test]
    fn fills_up_to_capacity() {
        let mut r = Reservoir::new(5);
        let mut rng = SeedTree::new(1).rng();
        for i in 0..3 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
        assert_eq!(r.seen, 3);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut r = Reservoir::new(10);
        let mut rng = SeedTree::new(2).rng();
        for i in 0..10_000 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items().len(), 10);
        assert_eq!(r.seen, 10_000);
    }

    #[test]
    fn sample_is_approximately_uniform() {
        // Offer 0..1000 into a size-100 reservoir many times; each value
        // should be retained ~10% of the time.
        let mut hits = vec![0u32; 1000];
        for trial in 0..400 {
            let mut rng = SeedTree::new(3).indexed(trial).rng();
            let mut r = Reservoir::new(100);
            for i in 0..1000usize {
                r.offer(i, &mut rng);
            }
            for &i in r.items() {
                hits[i] += 1;
            }
        }
        // Expected 40 hits each; allow generous tolerance.
        let min = *hits.iter().min().unwrap();
        let max = *hits.iter().max().unwrap();
        assert!(
            min > 10,
            "min hit count {min} too small — bias toward late items?"
        );
        assert!(
            max < 90,
            "max hit count {max} too large — bias toward early items?"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let _ = Reservoir::<u8>::new(0);
    }
}
