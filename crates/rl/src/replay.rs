//! Experience replay over state keys.
//!
//! A transition stores its two states as opaque key words (for PrefixRL,
//! the prefix graph's canonical present-node bitset, 5 words at 16b and 65
//! at 64b), not as feature tensors. Features and legal-action masks are
//! pure functions of the state, so [`crate::DoubleDqn::train_step`] asks
//! its caller to decode the sampled keys into reused buffers. The replay
//! then costs bytes per transition instead of `4·N²` floats per state.

use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// One environment transition with a two-objective reward vector.
///
/// The states are the caller's keys; the caller's decode function turns a
/// key back into features, and `next_state`'s key into the legal-action
/// mask that restricts the Double-DQN target maximization (the paper masks
/// illegal Q-values to `-∞`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Key words of the state acted in.
    pub state: Box<[u64]>,
    /// Flat action index taken.
    pub action: usize,
    /// Vector reward `[r_area, r_delay]`.
    pub reward: [f32; 2],
    /// Key words of the state reached.
    pub next_state: Box<[u64]>,
    /// Whether the episode terminated (no bootstrapping). Time-limit
    /// truncations should leave this `false`.
    pub done: bool,
}

/// A fixed-capacity ring buffer of transitions with uniform sampling.
///
/// The paper uses a buffer of up to 4×10⁵ transitions.
///
/// The buffer serializes in full — storage, ring cursor, and push counter —
/// so a deserialized buffer continues evicting and sampling exactly where
/// the original left off (checkpoint/resume determinism).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    storage: Vec<Transition>,
    next: usize,
    pushed: u64,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            capacity,
            storage: Vec::with_capacity(capacity.min(1 << 16)),
            next: 0,
            pushed: 0,
        }
    }

    /// Adds a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.storage.len() < self.capacity {
            self.storage.push(t);
        } else {
            self.storage[self.next] = t;
        }
        self.next = (self.next + 1) % self.capacity;
        self.pushed += 1;
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Total transitions ever pushed (for statistics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// The stored transitions in storage order (push order until the ring
    /// wraps).
    pub fn iter(&self) -> impl Iterator<Item = &Transition> {
        self.storage.iter()
    }

    /// Samples `batch` transitions uniformly with replacement.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn sample<'a>(&'a self, rng: &mut StdRng, batch: usize) -> Vec<&'a Transition> {
        assert!(!self.is_empty(), "cannot sample from empty replay buffer");
        (0..batch)
            .map(|_| &self.storage[rng.random_range(0..self.storage.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(tag: u64) -> Transition {
        Transition {
            state: Box::new([tag]),
            action: 0,
            reward: [tag as f32, -(tag as f32)],
            next_state: Box::new([tag + 1]),
            done: false,
        }
    }

    #[test]
    fn fills_then_evicts_oldest() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.total_pushed(), 5);
        let tags: Vec<u64> = buf.iter().map(|x| x.state[0]).collect();
        // Ring overwrote 0 and 1.
        assert!(tags.contains(&2) && tags.contains(&3) && tags.contains(&4));
    }

    #[test]
    fn sampling_is_uniform_ish() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(t(i));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = [0usize; 4];
        for s in buf.sample(&mut rng, 4000) {
            counts[s.state[0] as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            buf.push(t(i));
        }
        let a: Vec<u64> = buf
            .sample(&mut StdRng::seed_from_u64(7), 16)
            .iter()
            .map(|t| t.state[0])
            .collect();
        let b: Vec<u64> = buf
            .sample(&mut StdRng::seed_from_u64(7), 16)
            .iter()
            .map(|t| t.state[0])
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_roundtrip_preserves_ring_state() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i));
        }
        let v = serde::Serialize::to_value(&buf);
        let mut back: ReplayBuffer = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back.len(), buf.len());
        assert_eq!(back.total_pushed(), buf.total_pushed());
        // The ring cursor survived: the next push must evict the same slot
        // in both buffers.
        buf.push(t(99));
        back.push(t(99));
        assert!(buf.iter().eq(back.iter()), "stored transitions differ");
        // And sampling under the same seed stays identical.
        let sample = |b: &ReplayBuffer| -> Vec<u64> {
            b.sample(&mut StdRng::seed_from_u64(3), 8)
                .iter()
                .map(|t| t.state[0])
                .collect()
        };
        assert_eq!(sample(&buf), sample(&back));
    }

    #[test]
    #[should_panic(expected = "empty replay")]
    fn sampling_empty_panics() {
        let buf = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = buf.sample(&mut rng, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        ReplayBuffer::new(0);
    }
}
