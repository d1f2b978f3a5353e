//! A deterministic time-ordered event queue.
//!
//! Events at equal timestamps pop in insertion order, so a simulation is a
//! pure function of its inputs and seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue ordered by (time, insertion sequence).
///
/// Each entry's order is one packed `u128` key: the time's bits (mapped so
/// that unsigned order is [`f64::total_cmp`] order) above the insertion
/// sequence, so every heap comparison is a single integer compare.
///
/// A discrete-event loop usually pushes right after it pops. So `pop`
/// copies the earliest entry out but leaves it stored as a *vacant* top:
/// the next `push` overwrites it and sifts once (instead of a pop's sift
/// plus a push's sift), and the next `pop` discards it first. Either way
/// events come out in exactly `(time, seq)` order.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    /// Whether the heap's top was already returned by [`EventQueue::pop`].
    vacant: bool,
}

#[derive(Debug)]
struct Entry<E> {
    key: u128,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    // The heap's sifts compare with these; spelled out so each is one
    // integer compare rather than an `Ordering` round trip.
    fn lt(&self, other: &Self) -> bool {
        other.key < self.key
    }

    fn le(&self, other: &Self) -> bool {
        other.key <= self.key
    }

    fn gt(&self, other: &Self) -> bool {
        other.key > self.key
    }

    fn ge(&self, other: &Self) -> bool {
        other.key >= self.key
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest event;
        // ties break by insertion order (earlier seq first).
        other.key.cmp(&self.key)
    }
}

/// `time`'s bits, remapped so that unsigned order equals
/// [`f64::total_cmp`] order (`-0.0` before `+0.0`).
fn time_bits(time: f64) -> u64 {
    let b = time.to_bits();
    if b >> 63 == 0 {
        b | 1 << 63
    } else {
        !b
    }
}

/// Inverse of [`time_bits`].
fn bits_time(bits: u64) -> f64 {
    f64::from_bits(if bits >> 63 == 1 {
        bits & !(1 << 63)
    } else {
        !bits
    })
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            vacant: false,
        }
    }

    /// Schedules `payload` at absolute `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and non-negative"
        );
        let entry = Entry {
            key: u128::from(time_bits(time)) << 64 | u128::from(self.seq),
            payload,
        };
        self.seq += 1;
        if self.vacant {
            self.vacant = false;
            *self.heap.peek_mut().expect("a vacant top is stored") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.vacant {
            self.heap.pop();
        }
        let top = self.heap.peek();
        self.vacant = top.is_some();
        top.map(|e| (bits_time((e.key >> 64) as u64), e.payload))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        // Under a vacant top the next event is one of its two children.
        let live = &self.heap.as_slice()[usize::from(self.vacant)..];
        let key = if self.vacant {
            live.iter().take(2).map(|e| e.key).min()
        } else {
            live.first().map(|e| e.key)
        };
        key.map(|k| bits_time((k >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.vacant)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_pushes_and_pops_match_a_sorted_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut q = EventQueue::new();
        let mut reference: Vec<(f64, u32)> = Vec::new();
        let mut now = 0.0;
        for id in 0..5000u32 {
            if rng.gen_bool(0.55) {
                // Coarse times so that ties are common.
                let t = now + f64::from(rng.gen_range(0u32..4)) * 0.25;
                q.push(t, id);
                reference.push((t, id));
            } else {
                // Stable sort: equal times keep insertion order.
                reference.sort_by(|a, b| a.0.total_cmp(&b.0));
                let want = (!reference.is_empty()).then(|| reference.remove(0));
                assert_eq!(q.peek_time(), want.map(|w| w.0));
                assert_eq!(q.pop(), want);
                if let Some((t, _)) = want {
                    now = t;
                }
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.is_empty(), reference.is_empty());
        }
    }

    #[test]
    fn packed_keys_keep_total_order_and_times() {
        let times = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            3.25e7,
            f64::MAX,
        ];
        for &a in &times {
            assert_eq!(bits_time(time_bits(a)).to_bits(), a.to_bits());
            for &b in &times {
                assert_eq!(
                    time_bits(a).cmp(&time_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
        let mut q = EventQueue::new();
        q.push(0.0, 1);
        q.push(-0.0, 0);
        q.push(0.0, 2);
        assert_eq!(q.peek_time().map(f64::to_bits), Some((-0.0f64).to_bits()));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
