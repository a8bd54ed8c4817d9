//! Fixed-capacity overwrite-oldest ring buffers — the flight-recorder
//! storage discipline: memory is bounded and reserved in full by the
//! first push, later pushes never allocate, and when the buffer is full the *newest* events win (the
//! interesting part of a crash trace is its tail). Overwrites are
//! counted so a truncated trace is always visibly truncated.

/// A fixed-capacity ring: pushes past capacity overwrite the oldest
/// element and bump the drop counter.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest element when full; 0 while filling.
    start: usize,
    dropped: u64,
}

impl<T: Copy> RingBuffer<T> {
    /// An empty ring holding at most `capacity` elements (at least 1).
    ///
    /// Storage is reserved in full by the first push: a ring nothing is
    /// pushed to allocates nothing, and no later push allocates.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap: capacity.max(1),
            start: 0,
            dropped: 0,
        }
    }

    /// Append `item`, overwriting (and counting) the oldest element if
    /// the ring is full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            if self.buf.capacity() == 0 {
                self.buf.reserve_exact(self.cap);
            }
            self.buf.push(item);
        } else {
            self.buf[self.start] = item;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of elements overwritten since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held elements, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.start..].iter().chain(&self.buf[..self.start])
    }

    /// The held elements, oldest first, mutably (e.g. to attach fault
    /// names post-hoc).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let (tail, head) = self.buf.split_at_mut(self.start);
        head.iter_mut().chain(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut r = RingBuffer::new(3);
        assert_eq!(r.buf.capacity(), 0, "an unused ring allocates nothing");
        for v in 1..=3 {
            r.push(v);
            assert_eq!(r.buf.capacity(), 3, "the first push reserves it all");
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [1, 2, 3]);
        r.push(4);
        r.push(5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [3, 4, 5]);
    }

    #[test]
    fn wraps_all_the_way_around() {
        let mut r = RingBuffer::new(4);
        for v in 0..11 {
            r.push(v);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [7, 8, 9, 10]);
        assert_eq!(r.dropped(), 7);
    }

    #[test]
    fn iter_mut_sees_oldest_first() {
        let mut r = RingBuffer::new(3);
        for v in 0..5 {
            r.push(v);
        }
        let seen: Vec<i32> = r.iter_mut().map(|v| *v).collect();
        assert_eq!(seen, [2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = RingBuffer::new(0);
        r.push(1);
        r.push(2);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2]);
    }
}
