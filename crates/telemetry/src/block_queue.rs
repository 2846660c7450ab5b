//! A FIFO that grows by fixed blocks.
//!
//! The trace ring, its field arena and its spill queue are only ever
//! pushed at the back, released at the front and read in between. A
//! `VecDeque` serves that by doubling one buffer into place — for 1.6
//! million field slots a 33.5 MB buffer, reallocated on the way up and
//! a third of it never used. Here growth is one more block and a
//! drained front block is the next back block: what is allocated stays
//! within two blocks of what is live, nothing is ever moved, and a full
//! ring recycles the blocks it has.

/// Items per block: 64 KB of field slots, 128 KB of events.
const BLOCK: usize = 1 << 12;

#[derive(Debug)]
pub(crate) struct BlockQueue<T> {
    /// The full blocks, oldest first; the first has `head` released
    /// items at its front (as `back` has while there is no full one). A
    /// released item is dropped when its block is recycled, not when it
    /// is released.
    full: Vec<Vec<T>>,
    /// The block being filled, held apart so that a push is a `Vec`'s.
    back: Vec<T>,
    head: usize,
    len: usize,
    /// The last block drained, kept for the next push that needs one.
    spare: Option<Vec<T>>,
}

// Not derived: that would ask for `T: Default`.
impl<T> Default for BlockQueue<T> {
    fn default() -> BlockQueue<T> {
        BlockQueue {
            full: Vec::new(),
            back: Vec::new(),
            head: 0,
            len: 0,
            spare: None,
        }
    }
}

impl<T> BlockQueue<T> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn push_back(&mut self, item: T) {
        if self.back.len() == BLOCK {
            self.retire_back();
        }
        self.back.push(item);
        self.len += 1;
    }

    /// Files the full back block and starts the next in the spare, or
    /// in a new block. (The very first block is the empty `Vec` a new
    /// queue starts with and grows as one, so a trace of twenty events
    /// does not reserve four thousand.)
    #[cold]
    fn retire_back(&mut self) {
        let next = self.spare.take();
        let next = next.unwrap_or_else(|| Vec::with_capacity(BLOCK));
        self.full.push(std::mem::replace(&mut self.back, next));
    }

    /// Releases the oldest `n` items (`n <= len`).
    #[inline]
    pub(crate) fn release_front(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head += n;
        self.len -= n;
        if self.head >= BLOCK || (self.len == 0 && self.head > 0) {
            self.recycle_front();
        }
    }

    /// Takes the fully released blocks off the front; the last of them
    /// becomes the spare.
    #[cold]
    fn recycle_front(&mut self) {
        if self.len == 0 {
            // Nothing is live: only the block being filled is kept.
            self.full.clear();
            self.back.clear();
            self.head = 0;
        }
        while self.head >= BLOCK {
            let mut drained = self.full.remove(0);
            drained.clear();
            self.spare = Some(drained);
            self.head -= BLOCK;
        }
    }

    /// Block `b`, oldest first: a full one, or past them the back.
    #[inline]
    fn block(&self, b: usize) -> &[T] {
        match self.full.get(b) {
            Some(full) => full,
            None => &self.back,
        }
    }

    /// The `i`-th oldest item.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        let at = self.head + i;
        self.block(at / BLOCK).get(at % BLOCK)
    }

    /// The items at `range`, oldest first.
    pub(crate) fn range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &T> {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // An event's few field slots nearly always lie in one block:
        // that part is a plain slice, and the rest is usually nothing.
        let from = self.head + range.start;
        let block = self.block(from / BLOCK);
        let first = &block[(from % BLOCK).min(block.len())..];
        let first = &first[..first.len().min(range.len())];
        let rest = range.start + first.len()..range.end;
        let rest = rest.map(move |i| self.get(i).expect("the range lies inside the queue"));
        first.iter().chain(rest)
    }

    /// Every item, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let live = self.head..self.head + self.len;
        let blocks = self.full.iter().chain(std::iter::once(&self.back));
        blocks.enumerate().flat_map(move |(b, block)| {
            let from = live.start.saturating_sub(b * BLOCK).min(block.len());
            let to = live.end.saturating_sub(b * BLOCK).min(block.len());
            block[from..to].iter()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn agrees_with_a_vecdeque_through_growth_wrap_and_drain() {
        let mut q = BlockQueue::default();
        let mut model = VecDeque::new();
        let mut next = 0u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        // Grow past several blocks, hold steady (every push releases
        // as much), drain to nothing, and grow again.
        for (pushes, releases) in [(3, 1), (1, 1), (1, 3), (2, 1)] {
            for _ in 0..9_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                for _ in 0..state % (2 * pushes + 1) {
                    q.push_back(next);
                    model.push_back(next);
                    next += 1;
                }
                let n = ((state >> 8) % (2 * releases + 1)).min(model.len() as u64) as usize;
                q.release_front(n);
                model.drain(..n);
                assert_eq!(q.len(), model.len());
                assert_eq!(q.get(0), model.front());
                assert_eq!(q.get(q.len().wrapping_sub(1)), model.back());
                assert_eq!(q.get(q.len()), None);
            }
            assert!(q.iter().eq(model.iter()));
            let mid = model.len() / 2;
            let end = (mid + 7).min(model.len());
            assert!(q.range(mid..end).eq(model.range(mid..end)));
            // Blocks are recycled, not hoarded: beside the one being
            // filled, at most one more full block than the live items
            // need.
            assert!(q.full.len() <= model.len() / BLOCK + 1);
        }
    }

    #[test]
    fn allocates_nothing_until_used_and_little_for_a_short_trace() {
        let mut q = BlockQueue::default();
        assert_eq!((q.full.capacity(), q.back.capacity()), (0, 0));
        (0..20u32).for_each(|i| q.push_back(i));
        assert!(q.back.capacity() < 64);
    }

    #[test]
    fn a_released_item_is_dropped_no_later_than_its_block() {
        let item = std::rc::Rc::new(());
        let mut q = BlockQueue::default();
        (0..BLOCK + 1).for_each(|_| q.push_back(item.clone()));
        q.release_front(BLOCK);
        assert_eq!(std::rc::Rc::strong_count(&item), 2);
        q.release_front(1);
        assert_eq!(std::rc::Rc::strong_count(&item), 1);
    }
}
