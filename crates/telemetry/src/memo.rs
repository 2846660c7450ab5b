//! The record path's one lookup mechanism: a direct-mapped memo from
//! where a string lives — its address and length — to what a table
//! found for it last time.
//!
//! Three tables sit behind one: the trace's `'static` and shared-string
//! intern tables and the registry's series maps, whose slots hold both a
//! series' total and its sim-time buckets.
//! A call site hands in the same strings on every call (literals, a
//! `Name`'s buffer, a resolver's label), so their whereabouts find the
//! answer for two compares, where the table behind would hash and probe.
//! A miss costs what the table did before the memo, plus a store.
//!
//! What a hit is worth is each table's business. An intern table
//! believes it: a `'static` address is its content, and a shared
//! string's address is pinned by the strong reference the table keeps.
//! A series table compares the series it names with the key first,
//! because a freed `String`'s address can come back with other bytes.

/// Slots in a memo, as a power of two. A run's hot strings are a few
/// dozen literals and series plus its shared names; 1 024 slots keep
/// collisions among them rare (a sixteen-slot table thrashed on a
/// dozen labelled series).
const BITS: u32 = 10;
const SLOTS: usize = 1 << BITS;

#[derive(Clone, Copy, Default)]
struct Entry<V> {
    /// With `len`, `(0, 0)` in an empty slot, which no key is: a
    /// string's address is never zero, and a key that hashes several
    /// strings carries their count of one or more as its length.
    addr: usize,
    len: usize,
    value: V,
}

/// A fixed-size, direct-mapped memo keyed by an `(address, length)`
/// pair. It holds nothing, and allocates nothing, until the first
/// [`AddrMemo::insert`].
#[derive(Clone, Default)]
pub(crate) struct AddrMemo<V> {
    slots: Option<Box<[Entry<V>; SLOTS]>>,
}

/// The slot a key maps to: the key's two words folded by one multiply,
/// top bits kept.
#[inline]
fn slot_of(addr: usize, len: usize) -> usize {
    let word = addr as u64 ^ (len as u64).rotate_left(32);
    (word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - BITS)) as usize
}

impl<V: Copy + Default> AddrMemo<V> {
    /// What was stored for `(addr, len)`, unless another key has
    /// taken its slot since.
    #[inline]
    pub(crate) fn get(&self, addr: usize, len: usize) -> Option<V> {
        let entry = &self.slots.as_deref()?[slot_of(addr, len)];
        (entry.addr == addr && entry.len == len).then_some(entry.value)
    }

    /// Remembers `value` for `(addr, len)`, evicting whatever shared
    /// its slot.
    pub(crate) fn insert(&mut self, addr: usize, len: usize, value: V) {
        let slots = self
            .slots
            .get_or_insert_with(|| Box::new([Entry::default(); SLOTS]));
        slots[slot_of(addr, len)] = Entry { addr, len, value };
    }
}

/// A memo is a cache of the table it fronts: its slots are noise in a
/// table's debug output.
impl<V> std::fmt::Debug for AddrMemo<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddrMemo")
            .field("allocated", &self.slots.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_memo_is_empty_and_unallocated_until_its_first_store() {
        let mut memo: AddrMemo<u32> = AddrMemo::default();
        assert!(memo.slots.is_none());
        assert_eq!(memo.get(0x1000, 3), None);
        memo.insert(0x1000, 3, 7);
        assert_eq!(memo.get(0x1000, 3), Some(7));
        // The same address at another length is another key.
        assert_eq!(memo.get(0x1000, 4), None);
        assert_eq!(std::mem::size_of::<AddrMemo<u32>>(), 8);
    }

    #[test]
    fn a_key_that_takes_a_slot_evicts_the_one_before() {
        let mut memo: AddrMemo<u32> = AddrMemo::default();
        let first = (0x1000usize, 5usize);
        memo.insert(first.0, first.1, 1);
        let rival = (1..)
            .map(|i| (0x1000 + 8 * i, 5))
            .find(|&(a, l)| slot_of(a, l) == slot_of(first.0, first.1))
            .unwrap();
        memo.insert(rival.0, rival.1, 2);
        assert_eq!(memo.get(first.0, first.1), None);
        assert_eq!(memo.get(rival.0, rival.1), Some(2));
    }
}
