//! Finding a key's entries by a 64-bit hash of its values.
//!
//! A hash join's build rows and an aggregation's groups are entries numbered
//! as they are added, and both operators find the entries of a key the same
//! way: the key's [`hash_values`](crate::row::hash_values) leads to a chain
//! of every entry added under that hash, in the order added, and the caller
//! keeps the entries whose values are the key's
//! ([`same_encoding`](crate::row::same_encoding) part by part). Two keys whose
//! hashes collide share a chain and stay apart. No key is encoded to find it.
//!
//! The hash is [`FxHasher`](vedb_sim::FxHasher)'s, unkeyed: the keys are
//! rows the simulated workloads generate; an engine joining untrusted
//! clients' rows would want a keyed hash. The map is never iterated, so its
//! order does not matter.

use std::collections::hash_map::Entry;

use vedb_sim::FxHashMap;

/// The end of a chain.
const END: usize = usize::MAX;

/// Entries chained by hash; see the module docs.
#[derive(Default)]
pub(super) struct Chains {
    /// A hash's first and last entry.
    ends: FxHashMap<u64, (usize, usize)>,
    /// `next[i]` is the entry after `i` on its chain, [`END`] after the last
    /// (and for an entry never added).
    next: Vec<usize>,
}

impl Chains {
    /// Room for `n` entries without growing.
    pub(super) fn with_capacity(n: usize) -> Chains {
        Chains {
            ends: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            next: Vec::with_capacity(n),
        }
    }

    /// Put entry `i` last on `hash`'s chain. Entries are added in increasing
    /// order; one that is skipped is on no chain.
    pub(super) fn add(&mut self, hash: u64, i: usize) {
        debug_assert!(i >= self.next.len(), "entries are added in order");
        self.next.resize(i + 1, END);
        match self.ends.entry(hash) {
            Entry::Occupied(mut e) => {
                let last = &mut e.get_mut().1;
                self.next[*last] = i;
                *last = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
    }

    /// The entries added under `hash` that `is_key` accepts, in the order
    /// they were added.
    pub(super) fn find<'a>(
        &'a self,
        hash: u64,
        mut is_key: impl FnMut(usize) -> bool + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut at = self.ends.get(&hash).map_or(END, |(first, _)| *first);
        std::iter::from_fn(move || {
            while at != END {
                let i = at;
                at = self.next[i];
                if is_key(i) {
                    return Some(i);
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chain_is_in_the_order_added_and_skips_what_is_not_the_key() {
        let mut chains = Chains::with_capacity(2);
        for (i, hash) in [(0, 7), (2, 9), (3, 7), (6, 7)] {
            chains.add(hash, i);
        }
        assert_eq!(chains.find(7, |_| true).collect::<Vec<_>>(), [0, 3, 6]);
        assert_eq!(chains.find(7, |i| i != 3).collect::<Vec<_>>(), [0, 6]);
        assert_eq!(chains.find(9, |_| true).collect::<Vec<_>>(), [2]);
        assert_eq!(chains.find(8, |_| true).count(), 0);
    }
}
