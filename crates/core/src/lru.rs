//! One shard of a sharded LRU cache: the replacement structure under both
//! the local buffer pool ([`crate::buffer`]) and the Extended Buffer Pool
//! index ([`crate::ebp`]) — two levels of one cache, one structure, two
//! capacities.
//!
//! A shard is an index (`PageId` → slot), a recency order and a running
//! weight. The recency order is a doubly linked list threaded through a
//! dense slab (`Vec` + `swap_remove`, links are slab positions), so a hit
//! is O(1) and allocates nothing. Each tier keeps its own
//! `Vec<Mutex<LruShard<_>>>` and its own page→shard hash, and decides what
//! may be evicted through the predicate it hands to
//! [`pop_lru_where`](LruShard::pop_lru_where): the buffer pool evicts
//! unpinned frames (weight 1 each), the EBP evicts entries of equal or
//! lower priority (weight = image bytes).

use vedb_astore::PageId;
use vedb_sim::FxHashMap;

struct Node<V> {
    key: PageId,
    value: V,
    weight: u64,
    /// Slab position of the next-older entry.
    older: Option<usize>,
    /// Slab position of the next-newer entry.
    newer: Option<usize>,
}

/// One LRU shard: values of type `V` keyed by page id, each with a weight.
pub(crate) struct LruShard<V> {
    index: FxHashMap<PageId, usize>,
    nodes: Vec<Node<V>>,
    oldest: Option<usize>,
    newest: Option<usize>,
    weight: u64,
}

impl<V> LruShard<V> {
    pub(crate) fn new() -> Self {
        LruShard {
            index: FxHashMap::default(),
            nodes: Vec::new(),
            oldest: None,
            newest: None,
            weight: 0,
        }
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Sum of the weights of the entries held.
    pub(crate) fn weight(&self) -> u64 {
        self.weight
    }

    /// Look `key` up without refreshing it.
    pub(crate) fn peek(&self, key: PageId) -> Option<&V> {
        self.index.get(&key).map(|&i| &self.nodes[i].value)
    }

    /// Look `key` up and make it the most recently used entry.
    pub(crate) fn touch(&mut self, key: PageId) -> Option<&V> {
        let i = *self.index.get(&key)?;
        if self.newest != Some(i) {
            self.unlink(i);
            self.link_newest(i);
        }
        Some(&self.nodes[i].value)
    }

    /// Insert `key` as the most recently used entry, returning the value
    /// it replaces, if any.
    pub(crate) fn insert(&mut self, key: PageId, value: V, weight: u64) -> Option<V> {
        let old = self.remove(key);
        let i = self.nodes.len();
        self.nodes.push(Node {
            key,
            value,
            weight,
            older: None,
            newer: None,
        });
        self.link_newest(i);
        self.index.insert(key, i);
        self.weight += weight;
        old
    }

    /// Remove `key`.
    pub(crate) fn remove(&mut self, key: PageId) -> Option<V> {
        let i = *self.index.get(&key)?;
        Some(self.take(i).1)
    }

    /// Remove and return the least recently used entry whose value
    /// satisfies `evictable`. Entries that do not are skipped where they
    /// stand: they keep their place in the recency order.
    pub(crate) fn pop_lru_where(
        &mut self,
        mut evictable: impl FnMut(&V) -> bool,
    ) -> Option<(PageId, V)> {
        let mut at = self.oldest;
        while let Some(i) = at {
            if evictable(&self.nodes[i].value) {
                return Some(self.take(i));
            }
            at = self.nodes[i].newer;
        }
        None
    }

    /// Every entry, most recently used first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageId, &V)> {
        std::iter::successors(self.newest, |&i| self.nodes[i].older)
            .map(|i| (self.nodes[i].key, &self.nodes[i].value))
    }

    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.nodes[i].older, self.nodes[i].newer);
        match older {
            Some(o) => self.nodes[o].newer = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(n) => self.nodes[n].older = older,
            None => self.newest = older,
        }
    }

    fn link_newest(&mut self, i: usize) {
        self.nodes[i].older = self.newest;
        self.nodes[i].newer = None;
        match self.newest {
            Some(n) => self.nodes[n].newer = Some(i),
            None => self.oldest = Some(i),
        }
        self.newest = Some(i);
    }

    /// Take slab slot `i` out of the list, the index and the weight.
    fn take(&mut self, i: usize) -> (PageId, V) {
        self.unlink(i);
        let node = self.nodes.swap_remove(i);
        self.index.remove(&node.key);
        self.weight -= node.weight;
        // `swap_remove` moved the last node into slot `i`: re-point its
        // index entry and its neighbours' links.
        if let Some(moved) = self.nodes.get(i) {
            let (key, older, newer) = (moved.key, moved.older, moved.newer);
            self.index.insert(key, i);
            match older {
                Some(o) => self.nodes[o].newer = Some(i),
                None => self.oldest = Some(i),
            }
            match newer {
                Some(n) => self.nodes[n].older = Some(i),
                None => self.newest = Some(i),
            }
        }
        (node.key, node.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pid(n: u32) -> PageId {
        PageId::new(1, n)
    }

    fn order(lru: &LruShard<u32>) -> Vec<u32> {
        lru.iter().map(|(_, v)| *v).collect()
    }

    #[test]
    fn victims_come_out_in_touch_order_and_a_touch_refreshes() {
        let mut lru = LruShard::new();
        for n in 0..4 {
            assert!(lru.insert(pid(n), n, 1).is_none());
        }
        assert_eq!(lru.touch(pid(0)), Some(&0));
        assert_eq!(lru.peek(pid(1)), Some(&1)); // a peek does not refresh
        assert_eq!(order(&lru), [0, 3, 2, 1]);
        let victims: Vec<u32> = std::iter::from_fn(|| lru.pop_lru_where(|_| true))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(victims, [1, 2, 3, 0]);
        assert_eq!((lru.len(), lru.weight()), (0, 0));
        assert!(lru.touch(pid(0)).is_none());
    }

    #[test]
    fn the_predicate_skips_without_reordering() {
        let mut lru = LruShard::new();
        for n in 0..4 {
            lru.insert(pid(n), n, 10);
        }
        // The two oldest are not evictable: the third goes, they stay put.
        assert_eq!(lru.pop_lru_where(|v| *v >= 2), Some((pid(2), 2)));
        assert_eq!(order(&lru), [3, 1, 0]);
        assert_eq!(lru.pop_lru_where(|v| *v > 7), None);
        assert_eq!(order(&lru), [3, 1, 0]);
        assert_eq!(lru.weight(), 30);
    }

    #[test]
    fn insert_replaces_and_reweighs() {
        let mut lru = LruShard::new();
        lru.insert(pid(1), 1, 5);
        lru.insert(pid(2), 2, 7);
        assert_eq!(lru.insert(pid(1), 11, 3), Some(1));
        assert_eq!(order(&lru), [11, 2]);
        assert_eq!((lru.len(), lru.weight()), (2, 10));
        assert!(lru.peek(pid(3)).is_none());
    }

    /// The reference: a `Vec` in recency order, oldest first.
    #[derive(Default)]
    struct Model(Vec<(u32, u32, u64)>); // key, value, weight

    impl Model {
        fn remove(&mut self, k: u32) -> Option<u32> {
            let at = self.0.iter().position(|e| e.0 == k)?;
            Some(self.0.remove(at).1)
        }
    }

    proptest! {
        #[test]
        fn behaves_like_a_vec_in_recency_order(
            ops in proptest::collection::vec((0u8..5, 0u32..12, 1u64..9), 1..200),
        ) {
            let mut lru = LruShard::new();
            let mut model = Model::default();
            for (step, (op, k, w)) in ops.into_iter().enumerate() {
                let v = step as u32;
                match op {
                    0 | 1 => {
                        let old = model.remove(k);
                        model.0.push((k, v, w));
                        assert_eq!(lru.insert(pid(k), v, w), old);
                    }
                    2 => {
                        let hit = model.0.iter().position(|e| e.0 == k).map(|at| {
                            let e = model.0.remove(at);
                            model.0.push(e);
                            e.1
                        });
                        assert_eq!(lru.touch(pid(k)).copied(), hit);
                    }
                    3 => assert_eq!(lru.remove(pid(k)), model.remove(k)),
                    _ => {
                        // Evict the oldest entry whose value is odd/even.
                        let want = |v: &u32| v % 2 == k % 2;
                        let victim = model.0.iter().position(|e| want(&e.1)).map(|at| {
                            let e = model.0.remove(at);
                            (pid(e.0), e.1)
                        });
                        assert_eq!(lru.pop_lru_where(want), victim);
                    }
                }
                let newest_first: Vec<u32> = model.0.iter().rev().map(|e| e.1).collect();
                assert_eq!(order(&lru), newest_first);
                assert_eq!(lru.len(), model.0.len());
                assert_eq!(lru.weight(), model.0.iter().map(|e| e.2).sum::<u64>());
                for e in &model.0 {
                    assert_eq!(lru.peek(pid(e.0)), Some(&e.1));
                }
            }
        }
    }
}
