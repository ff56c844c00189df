//! Fenwick (binary indexed) tree over page flags.
//!
//! Access batches cover arbitrary virtual sub-ranges; to split a batch's
//! traffic between tiers the machine needs "how many pages of `[lo, hi)`
//! are DRAM-resident" in O(log n), with O(log n) updates as pages migrate.
//! The inverse, "which page is the `k`-th DRAM-resident one", is one
//! O(log n) top-down descent (`select_by`). Prefix sums and the descent
//! read the tree only through a node function, so a residency class with
//! no tree of its own (NVM is mapped − DRAM − SSD, unmapped is the node's
//! span − mapped) is selected by combining other trees' nodes.

/// A Fenwick tree of 0/1 page flags with prefix-sum range queries.
#[derive(Debug, Clone)]
pub struct FlagTree {
    tree: Vec<u32>,
    flags: Vec<bool>,
}

impl FlagTree {
    /// Creates a tree over `n` pages, all flags clear.
    pub fn new(n: usize) -> FlagTree {
        FlagTree {
            tree: vec![0; n + 1],
            flags: vec![false; n],
        }
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the tree tracks zero pages.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Current flag of page `i`.
    pub fn get(&self, i: usize) -> bool {
        self.flags[i]
    }

    /// Sets page `i`'s flag, updating sums; idempotent.
    pub fn set(&mut self, i: usize, value: bool) {
        if self.flags[i] == value {
            return;
        }
        self.flags[i] = value;
        let delta: i64 = if value { 1 } else { -1 };
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] = (self.tree[idx] as i64 + delta) as u32;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Fenwick node `i` (1-based, `i <= len`): the set flags among pages
    /// `[i - lowbit(i), i)`.
    pub(crate) fn node(&self, i: usize) -> u64 {
        self.tree[i] as u64
    }

    fn prefix(&self, idx: usize) -> u64 {
        prefix_by(idx, |i| self.node(i))
    }

    /// Number of set flags among pages `[lo, hi)`.
    pub fn count_range(&self, lo: usize, hi: usize) -> u64 {
        if hi <= lo {
            return 0;
        }
        let hi = hi.min(self.flags.len());
        self.prefix(hi) - self.prefix(lo)
    }

    /// Total set flags.
    pub fn count(&self) -> u64 {
        self.prefix(self.flags.len())
    }

    /// Index of the `k`-th (0-based) set flag, or `None` if at most `k`
    /// are set. O(log n).
    pub fn select(&self, k: u64) -> Option<usize> {
        select_by(self.len(), k, |i| self.node(i))
    }

    /// Index of the first set flag in `[lo, len)`, or `None`. O(log n):
    /// the region tracker walks its candidate index with this instead of
    /// scanning pages.
    pub fn first_set_in(&self, lo: usize) -> Option<usize> {
        if lo >= self.len() {
            return None;
        }
        self.select(self.prefix(lo))
    }
}

/// Lowest set bit of `i`: the number of pages Fenwick node `i` spans.
pub(crate) fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Sum of `node` over the Fenwick nodes that cover pages `[0, idx)`.
pub(crate) fn prefix_by(mut idx: usize, node: impl Fn(usize) -> u64) -> u64 {
    let mut s = 0u64;
    while idx > 0 {
        s += node(idx);
        idx -= lowbit(idx);
    }
    s
}

/// Fenwick descent over a tree of `len` pages whose node `i` counts
/// `node(i)` pages: the index of the `k`-th (0-based) counted page, or
/// `None` if at most `k` are counted. O(log n) node reads, top-down from
/// the largest power of two, keeping the longest prefix whose count is
/// still `<= k`.
pub(crate) fn select_by(len: usize, mut k: u64, node: impl Fn(usize) -> u64) -> Option<usize> {
    let mut pos = 0;
    let mut step = if len == 0 { 0 } else { 1 << len.ilog2() };
    while step > 0 {
        let next = pos + step;
        if next <= len {
            let c = node(next);
            if c <= k {
                pos = next;
                k -= c;
            }
        }
        step >>= 1;
    }
    (pos < len).then_some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_count() {
        let mut t = FlagTree::new(10);
        t.set(2, true);
        t.set(5, true);
        t.set(9, true);
        assert_eq!(t.count(), 3);
        assert_eq!(t.count_range(0, 10), 3);
        assert_eq!(t.count_range(3, 9), 1);
        assert_eq!(t.count_range(2, 3), 1);
        assert!(t.get(2));
        assert!(!t.get(3));
    }

    #[test]
    fn set_is_idempotent_and_reversible() {
        let mut t = FlagTree::new(4);
        t.set(1, true);
        t.set(1, true);
        assert_eq!(t.count(), 1);
        t.set(1, false);
        t.set(1, false);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn empty_ranges() {
        let mut t = FlagTree::new(4);
        t.set(0, true);
        assert_eq!(t.count_range(2, 2), 0);
        assert_eq!(t.count_range(3, 1), 0);
        assert_eq!(t.count_range(0, 100), 1, "hi clamps to len");
    }

    #[test]
    fn first_set_walks_the_flags() {
        let mut t = FlagTree::new(10);
        assert_eq!(t.first_set_in(0), None);
        t.set(3, true);
        t.set(7, true);
        assert_eq!(t.first_set_in(0), Some(3));
        assert_eq!(t.first_set_in(3), Some(3));
        assert_eq!(t.first_set_in(4), Some(7));
        assert_eq!(t.first_set_in(8), None);
        assert_eq!(t.first_set_in(99), None);
    }

    #[test]
    fn select_counts_from_zero() {
        let mut t = FlagTree::new(10);
        assert_eq!(t.select(0), None);
        t.set(3, true);
        t.set(7, true);
        t.set(9, true);
        assert_eq!(t.select(0), Some(3));
        assert_eq!(t.select(1), Some(7));
        assert_eq!(t.select(2), Some(9));
        assert_eq!(t.select(3), None);
        assert_eq!(FlagTree::new(0).select(0), None);
    }

    #[test]
    fn matches_naive_on_random_ops() {
        use hemem_sim::Rng;
        let mut rng = Rng::new(99);
        let n = 257;
        let mut t = FlagTree::new(n);
        let mut naive = vec![false; n];
        for _ in 0..2_000 {
            let i = rng.gen_range(n as u64) as usize;
            let v = rng.bernoulli(0.5);
            t.set(i, v);
            naive[i] = v;
            let lo = rng.gen_range(n as u64) as usize;
            let hi = lo + rng.gen_range((n - lo) as u64 + 1) as usize;
            let expect = naive[lo..hi].iter().filter(|&&b| b).count() as u64;
            assert_eq!(t.count_range(lo, hi), expect);
        }
    }
}
