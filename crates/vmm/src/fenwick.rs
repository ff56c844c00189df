//! Word-bitmap residency index: page flags packed 64 to a `u64` word,
//! plus a Fenwick (binary indexed) tree over the words' popcounts.
//!
//! Access batches cover arbitrary virtual sub-ranges; to split a batch's
//! traffic between tiers the machine needs "how many pages of `[lo, hi)`
//! are DRAM-resident" in O(log n), with O(log n) updates as pages migrate.
//! A rank is a prefix sum over the words below `lo / 64` plus one masked
//! popcount. The inverse, "which page is the `k`-th DRAM-resident one",
//! is one top-down descent over the words (`select_by`) followed by one
//! select inside the word it lands on. The tree has one node per 64
//! pages (16 KiB for 262,144 pages), so a descent stays in cache, and
//! its unused slot 0 holds the total, so whole-index counts are one load.
//! The descent reads the index only through a node function and a word
//! function, so the unmapped class, which has no index of its own, is
//! selected from the mapped index: !mapped per word and the node's
//! span − mapped per node.

/// Pages per bitmap word.
pub(crate) const WORD: usize = 64;

/// A bitmap of 0/1 page flags with Fenwick prefix sums over its words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagTree {
    /// Bit `j` of word `w` is page `w * WORD + j`; bits past `len` in the
    /// last word stay clear.
    words: Box<[u64]>,
    /// Fenwick tree over the words' popcounts (1-based, `words.len() + 1`
    /// entries); the unused slot 0 holds the total, so whole-index counts
    /// read one entry.
    tree: Box<[u32]>,
    len: usize,
}

impl FlagTree {
    /// Creates a tree over `n` pages, all flags clear.
    pub fn new(n: usize) -> FlagTree {
        let words = n.div_ceil(WORD);
        FlagTree {
            words: vec![0; words].into_boxed_slice(),
            tree: vec![0; words + 1].into_boxed_slice(),
            len: n,
        }
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree tracks zero pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current flag of page `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "page {i} out of {}", self.len);
        self.words[i / WORD] >> (i % WORD) & 1 == 1
    }

    /// Sets page `i`'s flag, updating sums; idempotent. Inlined: most
    /// calls (the region tracker's per-period flag refresh) change
    /// nothing and return after one word test.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        if self.get(i) != value {
            self.flip(i / WORD, 1 << (i % WORD), value);
        }
    }

    /// Flips `bit` of word `w` to `value` and moves the word's count on
    /// every Fenwick node that covers it.
    fn flip(&mut self, w: usize, bit: u64, value: bool) {
        self.words[w] ^= bit;
        let delta = if value { 1 } else { u32::MAX };
        self.tree[0] = self.tree[0].wrapping_add(delta);
        let mut idx = w + 1;
        while idx < self.tree.len() {
            self.tree[idx] = self.tree[idx].wrapping_add(delta);
            idx += lowbit(idx);
        }
    }

    /// Fenwick node `i` (1-based, `i <= len.div_ceil(WORD)`): the set
    /// flags among words `[i - lowbit(i), i)`.
    pub(crate) fn node(&self, i: usize) -> u64 {
        self.tree[i] as u64
    }

    /// Word `w`'s set flags.
    fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Word `w`'s clear flags, masked to pages below `len`.
    pub(crate) fn clear_word(&self, w: usize) -> u64 {
        let tail = self.len - w * WORD;
        let live = if tail >= WORD {
            u64::MAX
        } else {
            (1 << tail) - 1
        };
        !self.words[w] & live
    }

    /// Number of set flags among pages `[0, idx)`; `idx` clamps to `len`.
    pub(crate) fn rank(&self, idx: usize) -> u64 {
        if idx >= self.len {
            return self.tree[0] as u64;
        }
        let (w, bit) = (idx / WORD, idx % WORD);
        let mut s = 0u64;
        let mut i = w;
        while i > 0 {
            s += self.node(i);
            i -= lowbit(i);
        }
        if bit != 0 {
            s += (self.words[w] & ((1 << bit) - 1)).count_ones() as u64;
        }
        s
    }

    /// Number of set flags among pages `[lo, hi)`; `hi` clamps to `len`.
    /// An empty or full index answers from its total, a range ending at
    /// `len` reads the total, and one inside a single word is one masked
    /// popcount and no tree walk. These keep small regions' per-segment
    /// counts as cheap as they were on a per-page tree.
    pub fn count_range(&self, lo: usize, hi: usize) -> u64 {
        let hi = hi.min(self.len);
        if hi <= lo {
            return 0;
        }
        let total = self.count();
        if total == 0 || total == self.len as u64 {
            return total.min((hi - lo) as u64);
        }
        if hi < self.len && lo / WORD == (hi - 1) / WORD {
            let bits = self.words[lo / WORD] >> (lo % WORD);
            return (bits & (u64::MAX >> (WORD - (hi - lo)))).count_ones() as u64;
        }
        self.rank(hi) - self.rank(lo)
    }

    /// Total set flags.
    pub fn count(&self) -> u64 {
        self.tree[0] as u64
    }

    /// Index of the `k`-th (0-based) set flag, or `None` if at most `k`
    /// are set. O(log n).
    pub fn select(&self, k: u64) -> Option<usize> {
        select_by(self.len, k, |i| self.node(i), |w| self.word(w))
    }

    /// Index of the first set flag in `[lo, len)`, or `None`. O(log n):
    /// the region tracker walks its candidate index with this instead of
    /// scanning pages.
    pub fn first_set_in(&self, lo: usize) -> Option<usize> {
        if lo >= self.len {
            return None;
        }
        self.select(self.rank(lo))
    }
}

/// Lowest set bit of `i`: the number of words Fenwick node `i` spans.
pub(crate) fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Select over an index of `len` pages whose Fenwick node `i` counts
/// `node(i)` pages and whose word `w` holds them as `word(w)`: the index
/// of the `k`-th (0-based) counted page, or `None` if at most `k` are
/// counted. One top-down descent over the words from the largest power
/// of two, keeping the longest word prefix whose count is still `<= k`,
/// then one select inside the next word. A node may over-count the last
/// word (the unmapped class's span − mapped counts pages past `len`); the
/// word function must not, so such a `k` finds no bit and yields `None`.
pub(crate) fn select_by(
    len: usize,
    mut k: u64,
    node: impl Fn(usize) -> u64,
    word: impl Fn(usize) -> u64,
) -> Option<usize> {
    let words = len.div_ceil(WORD);
    let mut pos = 0;
    let mut step = if words == 0 { 0 } else { 1 << words.ilog2() };
    while step > 0 {
        let next = pos + step;
        if next <= words {
            let c = node(next);
            if c <= k {
                pos = next;
                k -= c;
            }
        }
        step >>= 1;
    }
    if pos == words {
        return None;
    }
    Some(pos * WORD + select_in_word(word(pos), k)?)
}

const ONES_STEP_8: u64 = 0x0101_0101_0101_0101;
const MSBS_STEP_8: u64 = 0x8080_8080_8080_8080;

/// `SELECT_IN_BYTE[b][r]`: bit index of the `r`-th (0-based) set bit of
/// byte `b`.
static SELECT_IN_BYTE: [[u8; 8]; 256] = select_in_byte_table();

const fn select_in_byte_table() -> [[u8; 8]; 256] {
    let mut t = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                t[b][r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    t
}

/// Bit index of the `k`-th (0-based) set bit of `w`, or `None` if at
/// most `k` are set. Broadword: one multiply sums the byte popcounts into
/// a running count per byte, a bytewise compare against `k` locates the
/// byte, and a table the bit.
fn select_in_word(w: u64, k: u64) -> Option<usize> {
    let mut s = w - ((w >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte `i` of `sums`: set bits among bytes `0..=i` (at most 64, so
    // no byte carries into the next).
    let sums = s.wrapping_mul(ONES_STEP_8);
    if k >= sums >> 56 {
        return None;
    }
    // High bit of byte `i` set iff `sums[i] <= k`: those bytes are a
    // prefix, and its length is the byte holding the `k`-th bit.
    let le = (((k * ONES_STEP_8) | MSBS_STEP_8) - sums) & MSBS_STEP_8;
    let place = (((le >> 7).wrapping_mul(ONES_STEP_8) >> 56) * 8) as u32;
    let before = ((sums << 8) >> place) & 0xFF;
    let byte = (w >> place) & 0xFF;
    Some(place as usize + SELECT_IN_BYTE[byte as usize][(k - before) as usize] as usize)
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
    fn full_and_empty_indices_count_ranges() {
        for n in [32, 64, 100, 130] {
            let mut t = FlagTree::new(n);
            assert_eq!(t.count_range(8, 16), 0);
            for i in 0..n {
                t.set(i, true);
            }
            assert_eq!(t.count(), n as u64);
            assert_eq!(t.count_range(8, 16), 8, "n {n}");
            assert_eq!(t.count_range(3, n + 9), n as u64 - 3, "hi clamps");
            t.set(n - 1, false);
            assert_eq!(t.count_range(8, 16), 8);
            assert_eq!(t.count_range(0, n), n as u64 - 1);
        }
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
    fn select_in_word_matches_a_bit_scan() {
        use hemem_sim::Rng;
        let mut rng = Rng::new(7);
        let mut words = vec![u64::MAX, 1, 1 << 63, 0x8000_0001_0000_0080];
        words.extend((0..500).map(|_| rng.next_u64() & rng.next_u64()));
        for w in words {
            let bits: Vec<usize> = (0..64).filter(|&j| w >> j & 1 == 1).collect();
            for (k, &j) in bits.iter().enumerate() {
                assert_eq!(select_in_word(w, k as u64), Some(j), "word {w:#x} k {k}");
            }
            assert_eq!(select_in_word(w, bits.len() as u64), None);
        }
    }

    #[test]
    fn clear_word_masks_pages_past_len() {
        let mut t = FlagTree::new(65);
        assert_eq!(t.clear_word(0), u64::MAX);
        assert_eq!(t.clear_word(1), 1, "one live page in the last word");
        t.set(64, true);
        assert_eq!(t.clear_word(1), 0);
        assert_eq!(FlagTree::new(128).clear_word(1), u64::MAX);
    }

    #[test]
    fn heap_is_a_bit_per_page_plus_a_node_per_word() {
        for n in [0, 1, 63, 64, 65, 1000, 262_144] {
            let t = FlagTree::new(n);
            let heap = t.words.len() * 8 + t.tree.len() * 4;
            assert!(heap <= n / 8 + n / 16 + 64, "n {n}: {heap} bytes");
        }
        // Four per region, and the address space keeps a slot for every
        // region ever mapped: the handle stays two boxed slices and a len.
        assert_eq!(std::mem::size_of::<FlagTree>(), 40);
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
