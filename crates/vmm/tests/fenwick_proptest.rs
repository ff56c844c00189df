//! Property tests: the word-bitmap [`FlagTree`] matches a naive
//! `Vec<bool>` model under arbitrary operation sequences. The residency
//! indices in `space` lean on its ranks for every access split and on its
//! select for every order-statistics query, so the tree being exactly a
//! bit vector with fast prefix sums and selection is a correctness
//! keystone. Lengths run to ~5,000 pages (a word tree of 7 levels), and
//! indices and lengths are biased toward word boundaries (63/64/65 modulo
//! 64) and the last, partial word, where the bitmap and the Fenwick tree
//! over its words meet.
//!
//! Three more properties drive a [`Region`] through random page-state
//! transitions. One checks `kth_page_in` for all four [`PageClass`]es
//! against a naive filter: each tier selects over its own index,
//! unmapped over !mapped per word and the node span − mapped per node.
//! One checks the split the PEBS path uses, a rank hoisted per segment
//! and then one select per record: `select(c, rank(c, lo) + k) ==
//! kth_page_in(c, lo, hi, k)` for every `k` below the class's count in
//! `[lo, hi)`. The last interleaves map, remap and unmap across the three
//! tiers with snapshot/restore round trips, and checks the NVM index's
//! count, rank and select against a per-page model after every step.

use proptest::prelude::*;

use hemem_vmm::{
    AddressSpace, FlagTree, PageClass, PageSize, PageState, PhysPage, Region, RegionKind, Tier,
};

/// Largest length the properties draw (78 words).
const MAX_LEN: usize = 5_000;

/// A position drawn before the length it indexes is known, resolved by
/// [`Pick::within`].
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Uniform.
    Any(usize),
    /// Just around a word boundary: `64w + 63 + d`, `d < 3`.
    Boundary(usize, usize),
    /// Among the last 66 positions: the last, partial word and the
    /// boundary before it.
    Tail(usize),
}

impl Pick {
    /// The position in `0..m` (`m > 0`).
    fn within(self, m: usize) -> usize {
        match self {
            Pick::Any(i) => i % m,
            Pick::Boundary(w, d) => (w * 64 + 63 + d) % m,
            Pick::Tail(off) => m.saturating_sub(1 + off % 66),
        }
    }
}

fn pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        (0..MAX_LEN + 2).prop_map(Pick::Any),
        (0usize..80, 0usize..3).prop_map(|(w, d)| Pick::Boundary(w, d)),
        (0usize..66).prop_map(Pick::Tail),
    ]
}

/// Lengths up to [`MAX_LEN`], half of them one off a multiple of 64.
fn length() -> impl Strategy<Value = usize> {
    prop_oneof![
        1..MAX_LEN,
        (1usize..79, 0usize..3).prop_map(|(w, d)| w * 64 - 1 + d),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Set or clear a flag (idempotent sets included on purpose).
    Set { idx: Pick, value: bool },
    /// Set or clear a run of flags, so whole words fill and empty.
    Fill { lo: Pick, run: usize, value: bool },
    /// Set or clear every flag, so the index is full or empty.
    All { value: bool },
    /// Compare a range count against the model (`hi` may pass `len`).
    CountRange { lo: Pick, hi: Pick },
    /// Compare the total count against the model.
    Count,
    /// Compare a point read against the model.
    Get { idx: Pick },
    /// Compare a first-set scan against the model.
    FirstSet { lo: Pick },
    /// Compare the `k`-th set flag against the model (`k` may exceed
    /// the set count, which must yield `None`).
    Select { k: Pick },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Set arms repeated to bias toward mutations (the vendored
    // `prop_oneof!` picks arms uniformly, without weights).
    prop_oneof![
        (pick(), any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (pick(), any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (pick(), any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (pick(), 0usize..200, any::<bool>()).prop_map(|(lo, run, value)| Op::Fill {
            lo,
            run,
            value
        }),
        any::<bool>().prop_map(|value| Op::All { value }),
        (pick(), pick()).prop_map(|(lo, hi)| Op::CountRange { lo, hi }),
        (pick(), pick()).prop_map(|(lo, hi)| Op::CountRange { lo, hi }),
        Just(Op::Count),
        pick().prop_map(|idx| Op::Get { idx }),
        pick().prop_map(|lo| Op::FirstSet { lo }),
        pick().prop_map(|k| Op::Select { k }),
    ]
}

proptest! {
    #[test]
    fn matches_naive_bitvec_model(
        len in length(),
        seq in prop::collection::vec(op_strategy(), 1..500),
    ) {
        let mut tree = FlagTree::new(len);
        let mut model = vec![false; len];
        prop_assert_eq!(tree.len(), len);
        for op in seq {
            match op {
                Op::Set { idx, value } => {
                    let idx = idx.within(len);
                    tree.set(idx, value);
                    model[idx] = value;
                }
                Op::Fill { lo, run, value } => {
                    let lo = lo.within(len);
                    let hi = (lo + run).min(len);
                    for (i, flag) in model[lo..hi].iter_mut().enumerate() {
                        tree.set(lo + i, value);
                        *flag = value;
                    }
                }
                Op::All { value } => {
                    for (i, flag) in model.iter_mut().enumerate() {
                        tree.set(i, value);
                        *flag = value;
                    }
                }
                Op::CountRange { lo, hi } => {
                    // `count_range` clamps hi to len; empty/inverted
                    // ranges count zero, mirroring the model slice.
                    let lo = lo.within(len + 1);
                    let hi = hi.within(len + 2);
                    let expect = if lo < hi {
                        model[lo..hi.min(len)].iter().filter(|&&b| b).count() as u64
                    } else {
                        0
                    };
                    prop_assert_eq!(tree.count_range(lo, hi), expect);
                }
                Op::Count => {
                    let expect = model.iter().filter(|&&b| b).count() as u64;
                    prop_assert_eq!(tree.count(), expect);
                }
                Op::Get { idx } => {
                    let idx = idx.within(len);
                    prop_assert_eq!(tree.get(idx), model[idx]);
                }
                Op::FirstSet { lo } => {
                    let lo = lo.within(len + 2);
                    let expect = (lo..len).find(|&i| model[i]);
                    prop_assert_eq!(tree.first_set_in(lo), expect);
                }
                Op::Select { k } => {
                    let k = k.within(len + 2);
                    let expect = (0..len).filter(|&i| model[i]).nth(k);
                    prop_assert_eq!(tree.select(k as u64), expect);
                }
            }
        }
        // Final full agreement: every prefix sum and every select.
        let mut running = 0u64;
        for (i, &b) in model.iter().enumerate() {
            if b {
                prop_assert_eq!(tree.select(running), Some(i));
            }
            running += b as u64;
            prop_assert_eq!(tree.count_range(0, i + 1), running);
        }
        prop_assert_eq!(tree.select(running), None);
    }
}

/// Page states a [`Region`] page can take: 0 = unmapped, else the tier.
fn tier_of(state: u8) -> Option<Tier> {
    match state {
        1 => Some(Tier::Dram),
        2 => Some(Tier::Nvm),
        3 => Some(Tier::Ssd),
        _ => None,
    }
}

/// The class of page state `state`, indexed as in [`tier_of`].
const CLASSES: [PageClass; 4] = [
    PageClass::Unmapped,
    PageClass::Dram,
    PageClass::Nvm,
    PageClass::Ssd,
];

/// Moves page `i` to `state` through the region's own transitions.
fn set_state(r: &mut Region, i: u64, state: u8) {
    match (r.state(i), tier_of(state)) {
        (PageState::Unmapped, Some(t)) => r.map_page(i, t, PhysPage(i)),
        (PageState::Mapped { .. }, Some(t)) => {
            r.remap_page(i, t, PhysPage(i));
        }
        (PageState::Mapped { .. }, None) => {
            r.unmap_page(i);
        }
        (PageState::Unmapped, None) => {}
    }
}

/// A region of `len` pages put through `writes` (a run of `run` pages
/// from `at` moved to `state`), with the naive model: each class's page
/// indices in order.
fn region_with(len: u64, writes: &[(Pick, usize, u8)]) -> (AddressSpace, [Vec<u64>; 4]) {
    let mut space = AddressSpace::new();
    let id = space.mmap(len << 12, PageSize::Base4K, RegionKind::ManagedHeap);
    let r = space.region_mut(id);
    let mut model = vec![0u8; len as usize];
    for &(at, run, state) in writes {
        let lo = at.within(len as usize);
        let hi = (lo + run).min(len as usize);
        for (i, s) in model[lo..hi].iter_mut().enumerate() {
            set_state(r, (lo + i) as u64, state);
            *s = state;
        }
    }
    let pages =
        std::array::from_fn(|c| (0..len).filter(|&i| model[i as usize] == c as u8).collect());
    (space, pages)
}

/// Page-state writes: mostly single pages, some runs that fill words.
fn writes() -> impl Strategy<Value = Vec<(Pick, usize, u8)>> {
    prop::collection::vec(
        prop_oneof![
            (pick(), Just(1usize), 0u8..4),
            (pick(), Just(1usize), 0u8..4),
            (pick(), 1usize..300, 0u8..4),
        ],
        0..400,
    )
}

proptest! {
    #[test]
    fn region_kth_matches_naive_filter(
        len in length(),
        writes in writes(),
        queries in prop::collection::vec((pick(), pick(), pick()), 1..60),
    ) {
        let len = len as u64;
        let (space, pages) = region_with(len, &writes);
        let r = space.regions().next().unwrap();
        for (lo, hi, k) in queries {
            let lo = lo.within(len as usize + 2) as u64;
            let hi = hi.within(len as usize + 2) as u64;
            let k = k.within(len as usize + 2);
            for (class, pages) in CLASSES.iter().zip(&pages) {
                let naive = pages.iter().copied().filter(|&i| lo <= i && i < hi).nth(k);
                prop_assert_eq!(r.kth_page_in(*class, lo, hi, k as u64), naive);
            }
        }
    }

    #[test]
    fn rank_then_select_matches_kth(
        len in length(),
        writes in writes(),
        segments in prop::collection::vec((pick(), pick(), 0u64..1_000_000), 1..40),
    ) {
        let len = len as u64;
        let (space, pages) = region_with(len, &writes);
        let r = space.regions().next().unwrap();
        for (a, b, salt) in segments {
            let (a, b) = (a.within(len as usize + 1) as u64, b.within(len as usize + 1) as u64);
            let (lo, hi) = (a.min(b), a.max(b));
            for (class, pages) in CLASSES.iter().zip(&pages) {
                let in_seg: Vec<u64> =
                    pages.iter().copied().filter(|&i| lo <= i && i < hi).collect();
                let below = r.rank(*class, lo);
                prop_assert_eq!(below, pages.partition_point(|&i| i < lo) as u64);
                prop_assert_eq!(r.rank(*class, hi) - below, in_seg.len() as u64);
                // Every k for short segments; a strided sample otherwise.
                let stride = (in_seg.len() / 64).max(1);
                for k in (salt as usize % stride..in_seg.len()).step_by(stride) {
                    let page = r.select(*class, below + k as u64);
                    prop_assert_eq!(page, r.kth_page_in(*class, lo, hi, k as u64));
                    prop_assert_eq!(page, Some(in_seg[k]));
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum SpaceOp {
    /// Move a run of pages to a state (0 = unmapped, else the tier as in
    /// [`tier_of`]) through map, remap or unmap.
    Write { at: Pick, run: usize, state: u8 },
    /// Replace the space with a restore of its own snapshot, so the
    /// indices are rebuilt from the page states.
    RoundTrip,
    /// Compare the NVM rank below `lo` and the `k`-th NVM page (`k` may
    /// pass the count, which must yield `None`).
    Query { lo: Pick, k: Pick },
}

fn space_op() -> impl Strategy<Value = SpaceOp> {
    prop_oneof![
        (pick(), Just(1usize), 0u8..4).prop_map(|(at, run, state)| SpaceOp::Write {
            at,
            run,
            state
        }),
        (pick(), Just(1usize), 0u8..4).prop_map(|(at, run, state)| SpaceOp::Write {
            at,
            run,
            state
        }),
        (pick(), 1usize..300, 0u8..4).prop_map(|(at, run, state)| SpaceOp::Write {
            at,
            run,
            state
        }),
        Just(SpaceOp::RoundTrip),
        (pick(), pick()).prop_map(|(lo, k)| SpaceOp::Query { lo, k }),
        (pick(), pick()).prop_map(|(lo, k)| SpaceOp::Query { lo, k }),
    ]
}

proptest! {
    #[test]
    fn nvm_index_matches_model_across_restores(
        len in length(),
        ops in prop::collection::vec(space_op(), 1..200),
    ) {
        let mut space = AddressSpace::new();
        let id = space.mmap((len as u64) << 12, PageSize::Base4K, RegionKind::ManagedHeap);
        let mut model = vec![0u8; len];
        for op in ops {
            match op {
                SpaceOp::Write { at, run, state } => {
                    let lo = at.within(len);
                    let hi = (lo + run).min(len);
                    let r = space.region_mut(id);
                    for (i, s) in model[lo..hi].iter_mut().enumerate() {
                        set_state(r, (lo + i) as u64, state);
                        *s = state;
                    }
                }
                SpaceOp::RoundTrip => space = AddressSpace::restore(space.snapshot()),
                SpaceOp::Query { lo, k } => {
                    let r = space.region(id);
                    let lo = lo.within(len + 2);
                    let k = k.within(len + 2);
                    let below = model[..lo.min(len)].iter().filter(|&&s| s == 2).count();
                    prop_assert_eq!(r.rank(PageClass::Nvm, lo as u64), below as u64);
                    let nth = (0..len).filter(|&i| model[i] == 2).nth(k).map(|i| i as u64);
                    prop_assert_eq!(r.select(PageClass::Nvm, k as u64), nth);
                }
            }
            let r = space.region(id);
            let nvm = model.iter().filter(|&&s| s == 2).count() as u64;
            prop_assert_eq!(r.nvm_pages(), nvm);
            prop_assert_eq!(r.rank(PageClass::Nvm, len as u64), nvm);
            prop_assert_eq!(
                r.dram_pages() + r.nvm_pages() + r.ssd_pages(),
                r.mapped_pages()
            );
        }
        // Final full agreement: every prefix rank and every select.
        let r = space.region(id);
        let mut running = 0u64;
        for (i, &s) in model.iter().enumerate() {
            prop_assert_eq!(r.rank(PageClass::Nvm, i as u64), running);
            if s == 2 {
                prop_assert_eq!(r.select(PageClass::Nvm, running), Some(i as u64));
                running += 1;
            }
        }
        prop_assert_eq!(r.select(PageClass::Nvm, running), None);
    }
}
