//! Property tests: the Fenwick-backed [`FlagTree`] matches a naive
//! `Vec<bool>` model under arbitrary operation sequences. The residency
//! indices in `space` lean on `count_range` prefix sums for every
//! access split and on the `select` descent for every order-statistics
//! query, so the tree being exactly a bit vector with fast prefix sums
//! and selection is a correctness keystone. A second property drives a
//! [`Region`] through random page-state transitions and checks its four
//! `kth_*_page_in` selects — NVM descends over mapped − DRAM − SSD and
//! unmapped over the node span − mapped — against a naive filter.

use proptest::prelude::*;

use hemem_vmm::{AddressSpace, FlagTree, PageSize, PageState, PhysPage, Region, RegionKind, Tier};

#[derive(Debug, Clone)]
enum Op {
    /// Set or clear a flag (idempotent sets included on purpose).
    Set { idx: usize, value: bool },
    /// Compare a range count against the model.
    CountRange { lo: usize, hi: usize },
    /// Compare the total count against the model.
    Count,
    /// Compare a point read against the model.
    Get { idx: usize },
    /// Compare a first-set scan against the model.
    FirstSet { lo: usize },
    /// Compare the `k`-th set flag against the model (`k` may exceed
    /// the set count, which must yield `None`).
    Select { k: u64 },
}

fn op_strategy(len: usize) -> impl Strategy<Value = Op> {
    // Set arms repeated to bias toward mutations (the vendored
    // `prop_oneof!` picks arms uniformly, without weights).
    prop_oneof![
        (0..len, any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (0..len, any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (0..len, any::<bool>()).prop_map(|(idx, value)| Op::Set { idx, value }),
        (0..len + 1, 0..len + 2).prop_map(|(lo, hi)| Op::CountRange { lo, hi }),
        Just(Op::Count),
        (0..len).prop_map(|idx| Op::Get { idx }),
        (0..len + 2).prop_map(|lo| Op::FirstSet { lo }),
        (0..len as u64 + 2).prop_map(|k| Op::Select { k }),
    ]
}

proptest! {
    #[test]
    fn matches_naive_bitvec_model(
        len in 1usize..300,
        seq in prop::collection::vec(op_strategy(300), 1..500),
    ) {
        let mut tree = FlagTree::new(len);
        let mut model = vec![false; len];
        prop_assert_eq!(tree.len(), len);
        for op in seq {
            match op {
                Op::Set { idx, value } => {
                    let idx = idx % len;
                    tree.set(idx, value);
                    model[idx] = value;
                }
                Op::CountRange { lo, hi } => {
                    // `count_range` clamps hi to len; empty/inverted
                    // ranges count zero, mirroring the model slice.
                    let lo = lo.min(len);
                    let hi = hi.min(len + 1);
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
                    let idx = idx % len;
                    prop_assert_eq!(tree.get(idx), model[idx]);
                }
                Op::FirstSet { lo } => {
                    let expect = (lo..len).find(|&i| model[i]);
                    prop_assert_eq!(tree.first_set_in(lo), expect);
                }
                Op::Select { k } => {
                    let expect = (0..len).filter(|&i| model[i]).nth(k as usize);
                    prop_assert_eq!(tree.select(k), expect);
                }
            }
        }
        // Final full agreement: every prefix sum matches the model.
        let mut running = 0u64;
        for (i, &b) in model.iter().enumerate() {
            running += b as u64;
            prop_assert_eq!(tree.count_range(0, i + 1), running);
        }
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

proptest! {
    #[test]
    fn region_kth_matches_naive_filter(
        len in 1u64..300,
        writes in prop::collection::vec((0u64..300, 0u8..4), 0..600),
        queries in prop::collection::vec((0u64..302, 0u64..302, 0u64..302), 1..60),
    ) {
        let mut space = AddressSpace::new();
        let id = space.mmap(len << 12, PageSize::Base4K, RegionKind::ManagedHeap);
        let r = space.region_mut(id);
        let mut model = vec![0u8; len as usize];
        for (i, state) in writes {
            let i = i % len;
            set_state(r, i, state);
            model[i as usize] = state;
        }
        for (lo, hi, k) in queries {
            let naive = |state: u8| {
                (lo..hi.min(len)).filter(|&i| model[i as usize] == state).nth(k as usize)
            };
            prop_assert_eq!(r.kth_unmapped_page_in(lo, hi, k), naive(0));
            prop_assert_eq!(r.kth_dram_page_in(lo, hi, k), naive(1));
            prop_assert_eq!(r.kth_nvm_page_in(lo, hi, k), naive(2));
            prop_assert_eq!(r.kth_ssd_page_in(lo, hi, k), naive(3));
        }
    }
}
