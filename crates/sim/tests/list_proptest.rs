//! Property tests: the arena-backed FIFO lists behave exactly like a
//! reference model built from `VecDeque`s under arbitrary operation
//! sequences, and the arena's membership-bitmap scan (`first_on`) agrees
//! with a naive `list_of` scan.

use std::collections::VecDeque;

use proptest::prelude::*;

use hemem_sim::list::{FifoArena, FifoList, NO_LIST};

#[derive(Debug, Clone)]
enum Op {
    PushBack { list: u8, slot: u32 },
    PushFront { list: u8, slot: u32 },
    PopFront { list: u8 },
    Remove { slot: u32 },
    MoveToFront { slot: u32 },
    Grow { by: u32 },
    Reset,
}

fn op_strategy(slots: u32, lists: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..lists, 0..slots).prop_map(|(list, slot)| Op::PushBack { list, slot }),
        (0..lists, 0..slots).prop_map(|(list, slot)| Op::PushFront { list, slot }),
        (0..lists).prop_map(|list| Op::PopFront { list }),
        (0..slots).prop_map(|slot| Op::Remove { slot }),
        (0..slots).prop_map(|slot| Op::MoveToFront { slot }),
        // Grow, or rarely reset, so lists build up between resets.
        (0..32u32).prop_map(|n| if n == 0 {
            Op::Reset
        } else {
            Op::Grow { by: n }
        }),
    ]
}

proptest! {
    #[test]
    fn matches_vecdeque_model(
        ops in prop::collection::vec((op_strategy(256, 3), any::<u32>(), any::<u32>()), 1..400),
    ) {
        const SLOTS: usize = 64;
        const LISTS: usize = 3;
        let mut arena = FifoArena::with_membership(SLOTS, LISTS);
        let mut lists: Vec<FifoList> = (0..LISTS as u8).map(FifoList::new).collect();
        let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); LISTS];
        let mut member: Vec<Option<u8>> = vec![None; SLOTS];

        for (op, a, b) in ops {
            // Raw slots cover every slot of an arena up to 256 long.
            let op = match op {
                Op::PushBack { list, slot } => Op::PushBack { list, slot: slot % member.len() as u32 },
                Op::PushFront { list, slot } => Op::PushFront { list, slot: slot % member.len() as u32 },
                Op::Remove { slot } => Op::Remove { slot: slot % member.len() as u32 },
                Op::MoveToFront { slot } => Op::MoveToFront { slot: slot % member.len() as u32 },
                op => op,
            };
            match op {
                Op::PushBack { list, slot } => {
                    if member[slot as usize].is_none() {
                        lists[list as usize].push_back(&mut arena, slot);
                        model[list as usize].push_back(slot);
                        member[slot as usize] = Some(list);
                    }
                }
                Op::PushFront { list, slot } => {
                    if member[slot as usize].is_none() {
                        lists[list as usize].push_front(&mut arena, slot);
                        model[list as usize].push_front(slot);
                        member[slot as usize] = Some(list);
                    }
                }
                Op::PopFront { list } => {
                    let got = lists[list as usize].pop_front(&mut arena);
                    let expect = model[list as usize].pop_front();
                    prop_assert_eq!(got, expect);
                    if let Some(s) = got {
                        member[s as usize] = None;
                    }
                }
                Op::Remove { slot } => {
                    if let Some(list) = member[slot as usize] {
                        lists[list as usize].remove(&mut arena, slot);
                        model[list as usize].retain(|&s| s != slot);
                        member[slot as usize] = None;
                    }
                }
                Op::MoveToFront { slot } => {
                    if let Some(list) = member[slot as usize] {
                        lists[list as usize].move_to_front(&mut arena, slot);
                        model[list as usize].retain(|&s| s != slot);
                        model[list as usize].push_front(slot);
                    }
                }
                Op::Grow { by } => {
                    let n = (member.len() + by as usize).min(256);
                    arena.grow_to(n);
                    member.resize(n, None);
                }
                Op::Reset => {
                    arena.reset();
                    arena.grow_to(SLOTS);
                    lists = (0..LISTS as u8).map(FifoList::new).collect();
                    model = vec![VecDeque::new(); LISTS];
                    member = vec![None; SLOTS];
                }
            }
            // Full-state comparison + membership agreement.
            for (l, m) in lists.iter().zip(&model) {
                let got: Vec<u32> = l.iter(&arena).collect();
                let expect: Vec<u32> = m.iter().copied().collect();
                prop_assert_eq!(got, expect);
                prop_assert_eq!(l.len(), m.len());
            }
            for (slot, &mem) in member.iter().enumerate() {
                let on = arena.list_of(slot as u32);
                match mem {
                    Some(list) => prop_assert_eq!(on, list),
                    None => prop_assert_eq!(on, NO_LIST),
                }
            }
            // The bitmap scan equals a naive scan over the whole arena and
            // over one random range.
            let n = arena.len() as u32;
            let lo = a % (n + 1);
            let hi = lo + b % (n + 1 - lo);
            for list in 0..LISTS as u8 {
                for (lo, hi) in [(0, n), (lo, hi)] {
                    let naive = (lo..hi).find(|&s| arena.list_of(s) == list);
                    prop_assert_eq!(arena.first_on(list, lo, hi), naive, "list {} in {}..{}", list, lo, hi);
                }
            }
        }
    }
}
