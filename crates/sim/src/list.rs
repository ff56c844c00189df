//! Arena-backed intrusive FIFO lists.
//!
//! HeMem tracks every managed page on exactly one of six FIFO queues (hot,
//! cold, free — per memory type). Pages move between queues on every PEBS
//! sample and policy pass, so O(1) unlink of an arbitrary element is
//! required. [`FifoArena`] stores `prev`/`next` indices per element in a
//! flat slab and lets any number of [`FifoList`]s thread through it; each
//! element may be on at most one list at a time, which the arena enforces.

/// Index of an element within a [`FifoArena`].
pub type Slot = u32;

/// Sentinel for "no element".
pub const NIL: Slot = u32::MAX;

/// Identifier of the list an element currently belongs to (opaque to the
/// arena; callers define the meaning).
pub type ListId = u8;

/// Marker for "not on any list".
pub const NO_LIST: ListId = u8::MAX;

#[derive(Debug, Clone, Copy)]
struct Links {
    prev: Slot,
    next: Slot,
    list: ListId,
}

/// Shared link storage for a set of FIFO lists over a dense slot space.
#[derive(Debug, Clone)]
pub struct FifoArena {
    links: Vec<Links>,
}

impl FifoArena {
    /// Creates an arena with `n` slots, all unlinked.
    pub fn new(n: usize) -> FifoArena {
        FifoArena {
            links: vec![
                Links {
                    prev: NIL,
                    next: NIL,
                    list: NO_LIST
                };
                n
            ],
        }
    }

    /// Empties the arena back to zero slots while keeping its allocated
    /// capacity, so a recycled tracker's next `grow_to` is a fill, not a
    /// reallocation. Logically identical to `FifoArena::new(0)`; any
    /// lists threaded through the arena must be re-created by the
    /// caller.
    pub fn reset(&mut self) {
        self.links.clear();
    }

    /// Pre-allocates capacity for `n` slots without creating them.
    pub fn reserve(&mut self, n: usize) {
        if n > self.links.len() {
            self.links.reserve(n - self.links.len());
        }
    }

    /// Grows the arena to at least `n` slots.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.links.len() {
            self.links.resize(
                n,
                Links {
                    prev: NIL,
                    next: NIL,
                    list: NO_LIST,
                },
            );
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the arena has no slots.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The list `slot` currently belongs to, or [`NO_LIST`].
    pub fn list_of(&self, slot: Slot) -> ListId {
        self.links[slot as usize].list
    }
}

/// One FIFO queue threaded through a [`FifoArena`].
///
/// Elements are pushed at the back and popped from the front; any element
/// can also be removed from the middle or pushed at the front (HeMem does
/// this to prioritize write-heavy pages for migration).
#[derive(Debug, Clone)]
pub struct FifoList {
    id: ListId,
    head: Slot,
    tail: Slot,
    len: usize,
}

impl FifoList {
    /// Creates an empty list with identity `id` (must be unique among the
    /// lists sharing an arena, and not [`NO_LIST`]).
    pub fn new(id: ListId) -> FifoList {
        assert_ne!(id, NO_LIST, "list id collides with the NO_LIST sentinel");
        FifoList {
            id,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// This list's identity tag.
    pub fn id(&self) -> ListId {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First element (next to pop), if any.
    pub fn front(&self) -> Option<Slot> {
        (self.head != NIL).then_some(self.head)
    }

    /// Last element, if any.
    pub fn back(&self) -> Option<Slot> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Appends `slot` at the back.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is already on a list.
    pub fn push_back(&mut self, arena: &mut FifoArena, slot: Slot) {
        let l = &mut arena.links[slot as usize];
        assert_eq!(l.list, NO_LIST, "slot {slot} already on list {}", l.list);
        l.list = self.id;
        l.prev = self.tail;
        l.next = NIL;
        if self.tail != NIL {
            arena.links[self.tail as usize].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        self.len += 1;
    }

    /// Inserts `slot` at the front (highest pop priority).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is already on a list.
    pub fn push_front(&mut self, arena: &mut FifoArena, slot: Slot) {
        let l = &mut arena.links[slot as usize];
        assert_eq!(l.list, NO_LIST, "slot {slot} already on list {}", l.list);
        l.list = self.id;
        l.next = self.head;
        l.prev = NIL;
        if self.head != NIL {
            arena.links[self.head as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
        self.len += 1;
    }

    /// Removes and returns the front element.
    pub fn pop_front(&mut self, arena: &mut FifoArena) -> Option<Slot> {
        let slot = self.front()?;
        self.remove(arena, slot);
        Some(slot)
    }

    /// Unlinks `slot` from this list.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not on this list.
    pub fn remove(&mut self, arena: &mut FifoArena, slot: Slot) {
        let Links { prev, next, list } = arena.links[slot as usize];
        assert_eq!(
            list, self.id,
            "slot {slot} is on list {list}, not {}",
            self.id
        );
        if prev != NIL {
            arena.links[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            arena.links[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let l = &mut arena.links[slot as usize];
        l.prev = NIL;
        l.next = NIL;
        l.list = NO_LIST;
        self.len -= 1;
    }

    /// Moves `slot` (already on this list) to the front.
    pub fn move_to_front(&mut self, arena: &mut FifoArena, slot: Slot) {
        self.remove(arena, slot);
        self.push_front(arena, slot);
    }

    /// Iterates front-to-back without modifying the list.
    pub fn iter<'a>(&'a self, arena: &'a FifoArena) -> FifoIter<'a> {
        FifoIter {
            arena,
            cur: self.head,
        }
    }
}

/// Front-to-back iterator over a [`FifoList`].
pub struct FifoIter<'a> {
    arena: &'a FifoArena,
    cur: Slot,
}

impl Iterator for FifoIter<'_> {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        if self.cur == NIL {
            return None;
        }
        let s = self.cur;
        self.cur = self.arena.links[s as usize].next;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut a = FifoArena::new(8);
        let mut l = FifoList::new(0);
        for s in [3, 1, 4, 1 + 4] {
            l.push_back(&mut a, s);
        }
        let got: Vec<Slot> = l.iter(&a).collect();
        assert_eq!(got, vec![3, 1, 4, 5]);
        assert_eq!(l.pop_front(&mut a), Some(3));
        assert_eq!(l.pop_front(&mut a), Some(1));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn push_front_prioritizes() {
        let mut a = FifoArena::new(4);
        let mut l = FifoList::new(1);
        l.push_back(&mut a, 0);
        l.push_back(&mut a, 1);
        l.push_front(&mut a, 2);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![2, 0, 1]);
    }

    #[test]
    fn remove_from_middle() {
        let mut a = FifoArena::new(5);
        let mut l = FifoList::new(2);
        for s in 0..5 {
            l.push_back(&mut a, s);
        }
        l.remove(&mut a, 2);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert_eq!(a.list_of(2), NO_LIST);
        l.remove(&mut a, 0);
        l.remove(&mut a, 4);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn element_moves_between_lists() {
        let mut a = FifoArena::new(3);
        let mut hot = FifoList::new(0);
        let mut cold = FifoList::new(1);
        hot.push_back(&mut a, 0);
        assert_eq!(a.list_of(0), 0);
        hot.remove(&mut a, 0);
        cold.push_back(&mut a, 0);
        assert_eq!(a.list_of(0), 1);
        assert!(hot.is_empty());
        assert_eq!(cold.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already on list")]
    fn double_insert_panics() {
        let mut a = FifoArena::new(2);
        let mut l = FifoList::new(0);
        l.push_back(&mut a, 0);
        l.push_back(&mut a, 0);
    }

    #[test]
    #[should_panic(expected = "is on list")]
    fn removing_from_wrong_list_panics() {
        let mut a = FifoArena::new(2);
        let mut l0 = FifoList::new(0);
        let mut l1 = FifoList::new(1);
        l0.push_back(&mut a, 0);
        l1.remove(&mut a, 0);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut a = FifoArena::new(4);
        let mut l = FifoList::new(0);
        for s in 0..4 {
            l.push_back(&mut a, s);
        }
        l.move_to_front(&mut a, 2);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn grow_preserves_links() {
        let mut a = FifoArena::new(2);
        let mut l = FifoList::new(0);
        l.push_back(&mut a, 0);
        l.push_back(&mut a, 1);
        a.grow_to(10);
        l.push_back(&mut a, 9);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![0, 1, 9]);
    }
}
