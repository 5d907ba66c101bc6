//! An intrusive, slab-backed doubly-linked LRU list.

/// A fixed-capacity least-recently-used ordering over slot indices.
///
/// The list tracks *slots* `0..capacity` (the buffer pool maps page ids to
/// slots separately). All operations are O(1):
///
/// * [`LruList::touch`] moves a slot to the most-recently-used end,
/// * [`LruList::push_front`] inserts a new slot as most-recently-used,
/// * [`LruList::pop_back`] evicts the least-recently-used slot.
///
/// Slots not currently linked are simply absent from the list; linking a slot
/// twice is a logic error and panics in debug builds.
#[derive(Debug)]
pub(crate) struct LruList {
    prev: Vec<usize>,
    next: Vec<usize>,
    linked: Vec<bool>,
    head: usize, // most recently used; == NIL when empty
    tail: usize, // least recently used
}

const NIL: usize = usize::MAX;

impl LruList {
    /// A list managing slots `0..capacity`, initially empty.
    pub(crate) fn new(capacity: usize) -> Self {
        LruList {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            linked: vec![false; capacity],
            head: NIL,
            tail: NIL,
        }
    }

    /// Links `slot` as most-recently-used.
    pub(crate) fn push_front(&mut self, slot: usize) {
        debug_assert!(!self.linked[slot], "slot {slot} already linked");
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
        self.linked[slot] = true;
    }

    /// Unlinks and returns the least-recently-used slot, if any.
    pub(crate) fn pop_back(&mut self) -> Option<usize> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        self.remove(slot);
        Some(slot)
    }

    /// Unlinks `slot` from wherever it is.
    fn remove(&mut self, slot: usize) {
        debug_assert!(self.linked[slot], "slot {slot} not linked");
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.linked[slot] = false;
    }

    /// Moves `slot` to the most-recently-used position.
    pub(crate) fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.remove(slot);
        self.push_front(slot);
    }

    /// Slots from most- to least-recently-used.
    #[cfg(test)]
    fn iter_mru(&self) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let s = cur;
                cur = self.next[cur];
                Some(s)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(l: &LruList) -> Vec<usize> {
        l.iter_mru().collect()
    }

    #[test]
    fn push_and_pop_fifo_when_untouched() {
        let mut l = LruList::new(4);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        assert_eq!(order(&l), vec![2, 1, 0]);
        assert_eq!(l.pop_back(), Some(0));
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), None);
        assert!(order(&l).is_empty());
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new(4);
        for s in 0..4 {
            l.push_front(s);
        }
        l.touch(1);
        assert_eq!(order(&l), vec![1, 3, 2, 0]);
        l.touch(0);
        assert_eq!(order(&l), vec![0, 1, 3, 2]);
        assert_eq!(l.pop_back(), Some(2));
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruList::new(2);
        l.push_front(0);
        l.push_front(1);
        l.touch(1);
        assert_eq!(order(&l), vec![1, 0]);
    }

    #[test]
    fn remove_middle_and_relink() {
        let mut l = LruList::new(3);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        l.remove(1);
        assert_eq!(order(&l), vec![2, 0]);
        l.push_front(1);
        assert_eq!(order(&l), vec![1, 2, 0]);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut l = LruList::new(1);
        l.push_front(0);
        l.touch(0);
        assert_eq!(order(&l), vec![0]);
        assert_eq!(l.pop_back(), Some(0));
        assert!(order(&l).is_empty());
        l.push_front(0);
        assert_eq!(order(&l), vec![0]);
    }
}
