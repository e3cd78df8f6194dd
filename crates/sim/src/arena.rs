//! A slab of index-linked agent lists — the allocation-free backing store
//! for protocol-side bookkeeping (rider queues, idle-guest pools, returned
//! prober lists).
//!
//! Dispersion protocols keep several small, disjoint waiting lists of
//! agents: the cohort riders still to be settled, the recruited guests
//! idling at the DFS head, the probers that have reported back. Holding
//! each list in its own `Vec<AgentId>` means per-trial heap churn
//! (allocation on growth, memmove on sorted insertion) — measurable across
//! the thousands of small trials a campaign grid runs.
//!
//! [`ListArena`] replaces all of them with one pair of `u32` link arrays
//! sized to the agent count: each agent is a slab slot, each list is a
//! [`ListHandle`] (head/tail/len), and membership is *intrusive* — an agent
//! threads through at most one list at a time, which is exactly the
//! protocol invariant (an agent is a rider *or* an idle guest *or* a
//! returned prober, never two at once; debug builds assert it). After
//! construction the arena never allocates: insertion and removal relink
//! indices, and [`ListArena::reset`] returns the slab to the empty state in
//! one pass for reuse across trials.
//!
//! Order is part of the protocol contract, so the arena is a *sequence*
//! slab, not a set: [`push_back`](ListArena::push_back) +
//! [`pop_front`](ListArena::pop_front) give FIFO,
//! [`insert_sorted`](ListArena::insert_sorted) maintains ascending index
//! order (agent ids are index + 1, so ascending index = ascending id).

use crate::ids::AgentId;

/// Sentinel for "no slot".
const NONE: u32 = u32::MAX;

/// One intrusive list threaded through a [`ListArena`]. Plain data —
/// copyable, default-empty; the arena does the linking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListHandle {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for ListHandle {
    fn default() -> Self {
        ListHandle::new()
    }
}

impl ListHandle {
    /// An empty list.
    pub const fn new() -> ListHandle {
        ListHandle {
            head: NONE,
            tail: NONE,
            len: 0,
        }
    }

    /// Number of agents in the list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first agent, if any (for ascending-sorted lists: the smallest).
    pub fn front(&self) -> Option<AgentId> {
        (self.head != NONE).then_some(AgentId(self.head))
    }
}

/// The shared slab: one `next` link per agent slot. Singly linked — the
/// protocol lists only ever insert in order and remove from the front, so
/// back-links would be dead weight.
#[derive(Debug, Clone)]
pub struct ListArena {
    next: Vec<u32>,
    /// Debug-only membership flag (an agent may thread through at most one
    /// list); in release builds correctness rests on the protocol invariant.
    #[cfg(debug_assertions)]
    linked: Vec<bool>,
}

impl ListArena {
    /// An arena for `k` agent slots. This is the only allocation the arena
    /// ever performs.
    pub fn new(k: usize) -> ListArena {
        ListArena {
            next: vec![NONE; k],
            #[cfg(debug_assertions)]
            linked: vec![false; k],
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.next.len()
    }

    /// Return every slot to the unlinked state (the caller must also reset
    /// its handles to [`ListHandle::new`]). One pass, no allocation — the
    /// reuse point for batched trials.
    pub fn reset(&mut self) {
        self.next.fill(NONE);
        #[cfg(debug_assertions)]
        self.linked.fill(false);
    }

    #[cfg(debug_assertions)]
    fn mark_linked(&mut self, slot: usize) {
        debug_assert!(!self.linked[slot], "agent {slot} already threads a list");
        self.linked[slot] = true;
    }

    #[cfg(debug_assertions)]
    fn mark_unlinked(&mut self, slot: usize) {
        debug_assert!(self.linked[slot], "agent {slot} not in any list");
        self.linked[slot] = false;
    }

    #[cfg(not(debug_assertions))]
    fn mark_linked(&mut self, _slot: usize) {}

    #[cfg(not(debug_assertions))]
    fn mark_unlinked(&mut self, _slot: usize) {}

    /// Append `agent` at the back of `list`.
    pub fn push_back(&mut self, list: &mut ListHandle, agent: AgentId) {
        let slot = agent.index();
        self.mark_linked(slot);
        self.next[slot] = NONE;
        if list.tail == NONE {
            list.head = slot as u32;
        } else {
            self.next[list.tail as usize] = slot as u32;
        }
        list.tail = slot as u32;
        list.len += 1;
    }

    /// Remove and return the front agent, if any.
    pub fn pop_front(&mut self, list: &mut ListHandle) -> Option<AgentId> {
        if list.head == NONE {
            return None;
        }
        let slot = list.head as usize;
        list.head = self.next[slot];
        if list.head == NONE {
            list.tail = NONE;
        }
        self.next[slot] = NONE;
        list.len -= 1;
        self.mark_unlinked(slot);
        Some(AgentId(slot as u32))
    }

    /// Insert `agent` keeping the list in ascending slot order. An id past
    /// the tail appends in O(1) — SYNC returns probers and recruits guests
    /// in ascending id order, so that is the common case — and any other
    /// id walks from the front.
    pub fn insert_sorted(&mut self, list: &mut ListHandle, agent: AgentId) {
        let slot = agent.index() as u32;
        if list.tail != NONE && slot > list.tail {
            self.push_back(list, agent);
            return;
        }
        if list.head == NONE || slot < list.head {
            self.mark_linked(slot as usize);
            self.next[slot as usize] = list.head;
            if list.head == NONE {
                list.tail = slot;
            }
            list.head = slot;
            list.len += 1;
            return;
        }
        self.mark_linked(slot as usize);
        let mut at = list.head;
        while self.next[at as usize] != NONE && self.next[at as usize] < slot {
            at = self.next[at as usize];
        }
        self.next[slot as usize] = self.next[at as usize];
        self.next[at as usize] = slot;
        if self.next[slot as usize] == NONE {
            list.tail = slot;
        }
        list.len += 1;
    }

    /// Iterate the list front to back without removing.
    pub fn iter<'a>(&'a self, list: &ListHandle) -> ListIter<'a> {
        ListIter {
            arena: self,
            at: list.head,
        }
    }

    /// Drain the whole list front to back into `out` (appending), leaving
    /// the handle empty. The caller-supplied buffer keeps this
    /// allocation-free after warm-up.
    pub fn drain_into(&mut self, list: &mut ListHandle, out: &mut Vec<AgentId>) {
        let mut at = list.head;
        while at != NONE {
            out.push(AgentId(at));
            let next = self.next[at as usize];
            self.next[at as usize] = NONE;
            self.mark_unlinked(at as usize);
            at = next;
        }
        *list = ListHandle::new();
    }
}

/// Front-to-back iterator over one list. See [`ListArena::iter`].
pub struct ListIter<'a> {
    arena: &'a ListArena,
    at: u32,
}

impl Iterator for ListIter<'_> {
    type Item = AgentId;

    fn next(&mut self) -> Option<AgentId> {
        if self.at == NONE {
            return None;
        }
        let slot = self.at as usize;
        self.at = self.arena.next[slot];
        Some(AgentId(slot as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(arena: &ListArena, list: &ListHandle) -> Vec<u32> {
        arena.iter(list).map(|a| a.0).collect()
    }

    #[test]
    fn fifo_push_pop() {
        let mut arena = ListArena::new(8);
        let mut list = ListHandle::new();
        for i in [3u32, 1, 5] {
            arena.push_back(&mut list, AgentId(i));
        }
        assert_eq!(list.len(), 3);
        assert_eq!(ids(&arena, &list), vec![3, 1, 5]);
        assert_eq!(arena.pop_front(&mut list), Some(AgentId(3)));
        assert_eq!(arena.pop_front(&mut list), Some(AgentId(1)));
        assert_eq!(arena.pop_front(&mut list), Some(AgentId(5)));
        assert_eq!(arena.pop_front(&mut list), None);
        assert!(list.is_empty());
        assert_eq!(list, ListHandle::new());
    }

    #[test]
    fn sorted_insertion_keeps_ascending_order() {
        let mut arena = ListArena::new(16);
        let mut list = ListHandle::new();
        for i in [7u32, 2, 11, 0, 5, 9] {
            arena.insert_sorted(&mut list, AgentId(i));
        }
        assert_eq!(ids(&arena, &list), vec![0, 2, 5, 7, 9, 11]);
        // pop_front on a sorted list yields the smallest.
        assert_eq!(arena.pop_front(&mut list), Some(AgentId(0)));
        // Re-insertion after removal lands back in order, including at the
        // tail (tail link must follow).
        arena.insert_sorted(&mut list, AgentId(15));
        arena.insert_sorted(&mut list, AgentId(3));
        assert_eq!(ids(&arena, &list), vec![2, 3, 5, 7, 9, 11, 15]);
        arena.push_back(&mut list, AgentId(0));
        assert_eq!(ids(&arena, &list).last(), Some(&0));
    }

    #[test]
    fn sorted_insertion_matches_a_sorted_vec() {
        // Ascending runs (the tail-append path) mixed with out-of-order
        // ids and front pops, mirrored in a plain sorted Vec.
        use disp_rng::prelude::*;
        let k = 64;
        let mut rng = StdRng::seed_from_u64(5);
        let mut arena = ListArena::new(k);
        let mut list = ListHandle::new();
        let mut model: Vec<u32> = Vec::new();
        for _ in 0..2_000 {
            let free: Vec<u32> = (0..k as u32).filter(|i| !model.contains(i)).collect();
            let ascending = free
                .iter()
                .copied()
                .find(|&i| model.last().is_none_or(|&t| i > t));
            let pick = match ascending {
                Some(i) if rng.random_bool(0.6) => Some(i),
                _ if !free.is_empty() && rng.random_bool(0.7) => {
                    Some(free[rng.random_range(0..free.len())])
                }
                _ => None,
            };
            match pick {
                Some(i) => {
                    arena.insert_sorted(&mut list, AgentId(i));
                    let at = model.partition_point(|&m| m < i);
                    model.insert(at, i);
                }
                None => {
                    let front = (!model.is_empty()).then(|| AgentId(model.remove(0)));
                    assert_eq!(arena.pop_front(&mut list), front);
                }
            }
            assert_eq!(ids(&arena, &list), model);
            assert_eq!(list.len(), model.len());
        }
    }

    #[test]
    fn drain_preserves_order_and_empties() {
        let mut arena = ListArena::new(8);
        let mut list = ListHandle::new();
        for i in [4u32, 6, 1] {
            arena.push_back(&mut list, AgentId(i));
        }
        let mut out = Vec::new();
        arena.drain_into(&mut list, &mut out);
        assert_eq!(out, vec![AgentId(4), AgentId(6), AgentId(1)]);
        assert!(list.is_empty());
        // Drained slots are immediately reusable.
        arena.insert_sorted(&mut list, AgentId(6));
        arena.insert_sorted(&mut list, AgentId(4));
        assert_eq!(ids(&arena, &list), vec![4, 6]);
    }

    #[test]
    fn independent_lists_share_one_slab() {
        let mut arena = ListArena::new(8);
        let mut riders = ListHandle::new();
        let mut guests = ListHandle::new();
        arena.insert_sorted(&mut riders, AgentId(2));
        arena.insert_sorted(&mut riders, AgentId(5));
        arena.insert_sorted(&mut guests, AgentId(3));
        assert_eq!(ids(&arena, &riders), vec![2, 5]);
        assert_eq!(ids(&arena, &guests), vec![3]);
        // Moving an agent between lists: remove, then insert.
        assert_eq!(arena.pop_front(&mut riders), Some(AgentId(2)));
        arena.insert_sorted(&mut guests, AgentId(2));
        assert_eq!(ids(&arena, &guests), vec![2, 3]);
    }

    #[test]
    fn reset_restores_the_empty_state() {
        let mut arena = ListArena::new(4);
        let mut list = ListHandle::new();
        for i in 0..4 {
            arena.push_back(&mut list, AgentId(i));
        }
        arena.reset();
        let mut list = ListHandle::new();
        arena.insert_sorted(&mut list, AgentId(1));
        assert_eq!(ids(&arena, &list), vec![1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already threads a list")]
    fn double_membership_is_caught_in_debug() {
        let mut arena = ListArena::new(4);
        let mut a = ListHandle::new();
        let mut b = ListHandle::new();
        arena.push_back(&mut a, AgentId(1));
        arena.push_back(&mut b, AgentId(1));
    }
}
