//! Allocation-free backing stores for protocol-side bookkeeping: a slab of
//! index-linked FIFO agent lists and an ordered agent set.
//!
//! Dispersion protocols keep several small, disjoint waiting lists of
//! agents: the cohort riders still to be settled, the recruited guests
//! idling at the DFS head, the probers that have reported back. Holding
//! each list in its own `Vec<AgentId>` means per-trial heap churn
//! (allocation on growth, memmove on sorted insertion) — measurable across
//! the thousands of small trials a campaign grid runs.
//!
//! [`ListArena`] holds the lists kept in arrival order in one pair of
//! `u32` link arrays sized to the agent count: each agent is a slab slot,
//! each list is a [`ListHandle`] (head/tail/len), and membership is
//! *intrusive* — an agent threads through at most one list at a time
//! (debug builds assert it). After construction the arena never allocates:
//! insertion and removal relink indices, and [`ListArena::reset`] returns
//! the slab to the empty state in one pass for reuse across trials.
//!
//! [`AgentSet`] holds the lists kept in ascending id order: a two-level
//! bitset over agent ids, so an insert costs O(1) wherever the id falls
//! and the smallest member is found through one summary word per 4,096
//! agents, instead of a walk from the front of a linked list.

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

/// An ordered set of agent ids below a fixed capacity, as a two-level
/// bitset: bit `i` of the lower level marks agent `i`, and bit `w` of the
/// summary marks a nonzero lower word `w`. Insert and remove are O(1);
/// [`AgentSet::first`] scans the summary, one word per 4,096 agents.
/// Sized once; never allocates after construction.
#[derive(Debug, Clone)]
pub struct AgentSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl AgentSet {
    /// An empty set for ids below `k`.
    pub fn new(k: usize) -> AgentSet {
        let words = k.div_ceil(64);
        AgentSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `agent`; `false` if it was a member already.
    pub fn insert(&mut self, agent: AgentId) -> bool {
        let i = agent.index();
        let (w, bit) = (i / 64, 1 << (i % 64));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
        true
    }

    /// Remove `agent`; `false` if it was not a member.
    pub fn remove(&mut self, agent: AgentId) -> bool {
        let i = agent.index();
        let (w, bit) = (i / 64, 1 << (i % 64));
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
        true
    }

    /// The smallest member.
    pub fn first(&self) -> Option<AgentId> {
        let (s, &bits) = self.summary.iter().enumerate().find(|(_, &b)| b != 0)?;
        let w = s * 64 + bits.trailing_zeros() as usize;
        Some(AgentId((w * 64) as u32 + self.words[w].trailing_zeros()))
    }

    /// Remove and return the smallest member.
    pub fn pop_first(&mut self) -> Option<AgentId> {
        let first = self.first()?;
        self.remove(first);
        Some(first)
    }

    /// Move every member, ascending, to the end of `out`, leaving the set
    /// empty. The caller-supplied buffer keeps this allocation-free after
    /// warm-up.
    pub fn drain_into(&mut self, out: &mut Vec<AgentId>) {
        for (s, summary) in self.summary.iter_mut().enumerate() {
            let mut nonzero = std::mem::take(summary);
            while nonzero != 0 {
                let w = s * 64 + nonzero.trailing_zeros() as usize;
                nonzero &= nonzero - 1;
                let mut bits = std::mem::take(&mut self.words[w]);
                while bits != 0 {
                    out.push(AgentId((w * 64) as u32 + bits.trailing_zeros()));
                    bits &= bits - 1;
                }
            }
        }
        self.len = 0;
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

    fn members(set: &AgentSet) -> Vec<u32> {
        let mut out = Vec::new();
        set.clone().drain_into(&mut out);
        out.into_iter().map(|a| a.0).collect()
    }

    #[test]
    fn sorted_insertion_keeps_ascending_order() {
        let mut set = AgentSet::new(16);
        for i in [7u32, 2, 11, 0, 5, 9] {
            assert!(set.insert(AgentId(i)));
        }
        assert!(!set.insert(AgentId(7)));
        assert_eq!(members(&set), vec![0, 2, 5, 7, 9, 11]);
        // pop_first yields the smallest.
        assert_eq!(set.pop_first(), Some(AgentId(0)));
        assert_eq!(set.first(), Some(AgentId(2)));
        // Ids land in order wherever they fall, the top slot included.
        set.insert(AgentId(15));
        set.insert(AgentId(3));
        assert_eq!(members(&set), vec![2, 3, 5, 7, 9, 11, 15]);
        assert_eq!(set.len(), 7);
        let mut out = vec![AgentId(99)];
        set.drain_into(&mut out);
        assert_eq!(out.len(), 8);
        assert!(set.is_empty() && set.first().is_none());
    }

    #[test]
    fn sorted_insertion_matches_a_sorted_vec() {
        // Inserts anywhere (ascending runs included), removals, pops of
        // the minimum and whole drains, mirrored in a plain sorted Vec, on
        // a capacity that spans two summary words.
        use disp_rng::prelude::*;
        let k = 4_096 + 700;
        let mut rng = StdRng::seed_from_u64(5);
        let mut set = AgentSet::new(k);
        let mut model: Vec<u32> = Vec::new();
        let mut drained = Vec::new();
        for step in 0..20_000 {
            match rng.random_range(0..100u32) {
                0..=49 => {
                    let i = match model.last() {
                        Some(&t) if rng.random_bool(0.3) && (t as usize) + 1 < k => t + 1,
                        _ => rng.random_range(0..k as u32),
                    };
                    let at = model.partition_point(|&m| m < i);
                    let absent = model.get(at) != Some(&i);
                    if absent {
                        model.insert(at, i);
                    }
                    assert_eq!(set.insert(AgentId(i)), absent);
                }
                50..=74 => {
                    let front = (!model.is_empty()).then(|| AgentId(model.remove(0)));
                    assert_eq!(set.pop_first(), front);
                }
                75..=98 => {
                    let i = rng.random_range(0..k as u32);
                    let present = model.binary_search(&i).map(|at| model.remove(at));
                    assert_eq!(set.remove(AgentId(i)), present.is_ok());
                }
                _ => {
                    drained.clear();
                    set.drain_into(&mut drained);
                    let ids: Vec<u32> = drained.iter().map(|a| a.0).collect();
                    assert_eq!(ids, model);
                    model.clear();
                }
            }
            assert_eq!(set.len(), model.len(), "step {step}");
            assert_eq!(set.first(), model.first().map(|&i| AgentId(i)));
        }
        assert_eq!(members(&set), model);
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
        arena.push_back(&mut list, AgentId(6));
        arena.push_back(&mut list, AgentId(4));
        assert_eq!(ids(&arena, &list), vec![6, 4]);
    }

    #[test]
    fn independent_lists_share_one_slab() {
        let mut arena = ListArena::new(8);
        let mut riders = ListHandle::new();
        let mut guests = ListHandle::new();
        arena.push_back(&mut riders, AgentId(2));
        arena.push_back(&mut riders, AgentId(5));
        arena.push_back(&mut guests, AgentId(3));
        assert_eq!(ids(&arena, &riders), vec![2, 5]);
        assert_eq!(ids(&arena, &guests), vec![3]);
        // Moving an agent between lists: remove, then insert.
        assert_eq!(arena.pop_front(&mut riders), Some(AgentId(2)));
        arena.push_back(&mut guests, AgentId(2));
        assert_eq!(ids(&arena, &guests), vec![3, 2]);
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
        arena.push_back(&mut list, AgentId(1));
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
