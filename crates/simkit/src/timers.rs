//! The kernel's timer heap: an indexed 4-ary min-heap holding at most one
//! pending wake per process, with *timer groups* for wakes that are
//! re-keyed together.
//!
//! An entry's key is `(time_ns << 64) | seq`, so entries order by virtual
//! time and then by the sequence number the kernel allocated when the wake
//! was scheduled. `loc` maps each pid to where its wake is, which lets a
//! process's wake be re-keyed or removed in place: nothing ever holds a
//! superseded wake, so a pop never has one to skip.
//!
//! # Groups
//!
//! A group holds the wakes of processes blocked in one FlowNet. Its
//! members sit in an unsorted list, and the heap holds one *proxy* entry
//! per non-empty group, keyed by the group's earliest member. Re-keying a
//! member is a store into that list that marks the group dirty; before
//! the next peek or pop each dirty group's minimum is found by a linear
//! scan and its proxy re-keyed once. A rate recompute that re-times every
//! flow on a net thus costs one sift, not one per flow. Any wake of a
//! grouped process scheduled outside its group (a kill) moves it back to
//! the heap.
//!
//! The heap's own entries and the groups' members hold exactly one key
//! per pending wake, and a proxy carries its group's least key, so the
//! pop order is that of one heap over all of them.

use crate::time::SimTime;

/// Children per node. Four keeps the tree shallow and a node's children
/// on one cache line.
const ARITY: usize = 4;

/// Set in an entry's `id` when it is a group's proxy; pids stay below it.
const GROUP: u32 = 1 << 31;

/// Slot of a group with no proxy in the heap.
const VACANT: u32 = u32::MAX;

fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(seq)
}

fn time_of(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u128,
    /// A pid, or `GROUP | group` for a proxy.
    id: u32,
}

/// Where a process's pending wake is.
#[derive(Clone, Copy)]
enum Loc {
    None,
    /// Its own entry, at this slot of the heap.
    Heap(u32),
    /// A member of this group, at this index of its lists.
    Group(u32, u32),
}

struct Group {
    /// Members' keys, unordered; `pids` is parallel.
    keys: Vec<u128>,
    pids: Vec<u32>,
    /// Slot of the proxy in the heap, `VACANT` while there is none.
    slot: u32,
    /// Index of the earliest member; valid while the group is clean.
    min: u32,
    /// Members changed since the proxy was keyed.
    dirty: bool,
}

pub(crate) struct TimerHeap {
    entries: Vec<Entry>,
    loc: Vec<Loc>,
    groups: Vec<Group>,
    /// Groups whose proxy must be re-keyed before the next peek or pop.
    dirty: Vec<u32>,
    /// Pending wakes, grouped ones included (proxies are not wakes).
    len: usize,
}

impl TimerHeap {
    pub(crate) fn new() -> Self {
        TimerHeap {
            entries: Vec::new(),
            loc: Vec::new(),
            groups: Vec::new(),
            dirty: Vec::new(),
            len: 0,
        }
    }

    /// Number of pending wakes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Make room for the next pid, which has no wake yet.
    pub(crate) fn add_proc(&mut self) {
        assert!(self.loc.len() < GROUP as usize, "pid space exhausted");
        self.loc.push(Loc::None);
    }

    /// Create an empty group and return its id.
    pub(crate) fn add_group(&mut self) -> u32 {
        let g = self.groups.len() as u32;
        assert!(g < GROUP, "group space exhausted");
        self.groups.push(Group {
            keys: Vec::new(),
            pids: Vec::new(),
            slot: VACANT,
            min: 0,
            dirty: false,
        });
        g
    }

    /// Set `pid`'s wake to `(time, seq)`, in `group` or, for `None`, in
    /// the heap. A wake already there is re-keyed in place (in a group,
    /// one store; its proxy follows at the next peek or pop); one
    /// elsewhere is moved. Returns whether an existing wake was replaced.
    pub(crate) fn schedule(
        &mut self,
        pid: u32,
        time: SimTime,
        seq: u64,
        group: Option<u32>,
    ) -> bool {
        let key = key(time, seq);
        match (self.loc[pid as usize], group) {
            (Loc::Heap(i), None) => {
                self.rekey(i as usize, key);
                return true;
            }
            (Loc::Group(g, i), Some(h)) if g == h => {
                self.groups[g as usize].keys[i as usize] = key;
                self.mark_dirty(g);
                return true;
            }
            _ => {}
        }
        let replaced = self.detach(pid);
        if !replaced {
            self.len += 1;
        }
        match group {
            None => self.push(Entry { key, id: pid }),
            Some(g) => {
                let grp = &mut self.groups[g as usize];
                self.loc[pid as usize] = Loc::Group(g, grp.keys.len() as u32);
                grp.keys.push(key);
                grp.pids.push(pid);
                self.mark_dirty(g);
            }
        }
        replaced
    }

    /// Time of the earliest wake, and the group it is in (`None` for a
    /// wake in the heap).
    pub(crate) fn peek(&mut self) -> Option<(SimTime, Option<u32>)> {
        self.flush();
        self.entries.first().map(|e| {
            let group = (e.id & GROUP != 0).then_some(e.id & !GROUP);
            (time_of(e.key), group)
        })
    }

    /// Take the earliest wake: its time and owner.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.flush();
        let top = *self.entries.first()?;
        self.len -= 1;
        if top.id & GROUP == 0 {
            self.remove_at(0);
            return Some((time_of(top.key), top.id));
        }
        // The group is clean after the flush, so `min` is its earliest
        // member, the one the proxy is keyed by.
        let g = top.id & !GROUP;
        let i = self.groups[g as usize].min;
        let pid = self.groups[g as usize].pids[i as usize];
        debug_assert_eq!(self.groups[g as usize].keys[i as usize], top.key);
        self.take_member(g, i);
        Some((time_of(top.key), pid))
    }

    /// Drop `pid`'s wake, if it has one.
    pub(crate) fn remove(&mut self, pid: u32) {
        if self.detach(pid) {
            self.len -= 1;
        }
    }

    /// Take `pid`'s wake out of the heap or its group, leaving `len` to
    /// the caller. Returns whether it had one.
    fn detach(&mut self, pid: u32) -> bool {
        match self.loc[pid as usize] {
            Loc::None => return false,
            Loc::Heap(i) => self.remove_at(i as usize),
            Loc::Group(g, i) => self.take_member(g, i),
        }
        true
    }

    fn mark_dirty(&mut self, g: u32) {
        let grp = &mut self.groups[g as usize];
        if !grp.dirty {
            grp.dirty = true;
            self.dirty.push(g);
        }
    }

    /// Remove member `i` of group `g`, leaving its pid without a wake.
    fn take_member(&mut self, g: u32, i: u32) {
        let grp = &mut self.groups[g as usize];
        let (i, pid) = (i as usize, grp.pids.swap_remove(i as usize));
        grp.keys.swap_remove(i);
        if let Some(&moved) = grp.pids.get(i) {
            self.loc[moved as usize] = Loc::Group(g, i as u32);
        }
        self.loc[pid as usize] = Loc::None;
        self.mark_dirty(g);
    }

    /// Key each dirty group's proxy by its earliest member, inserting or
    /// removing the proxy as the group fills or empties.
    fn flush(&mut self) {
        while let Some(g) = self.dirty.pop() {
            let grp = &mut self.groups[g as usize];
            grp.dirty = false;
            let slot = grp.slot;
            let min = grp
                .keys
                .iter()
                .enumerate()
                .min_by_key(|&(_, &k)| k)
                .map(|(i, &k)| (i as u32, k));
            match min {
                None if slot == VACANT => {}
                None => self.remove_at(slot as usize),
                Some((i, key)) => {
                    grp.min = i;
                    if slot == VACANT {
                        self.push(Entry { key, id: GROUP | g });
                    } else {
                        self.rekey(slot as usize, key);
                    }
                }
            }
        }
    }

    fn push(&mut self, e: Entry) {
        self.entries.push(e);
        self.sift_up(self.entries.len() - 1);
    }

    fn rekey(&mut self, i: usize, key: u128) {
        let old = std::mem::replace(&mut self.entries[i].key, key);
        if key < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Remove the entry at slot `i`; its pid or group has none after.
    fn remove_at(&mut self, i: usize) {
        let out = self.entries[i];
        let last = self.entries.pop().expect("remove from an empty heap");
        if i < self.entries.len() {
            self.entries[i] = last;
            if last.key < out.key {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        if out.id & GROUP == 0 {
            self.loc[out.id as usize] = Loc::None;
        } else {
            self.groups[(out.id & !GROUP) as usize].slot = VACANT;
        }
    }

    fn place(&mut self, i: usize, e: Entry) {
        self.entries[i] = e;
        if e.id & GROUP == 0 {
            self.loc[e.id as usize] = Loc::Heap(i as u32);
        } else {
            self.groups[(e.id & !GROUP) as usize].slot = i as u32;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.entries[parent].key < e.key {
                break;
            }
            self.place(i, self.entries[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.entries[i];
        let n = self.entries.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + ARITY).min(n) {
                if self.entries[c].key < self.entries[min].key {
                    min = c;
                }
            }
            if e.key < self.entries[min].key {
                break;
            }
            self.place(i, self.entries[min]);
            i = min;
        }
        self.place(i, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The scheduler this heap replaced: every wake is pushed, the pid's
    /// latest sequence number is its only valid one, and a pop skips the
    /// rest.
    struct LazyModel {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        pending: Vec<Option<u64>>,
    }

    impl LazyModel {
        fn schedule(&mut self, pid: u32, time: SimTime, seq: u64) {
            self.pending[pid as usize] = Some(seq);
            self.heap.push(Reverse((time, seq, pid)));
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            while let Some(Reverse((time, seq, pid))) = self.heap.pop() {
                if self.pending[pid as usize] == Some(seq) {
                    self.pending[pid as usize] = None;
                    return Some((time, pid));
                }
            }
            None
        }

        fn pending(&self) -> usize {
            self.pending.iter().flatten().count()
        }
    }

    /// A wake time a handful of distinct instants around `now`, so
    /// equal-time ties and earlier/later moves abound.
    fn near(rng: &mut StdRng, now: SimTime) -> SimTime {
        let ns = now.as_nanos();
        SimTime::from_nanos(match rng.gen_range(0u64..4) {
            0 => ns,
            1 => ns + rng.gen_range(0u64..4) * 10,
            2 => ns.saturating_sub(10),
            _ => ns + rng.gen_range(0u64..1000),
        })
    }

    /// The heap and the lazy model side by side, with the process state
    /// the kernel keeps around them.
    struct Pair {
        heap: TimerHeap,
        model: LazyModel,
        dead: Vec<bool>,
        /// The group holding each pid's pending wake, if any.
        group_of: Vec<Option<u32>>,
        now: SimTime,
        next_seq: u64,
    }

    impl Pair {
        /// What the kernel's `schedule_wake_locked` does; `group` is the
        /// FlowNet's for a flow retime, `None` for any other wake.
        fn wake(&mut self, pid: u32, time: SimTime, group: Option<u32>) {
            let time = time.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.dead[pid as usize] {
                return;
            }
            self.heap.schedule(pid, time, seq, group);
            self.model.schedule(pid, time, seq);
            self.group_of[pid as usize] = group;
        }
    }

    /// Drive the heap and the lazy model through the same random spawns,
    /// re-keys (earlier, later, same time, many ties) into the heap or
    /// into one of several groups, storms that re-key a whole group at
    /// once, kills (which move a grouped wake back to the heap), finishes
    /// and pops, as the kernel would, and require the same pops.
    #[test]
    fn matches_the_lazy_heap_on_random_schedules() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut heap = TimerHeap::new();
            let groups: Vec<u32> = (0..3).map(|_| heap.add_group()).collect();
            let mut s = Pair {
                heap,
                model: LazyModel {
                    heap: BinaryHeap::new(),
                    pending: Vec::new(),
                },
                dead: Vec::new(),
                group_of: Vec::new(),
                now: SimTime::ZERO,
                next_seq: 0,
            };
            let (mut pops, mut grouped_pops) = (0, 0);
            for _ in 0..4000 {
                let live: Vec<u32> = (0..s.dead.len() as u32)
                    .filter(|&p| !s.dead[p as usize])
                    .collect();
                let any_live = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
                let any_group = |rng: &mut StdRng| groups[rng.gen_range(0..groups.len())];
                let now = s.now;
                let op = rng.gen_range(0u64..100);
                if op < 8 || live.is_empty() {
                    // Spawn: first wake at the current instant.
                    s.heap.add_proc();
                    s.model.pending.push(None);
                    s.dead.push(false);
                    s.group_of.push(None);
                    s.wake(s.dead.len() as u32 - 1, now, None);
                } else if op < 30 {
                    // Re-key into the heap.
                    let pid = any_live(&mut rng);
                    s.wake(pid, near(&mut rng, now), None);
                } else if op < 52 {
                    // Re-key into a group, possibly from another one.
                    let pid = any_live(&mut rng);
                    let g = any_group(&mut rng);
                    s.wake(pid, near(&mut rng, now), Some(g));
                } else if op < 56 {
                    // Storm: a recompute re-times every member of a group
                    // at one instant.
                    let g = any_group(&mut rng);
                    for &pid in &live {
                        if s.group_of[pid as usize] == Some(g) {
                            s.wake(pid, near(&mut rng, now), Some(g));
                        }
                    }
                } else if op < 62 {
                    // Kill: an immediate wake in the heap so the process
                    // unwinds; a grouped wake leaves its group.
                    let pid = any_live(&mut rng);
                    s.wake(pid, now, None);
                } else if op < 68 {
                    // Finish: the process dies and its wake goes with it.
                    let pid = any_live(&mut rng);
                    s.dead[pid as usize] = true;
                    s.group_of[pid as usize] = None;
                    s.heap.remove(pid);
                    s.model.pending[pid as usize] = None;
                } else if op < 70 {
                    // A wake scheduled for a dead process is refused.
                    if let Some(pid) = (0..s.dead.len() as u32).find(|&p| s.dead[p as usize]) {
                        let g = any_group(&mut rng);
                        s.wake(pid, now, Some(g));
                    }
                } else {
                    let got = s.heap.pop();
                    assert_eq!(got, s.model.pop(), "seed {seed}, pop {pops}");
                    if let Some((time, pid)) = got {
                        s.now = time;
                        pops += 1;
                        if s.group_of[pid as usize].take().is_some() {
                            grouped_pops += 1;
                        }
                    }
                }
                assert_eq!(s.heap.len(), s.model.pending(), "seed {seed}");
            }
            while let Some(got) = s.heap.pop() {
                assert_eq!(Some(got), s.model.pop(), "seed {seed}, drain");
            }
            assert_eq!(s.model.pop(), None);
            assert_eq!(s.heap.len(), 0);
            assert!(pops > 500, "seed {seed}: only {pops} pops");
            assert!(
                grouped_pops > 100,
                "seed {seed}: only {grouped_pops} grouped pops"
            );
        }
    }
}
