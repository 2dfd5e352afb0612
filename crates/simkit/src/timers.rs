//! The kernel's timer heap: an indexed 4-ary min-heap holding at most one
//! pending wake per process.
//!
//! An entry's key is `(time_ns << 64) | seq`, so entries order by virtual
//! time and then by the sequence number the kernel allocated when the wake
//! was scheduled. `pos` maps each pid to its entry's slot, which lets a
//! process's wake be re-keyed or removed in place: the heap never holds a
//! superseded entry, so a pop never has one to skip.

use crate::time::SimTime;

/// Children per node. Four keeps the tree shallow and a node's children
/// on one cache line.
const ARITY: usize = 4;

/// `pos` value of a process with no pending wake.
const VACANT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u128,
    pid: u32,
}

impl Entry {
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

pub(crate) struct TimerHeap {
    entries: Vec<Entry>,
    /// Slot in `entries` of each pid's wake, `VACANT` when it has none.
    pos: Vec<u32>,
}

impl TimerHeap {
    pub(crate) fn new() -> Self {
        TimerHeap {
            entries: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Number of pending wakes.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Make room for the next pid, which has no wake yet.
    pub(crate) fn add_proc(&mut self) {
        self.pos.push(VACANT);
    }

    /// Set `pid`'s wake to `(time, seq)`: insert it, or re-key the one it
    /// has. Returns whether an existing wake was re-keyed.
    pub(crate) fn schedule(&mut self, pid: u32, time: SimTime, seq: u64) -> bool {
        let key = (u128::from(time.as_nanos()) << 64) | u128::from(seq);
        match self.pos[pid as usize] {
            VACANT => {
                self.entries.push(Entry { key, pid });
                self.sift_up(self.entries.len() - 1);
                false
            }
            i => {
                let i = i as usize;
                let old = std::mem::replace(&mut self.entries[i].key, key);
                if key < old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
                true
            }
        }
    }

    /// Time of the earliest wake.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(Entry::time)
    }

    /// Take the earliest wake: its time and owner.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        let e = self.remove_at(0);
        Some((e.time(), e.pid))
    }

    /// Drop `pid`'s wake, if it has one.
    pub(crate) fn remove(&mut self, pid: u32) {
        let i = self.pos[pid as usize];
        if i != VACANT {
            self.remove_at(i as usize);
        }
    }

    fn remove_at(&mut self, i: usize) -> Entry {
        let last = self.entries.pop().expect("remove from an empty heap");
        let out = if i < self.entries.len() {
            let out = std::mem::replace(&mut self.entries[i], last);
            if last.key < out.key {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
            out
        } else {
            last
        };
        self.pos[out.pid as usize] = VACANT;
        out
    }

    fn place(&mut self, i: usize, e: Entry) {
        self.entries[i] = e;
        self.pos[e.pid as usize] = i as u32;
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

    /// Drive the heap and the lazy model through the same random spawns,
    /// re-keys (earlier, later, same time, many ties), kills, finishes
    /// and pops, as the kernel would, and require the same pops.
    #[test]
    fn matches_the_lazy_heap_on_random_schedules() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut heap = TimerHeap::new();
            let mut model = LazyModel {
                heap: BinaryHeap::new(),
                pending: Vec::new(),
            };
            let mut dead: Vec<bool> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut next_seq = 0u64;
            let mut pops = 0;
            for _ in 0..4000 {
                let live: Vec<u32> = (0..dead.len() as u32)
                    .filter(|&p| !dead[p as usize])
                    .collect();
                let op = rng.gen_range(0u64..100);
                // What the kernel's `schedule_wake_locked` does.
                let mut wake = |heap: &mut TimerHeap,
                                model: &mut LazyModel,
                                dead: &[bool],
                                pid: u32,
                                time: SimTime| {
                    let time = time.max(now);
                    let seq = next_seq;
                    next_seq += 1;
                    if !dead[pid as usize] {
                        heap.schedule(pid, time, seq);
                        model.schedule(pid, time, seq);
                    }
                };
                if op < 8 || live.is_empty() {
                    // Spawn: first wake at the current instant.
                    heap.add_proc();
                    model.pending.push(None);
                    dead.push(false);
                    wake(&mut heap, &mut model, &dead, dead.len() as u32 - 1, now);
                } else if op < 60 {
                    // Re-key: a handful of distinct instants around now,
                    // so equal-time ties and earlier/later moves abound.
                    let pid = live[rng.gen_range(0..live.len())];
                    let time = match rng.gen_range(0u64..4) {
                        0 => now,
                        1 => SimTime::from_nanos(now.as_nanos() + rng.gen_range(0u64..4) * 10),
                        2 => SimTime::from_nanos(now.as_nanos().saturating_sub(10)),
                        _ => SimTime::from_nanos(now.as_nanos() + rng.gen_range(0u64..1000)),
                    };
                    wake(&mut heap, &mut model, &dead, pid, time);
                } else if op < 64 {
                    // Kill: an immediate wake so the process unwinds.
                    let pid = live[rng.gen_range(0..live.len())];
                    wake(&mut heap, &mut model, &dead, pid, now);
                } else if op < 70 {
                    // Finish: the process dies and its wake goes with it.
                    let pid = live[rng.gen_range(0..live.len())];
                    dead[pid as usize] = true;
                    heap.remove(pid);
                    model.pending[pid as usize] = None;
                } else if op < 72 {
                    // A wake scheduled for a dead process is refused.
                    if let Some(pid) = (0..dead.len() as u32).find(|&p| dead[p as usize]) {
                        wake(&mut heap, &mut model, &dead, pid, now);
                    }
                } else {
                    let got = heap.pop();
                    assert_eq!(got, model.pop(), "seed {seed}, pop {pops}");
                    if let Some((time, _)) = got {
                        now = time;
                        pops += 1;
                    }
                }
                assert_eq!(heap.len(), model.pending(), "seed {seed}");
            }
            while let Some(got) = heap.pop() {
                assert_eq!(Some(got), model.pop(), "seed {seed}, drain");
            }
            assert_eq!(model.pop(), None);
            assert!(pops > 500, "seed {seed}: only {pops} pops");
        }
    }
}
