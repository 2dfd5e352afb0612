//! The kernel's timer heap: an indexed 4-ary min-heap holding at most one
//! pending wake per process.
//!
//! An entry's key is `(time_ns << 64) | seq`, so entries order by virtual
//! time and then by the sequence number the kernel allocated when the wake
//! was scheduled. `pos` maps each pid to its entry's slot, which lets a
//! process's wake be re-keyed or removed in place: nothing ever holds a
//! superseded wake, so a pop never has one to skip.

use crate::time::SimTime;

/// Children per node. Four keeps the tree shallow and a node's children
/// on one cache line.
const ARITY: usize = 4;

fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(seq)
}

fn time_of(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u128,
    pid: u32,
}

pub(crate) struct TimerHeap {
    entries: Vec<Entry>,
    /// Slot of each pid's entry, `None` while it has no wake.
    pos: Vec<Option<u32>>,
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
        self.pos.push(None);
    }

    /// Set `pid`'s wake to `(time, seq)`, re-keying the one it has in
    /// place. Returns whether an existing wake was replaced.
    pub(crate) fn schedule(&mut self, pid: u32, time: SimTime, seq: u64) -> bool {
        let key = key(time, seq);
        match self.pos[pid as usize] {
            Some(i) => {
                self.rekey(i as usize, key);
                true
            }
            None => {
                self.entries.push(Entry { key, pid });
                self.sift_up(self.entries.len() - 1);
                false
            }
        }
    }

    /// Time and owner of the earliest wake.
    pub(crate) fn peek(&self) -> Option<(SimTime, u32)> {
        self.entries.first().map(|e| (time_of(e.key), e.pid))
    }

    /// Take the earliest wake: its time and owner.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u32)> {
        let top = self.peek()?;
        self.remove_at(0);
        Some(top)
    }

    /// Drop `pid`'s wake, if it has one.
    pub(crate) fn remove(&mut self, pid: u32) {
        if let Some(i) = self.pos[pid as usize] {
            self.remove_at(i as usize);
        }
    }

    fn rekey(&mut self, i: usize, key: u128) {
        let old = std::mem::replace(&mut self.entries[i].key, key);
        if key < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Remove the entry at slot `i`; its pid has no wake after.
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
        self.pos[out.pid as usize] = None;
    }

    fn place(&mut self, i: usize, e: Entry) {
        self.entries[i] = e;
        self.pos[e.pid as usize] = Some(i as u32);
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
        now: SimTime,
        next_seq: u64,
    }

    impl Pair {
        /// What the kernel's `schedule_wake_locked` does.
        fn wake(&mut self, pid: u32, time: SimTime) {
            let time = time.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.dead[pid as usize] {
                return;
            }
            self.heap.schedule(pid, time, seq);
            self.model.schedule(pid, time, seq);
        }
    }

    /// Drive the heap and the lazy model through the same random spawns,
    /// re-keys (earlier, later, same time, many ties), storms that re-key
    /// many wakes at one instant, kills, finishes, refused wakes to dead
    /// pids and pops, as the kernel would, and require the same pops.
    #[test]
    fn matches_the_lazy_heap_on_random_schedules() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = Pair {
                heap: TimerHeap::new(),
                model: LazyModel {
                    heap: BinaryHeap::new(),
                    pending: Vec::new(),
                },
                dead: Vec::new(),
                now: SimTime::ZERO,
                next_seq: 0,
            };
            let mut pops = 0;
            for _ in 0..4000 {
                let live: Vec<u32> = (0..s.dead.len() as u32)
                    .filter(|&p| !s.dead[p as usize])
                    .collect();
                let any_live = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
                let now = s.now;
                let op = rng.gen_range(0u64..100);
                if op < 8 || live.is_empty() {
                    // Spawn: first wake at the current instant.
                    s.heap.add_proc();
                    s.model.pending.push(None);
                    s.dead.push(false);
                    s.wake(s.dead.len() as u32 - 1, now);
                } else if op < 52 {
                    // Re-key: a sleep, or a flow retime.
                    let pid = any_live(&mut rng);
                    s.wake(pid, near(&mut rng, now));
                } else if op < 56 {
                    // Storm: a recompute re-times a third of the processes
                    // at one instant.
                    for &pid in &live {
                        if rng.gen_range(0u64..3) == 0 {
                            s.wake(pid, near(&mut rng, now));
                        }
                    }
                } else if op < 62 {
                    // Kill: an immediate wake so the process unwinds.
                    let pid = any_live(&mut rng);
                    s.wake(pid, now);
                } else if op < 68 {
                    // Finish: the process dies and its wake goes with it.
                    let pid = any_live(&mut rng);
                    s.dead[pid as usize] = true;
                    s.heap.remove(pid);
                    s.model.pending[pid as usize] = None;
                } else if op < 70 {
                    // A wake scheduled for a dead process is refused.
                    if let Some(pid) = (0..s.dead.len() as u32).find(|&p| s.dead[p as usize]) {
                        s.wake(pid, now);
                    }
                } else {
                    let got = s.heap.pop();
                    assert_eq!(got, s.model.pop(), "seed {seed}, pop {pops}");
                    if let Some((time, _)) = got {
                        s.now = time;
                        pops += 1;
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
        }
    }
}
