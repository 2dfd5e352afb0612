//! The cluster-wide hot-spare pool.
//!
//! One pool per [`Cluster`](crate::cluster::Cluster), shared by every job
//! launched on it. A migration attempt *leases* a node
//! ([`SparePool::lease_at`], removing it from the free list under one
//! lock acquisition, so two jobs can never claim the same spare), then
//! settles the lease exactly one way:
//!
//! * [`SparePool::consume_at`] — the attempt succeeded; the node now hosts
//!   ranks and leaves the pool for good. The vacated source node is *not*
//!   returned here: reclamation is a fleet-level decision (the node is
//!   usually sick — that is why the job left it), made by an orchestrator
//!   via [`SparePool::reclaim`] once the node is repaired.
//! * [`SparePool::release_front_at`] — the attempt aborted but the spare
//!   survived; it goes back to the *front* of the free list so the retry
//!   reuses it (preserving the single-job retry order the tier-1 tests
//!   pin down).
//! * [`SparePool::discard_at`] — the spare died mid-attempt; it never
//!   returns.
//!
//! Leases are keyed by job id, and every settle call asserts the caller
//! actually holds the lease — the runtime-side half of the spare-pool
//! invariant `protoverify::fleet` proves over the abstract model: no node
//! leased to two jobs at once, and every settled attempt accounts for
//! exactly one node.
//!
//! ## Fencing epochs
//!
//! A crash-recoverable coordinator adds a second failure mode: a *zombie*.
//! The standby that takes over cannot prove the old Job Manager is dead —
//! only that it stopped journalling — so every pool operation carries the
//! caller's *fencing epoch* and each job has a monotonic fence floor.
//! [`SparePool::fence`] raises the floor and adopts the job's outstanding
//! leases into the new epoch; any later settle presented under a lower
//! epoch is **soft-rejected** (counted in
//! [`SparePoolStats::fenced_rejects`], lease untouched) rather than
//! trapped, because a late write from a deposed coordinator is an expected
//! race, not corruption. A job that is never fenced runs at epoch 0.

use ibfabric::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Lifetime counters of one pool. Monotonic; snapshot via
/// [`SparePool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparePoolStats {
    /// Leases granted.
    pub leases: u64,
    /// Lease requests denied because the free list was empty.
    pub denials: u64,
    /// Leases settled by a successful migration (node left the pool).
    pub consumed: u64,
    /// Leases settled by an abort with the spare surviving.
    pub returned: u64,
    /// Leases settled by the spare dying mid-attempt.
    pub discarded: u64,
    /// Nodes reclaimed into the free list by an orchestrator.
    pub reclaimed: u64,
    /// Pool operations rejected because the caller presented a fencing
    /// epoch below the job's fence floor (a deposed coordinator's late
    /// write).
    pub fenced_rejects: u64,
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    job: u64,
    epoch: u64,
}

struct PoolState {
    /// Free nodes; the front is the next lease (FIFO in node-id order at
    /// build time, matching the pre-pool `Vec<NodeId>` semantics).
    free: Vec<NodeId>,
    /// Outstanding leases: node → holder (job id + fencing epoch).
    leased: BTreeMap<NodeId, Lease>,
    /// Per-job fence floor: settles under a lower epoch are rejected.
    fences: BTreeMap<u64, u64>,
    stats: SparePoolStats,
}

/// The shared spare pool. Cloning shares the pool.
#[derive(Clone)]
pub struct SparePool {
    inner: Arc<Mutex<PoolState>>,
}

impl SparePool {
    /// A pool whose free list starts as `nodes`, in order.
    pub fn new(nodes: Vec<NodeId>) -> SparePool {
        SparePool {
            inner: Arc::new(Mutex::new(PoolState {
                free: nodes,
                leased: BTreeMap::new(),
                fences: BTreeMap::new(),
                stats: SparePoolStats::default(),
            })),
        }
    }

    /// Number of free (leasable) nodes right now.
    pub fn available(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// Snapshot of the free list, front (next lease) first.
    pub fn free_nodes(&self) -> Vec<NodeId> {
        self.inner.lock().free.clone()
    }

    /// Outstanding leases as `(node, job)` pairs in node-id order.
    pub fn leases(&self) -> Vec<(NodeId, u64)> {
        self.inner
            .lock()
            .leased
            .iter()
            .map(|(n, l)| (*n, l.job))
            .collect()
    }

    /// The job holding a lease on `node`, if any.
    pub fn leased_to(&self, node: NodeId) -> Option<u64> {
        self.inner.lock().leased.get(&node).map(|l| l.job)
    }

    /// The fencing epoch a lease on `node` was granted (or adopted) under.
    pub fn lease_epoch(&self, node: NodeId) -> Option<u64> {
        self.inner.lock().leased.get(&node).map(|l| l.epoch)
    }

    /// The fence floor currently in force for `job` (0 if never fenced).
    pub fn fence_of(&self, job: u64) -> u64 {
        self.inner.lock().fences.get(&job).copied().unwrap_or(0)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SparePoolStats {
        self.inner.lock().stats
    }

    /// Lease the front free node to `job`, stamping the lease with the
    /// caller's fencing `epoch`. `None` (recorded as a denial) when the
    /// free list is empty — the caller degrades or queues. A deposed
    /// coordinator (epoch below the job's fence floor) is refused without
    /// touching the free list.
    pub fn lease_at(&self, job: u64, epoch: u64) -> Option<NodeId> {
        let mut st = self.inner.lock();
        if st.fenced(job, epoch) {
            return None;
        }
        if st.free.is_empty() {
            st.stats.denials += 1;
            return None;
        }
        let node = st.free.remove(0);
        let prev = st.leased.insert(node, Lease { job, epoch });
        assert!(
            prev.is_none(),
            "spare pool corrupt: {node} was free while leased to job {:?}",
            prev.map(|l| l.job)
        );
        st.stats.leases += 1;
        Some(node)
    }

    /// Raise `job`'s fence floor to `epoch` (monotonic) and adopt the
    /// job's outstanding leases into the new epoch — the takeover step
    /// that makes the old coordinator's late settles rejectable while the
    /// new one inherits the in-flight lease. Returns the number of leases
    /// adopted.
    pub fn fence(&self, job: u64, epoch: u64) -> usize {
        let mut st = self.inner.lock();
        let floor = st.fences.entry(job).or_insert(0);
        *floor = (*floor).max(epoch);
        let mut adopted = 0;
        for lease in st.leased.values_mut().filter(|l| l.job == job) {
            lease.epoch = epoch;
            adopted += 1;
        }
        adopted
    }

    /// Settle a lease: the migration succeeded, `node` now hosts ranks
    /// and permanently leaves the pool. Returns `false` (lease untouched,
    /// rejection counted) when `epoch` is below the job's fence floor.
    pub fn consume_at(&self, node: NodeId, job: u64, epoch: u64) -> bool {
        let mut st = self.inner.lock();
        if !st.settle(node, job, epoch, "consume") {
            return false;
        }
        st.stats.consumed += 1;
        true
    }

    /// Settle a lease: the attempt aborted but `node` survived; it goes
    /// back to the front of the free list for the retry. Returns `false`
    /// (lease untouched, rejection counted) when `epoch` is below the
    /// job's fence floor.
    pub fn release_front_at(&self, node: NodeId, job: u64, epoch: u64) -> bool {
        let mut st = self.inner.lock();
        if !st.settle(node, job, epoch, "release") {
            return false;
        }
        st.free.insert(0, node);
        st.stats.returned += 1;
        true
    }

    /// Settle a lease: `node` died mid-attempt and never returns. Returns
    /// `false` (lease untouched, rejection counted) when `epoch` is below
    /// the job's fence floor.
    pub fn discard_at(&self, node: NodeId, job: u64, epoch: u64) -> bool {
        let mut st = self.inner.lock();
        if !st.settle(node, job, epoch, "discard") {
            return false;
        }
        st.stats.discarded += 1;
        true
    }

    /// Return a repaired (or vacated-and-verified) node to the back of
    /// the free list. Orchestrator-level: the pool itself never reclaims.
    pub fn reclaim(&self, node: NodeId) {
        let mut st = self.inner.lock();
        assert!(
            !st.free.contains(&node),
            "spare pool corrupt: reclaiming {node} which is already free"
        );
        assert!(
            !st.leased.contains_key(&node),
            "spare pool corrupt: reclaiming {node} which is leased"
        );
        st.free.push(node);
        st.stats.reclaimed += 1;
    }
}

impl PoolState {
    /// Is `epoch` below `job`'s fence floor? Counts the rejection.
    fn fenced(&mut self, job: u64, epoch: u64) -> bool {
        let floor = self.fences.get(&job).copied().unwrap_or(0);
        if epoch < floor {
            self.stats.fenced_rejects += 1;
            return true;
        }
        false
    }

    /// Remove `node`'s lease on behalf of `(job, epoch)`. A stale epoch
    /// is an expected zombie write: soft-reject, leave the lease for the
    /// live coordinator. Wrong job or no lease is genuine corruption and
    /// still traps.
    fn settle(&mut self, node: NodeId, job: u64, epoch: u64, op: &str) -> bool {
        if self.fenced(job, epoch) {
            return false;
        }
        match self.leased.remove(&node) {
            Some(holder) if holder.job == job => true,
            Some(holder) => panic!(
                "spare pool corrupt: job {job} tried to {op} {node}, \
                 which job {} holds",
                holder.job
            ),
            None => panic!("spare pool corrupt: job {job} tried to {op} unleased {node}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|i| NodeId(*i)).collect()
    }

    #[test]
    fn lease_is_fifo_and_release_goes_to_front() {
        let pool = SparePool::new(nodes(&[9, 10, 11]));
        assert_eq!(pool.lease_at(1, 0), Some(NodeId(9)));
        assert_eq!(pool.lease_at(2, 0), Some(NodeId(10)));
        assert_eq!(pool.leased_to(NodeId(9)), Some(1));
        assert!(pool.release_front_at(NodeId(9), 1, 0));
        // The survivor is reused before the untouched tail.
        assert_eq!(pool.lease_at(1, 0), Some(NodeId(9)));
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn exhaustion_denies_and_counts() {
        let pool = SparePool::new(nodes(&[5]));
        assert_eq!(pool.lease_at(1, 0), Some(NodeId(5)));
        assert_eq!(pool.lease_at(2, 0), None);
        assert_eq!(pool.stats().denials, 1);
        assert!(pool.consume_at(NodeId(5), 1, 0));
        assert_eq!(pool.lease_at(2, 0), None);
        pool.reclaim(NodeId(5));
        assert_eq!(pool.lease_at(2, 0), Some(NodeId(5)));
    }

    #[test]
    #[should_panic(expected = "which job 1 holds")]
    fn cross_job_settle_is_trapped() {
        let pool = SparePool::new(nodes(&[5]));
        pool.lease_at(1, 0);
        assert!(pool.consume_at(NodeId(5), 2, 0));
    }

    #[test]
    #[should_panic(expected = "unleased")]
    fn double_release_is_trapped() {
        let pool = SparePool::new(nodes(&[5]));
        pool.lease_at(1, 0);
        assert!(pool.release_front_at(NodeId(5), 1, 0));
        assert!(pool.release_front_at(NodeId(5), 1, 0));
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn reclaim_of_free_node_is_trapped() {
        let pool = SparePool::new(nodes(&[5]));
        pool.reclaim(NodeId(5));
    }

    #[test]
    fn fence_rejects_stale_settles_and_adopts_lease() {
        let pool = SparePool::new(nodes(&[5, 6]));
        // Epoch-1 coordinator leases, then a standby fences at epoch 2.
        assert_eq!(pool.lease_at(1, 1), Some(NodeId(5)));
        assert_eq!(pool.lease_epoch(NodeId(5)), Some(1));
        assert_eq!(pool.fence(1, 2), 1);
        assert_eq!(pool.fence_of(1), 2);
        assert_eq!(pool.lease_epoch(NodeId(5)), Some(2));
        // The zombie's late writes bounce off without touching the lease.
        assert!(!pool.consume_at(NodeId(5), 1, 1));
        assert!(!pool.release_front_at(NodeId(5), 1, 1));
        assert_eq!(pool.lease_at(1, 1), None);
        assert_eq!(pool.stats().fenced_rejects, 3);
        assert_eq!(pool.leased_to(NodeId(5)), Some(1));
        // The new epoch settles normally; accounting stays balanced.
        assert!(pool.consume_at(NodeId(5), 1, 2));
        let st = pool.stats();
        assert_eq!(st.leases, st.consumed + st.returned + st.discarded);
        // Other jobs are unaffected by job 1's fence.
        assert_eq!(pool.lease_at(2, 0), Some(NodeId(6)));
        assert!(pool.release_front_at(NodeId(6), 2, 0));
    }

    #[test]
    fn fence_is_monotonic() {
        let pool = SparePool::new(nodes(&[5]));
        pool.fence(1, 3);
        pool.fence(1, 2); // lowering attempt is ignored
        assert_eq!(pool.fence_of(1), 3);
        assert_eq!(pool.lease_at(1, 2), None);
        assert_eq!(pool.lease_at(1, 3), Some(NodeId(5)));
        assert!(pool.discard_at(NodeId(5), 1, 4));
    }
}
