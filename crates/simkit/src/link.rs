//! Fluid-flow (processor-sharing) bandwidth links.
//!
//! A [`Link`] models a shared bandwidth resource — an InfiniBand port, a
//! GigE NIC, a disk, a memory bus — using the classic *fluid model*: at any
//! instant the `n` active transfers share the link's aggregate capacity
//! equally, and shares are recomputed whenever a transfer starts or ends.
//! This captures the first-order contention behaviour the paper's
//! evaluation depends on (concurrent checkpoint streams degrading each
//! other) without per-packet simulation. A `Link` is a [`FlowNet`] with a
//! single link, so both run on the one fluid engine.
//!
//! Disks additionally suffer *seek degradation*: aggregate throughput drops
//! as concurrent streams force head movement. [`Sharing::Degraded`] models
//! this as `aggregate(n) = capacity / (1 + alpha * (n - 1))`.

use crate::flownet::{FlowNet, LinkId};
use crate::kernel::SimHandle;
use crate::process::Ctx;
use std::time::Duration;

/// How concurrent flows share a link's capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sharing {
    /// Ideal processor sharing: `n` flows each get `capacity / n`; aggregate
    /// stays at full capacity. Appropriate for network ports and memory
    /// buses.
    Fair,
    /// Seek-degraded sharing for rotating disks: aggregate capacity is
    /// `capacity / (1 + alpha * (n - 1))`, split evenly. `alpha = 0`
    /// degenerates to [`Sharing::Fair`].
    Degraded {
        /// Per-extra-stream degradation factor (typical ext3: 0.1–0.3).
        alpha: f64,
    },
}

impl Sharing {
    /// Aggregate capacity of a link of capacity `cap` carrying `n >= 1`
    /// flows.
    pub(crate) fn aggregate(&self, cap: f64, n: usize) -> f64 {
        debug_assert!(n > 0);
        match *self {
            Sharing::Fair => cap,
            Sharing::Degraded { alpha } => cap / (1.0 + alpha * (n as f64 - 1.0)),
        }
    }
}

/// Usage statistics accumulated by a [`Link`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Total payload bytes of completed transfers.
    pub bytes_completed: u64,
    /// Number of completed transfers.
    pub flows_completed: u64,
    /// Virtual time during which at least one flow was active.
    pub busy: Duration,
    /// Highest number of simultaneously active flows observed.
    pub peak_flows: usize,
}

/// A shared-bandwidth resource. Cloning shares the link.
#[derive(Clone)]
pub struct Link {
    net: FlowNet,
    id: LinkId,
}

impl Link {
    /// Create a link with `capacity` in bytes per second of virtual time.
    pub fn new(handle: &SimHandle, name: &str, capacity_bps: f64, sharing: Sharing) -> Self {
        let net = FlowNet::new(handle);
        let id = net.add_link(name, capacity_bps, sharing);
        Link { net, id }
    }

    /// Move `bytes` through the link, blocking for the fluid-model duration.
    /// Zero-byte transfers return immediately.
    ///
    /// If the calling process is killed mid-transfer, the flow is removed
    /// and remaining flows speed up, matching the behaviour of a connection
    /// torn down mid-stream.
    pub fn transfer(&self, ctx: &Ctx, bytes: u64) {
        self.net.transfer(ctx, &[self.id], bytes);
    }

    /// Time a transfer of `bytes` would take if it ran alone right now.
    pub fn solo_duration(&self, bytes: u64) -> Duration {
        // A lone flow gets the full capacity under either sharing model.
        Duration::from_secs_f64(bytes as f64 / self.capacity_bps())
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.net.active_on(self.id)
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> LinkStats {
        self.net.link_stats(self.id)
    }

    /// The link's diagnostic name.
    pub fn name(&self) -> String {
        self.net.link_name(self.id)
    }

    /// Configured capacity in bytes/second.
    pub fn capacity_bps(&self) -> f64 {
        self.net.link_capacity(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_aggregate_math() {
        let cap = 100.0;
        assert_eq!(Sharing::Fair.aggregate(cap, 1), 100.0);
        assert_eq!(Sharing::Fair.aggregate(cap, 10), 100.0);
        let d = Sharing::Degraded { alpha: 0.25 };
        assert_eq!(d.aggregate(cap, 1), 100.0);
        assert!((d.aggregate(cap, 8) - 100.0 / 2.75).abs() < 1e-9);
        let z = Sharing::Degraded { alpha: 0.0 };
        assert_eq!(z.aggregate(cap, 5), 100.0);
    }
}
