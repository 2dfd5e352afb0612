//! Convergence control: when to stop iterating and cut over (short
//! stop-and-copy of the residual), and when to give up and fall back to a
//! classic full stop-and-copy.

use std::time::Duration;

/// Dirty-tracking page size, bytes: the granularity at which pre-copy
/// rounds 1..N re-send memory.
pub const PAGE_BYTES: u64 = 64 << 10;

/// What one pre-copy round left behind, as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// Round number (0 = full-image round).
    pub round: u32,
    /// Bytes dirtied *during* this round — the size of the next round
    /// (or of the cutover residual).
    pub dirty_bytes_pending: u64,
}

/// The controller's verdict after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run another delta round.
    Continue,
    /// Converged: suspend the job and stop-and-copy only the residual.
    CutOver,
    /// Not converging: abandon pre-copy state, classic full stop-and-copy.
    Fallback,
}

/// The convergence controller, consulted once per completed round. Cuts
/// over as soon as the projected residual stop-and-copy fits a downtime
/// budget; falls back if the round budget runs out while the projection
/// is still more than double the budget.
#[derive(Debug, Clone, Copy)]
pub struct DowntimeBudget {
    /// Barrier-held time the residual round may cost.
    pub budget: Duration,
    /// Observed/estimated pull bandwidth, bytes/second.
    pub lane_bw: f64,
    /// Fixed per-cutover cost (suspend + resume floor) added on top of
    /// the transfer projection.
    pub fixed: Duration,
    /// Round budget before the verdict is forced either way.
    pub max_rounds: u32,
}

impl DowntimeBudget {
    /// Projected barrier-held cost of cutting over now.
    pub fn projected_stall(&self, pending: u64) -> Duration {
        self.fixed + Duration::from_secs_f64(pending as f64 / self.lane_bw.max(1.0))
    }

    /// Verdict for the round just finished.
    pub fn decide(&self, r: &RoundReport) -> Decision {
        let projected = self.projected_stall(r.dirty_bytes_pending);
        if projected <= self.budget {
            Decision::CutOver
        } else if r.round + 1 >= self.max_rounds {
            if projected <= self.budget * 2 {
                Decision::CutOver
            } else {
                Decision::Fallback
            }
        } else {
            Decision::Continue
        }
    }
}

/// Live-migration tunables, embeddable in plain-old-data configuration:
/// the [`DowntimeBudget`] inputs that do not come from measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Round budget (including round 0).
    pub max_rounds: u32,
    /// Downtime budget, ms.
    pub downtime_budget_ms: u32,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            max_rounds: 5,
            downtime_budget_ms: 400,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(round: u32, pending: u64) -> RoundReport {
        RoundReport {
            round,
            dirty_bytes_pending: pending,
        }
    }

    #[test]
    fn downtime_budget_projects_residual_stall() {
        let p = DowntimeBudget {
            budget: Duration::from_millis(100),
            lane_bw: 1_000_000.0,
            fixed: Duration::from_millis(20),
            max_rounds: 3,
        };
        // 1 MB residual → 1.02 s projected ≫ budget
        assert_eq!(p.decide(&report(0, 1_000_000)), Decision::Continue);
        // 50 kB residual → 70 ms ≤ budget
        assert_eq!(p.decide(&report(1, 50_000)), Decision::CutOver);
        // cap reached with projection > 2× budget → fallback
        assert_eq!(p.decide(&report(2, 10_000_000)), Decision::Fallback);
        // cap reached but within 2× budget → cut over anyway
        assert_eq!(p.decide(&report(2, 150_000)), Decision::CutOver);
    }
}
