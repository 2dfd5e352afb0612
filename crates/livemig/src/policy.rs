//! Convergence control: when to stop iterating and cut over (short
//! stop-and-copy of the residual), and when to give up and fall back to a
//! classic full stop-and-copy.

use std::time::Duration;

/// What one pre-copy round did, as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// Round number (0 = full-image round).
    pub round: u32,
    /// Stream bytes moved this round.
    pub bytes: u64,
    /// Dirty pages moved this round (0 for round 0).
    pub pages: u64,
    /// Wall time the round took.
    pub duration: Duration,
    /// Bytes dirtied *during* this round — the size of the next round
    /// (or of the cutover residual).
    pub dirty_bytes_pending: u64,
}

impl RoundReport {
    /// Observed dirty rate over this round, bytes/second.
    pub fn dirty_rate(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return self.dirty_bytes_pending as f64;
        }
        self.dirty_bytes_pending as f64 / secs
    }
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

/// A pluggable convergence policy, consulted once per completed round.
pub trait ConvergencePolicy: Send {
    /// Policy name for traces and reports.
    fn name(&self) -> &'static str;

    /// Verdict for the round just finished.
    fn decide(&mut self, r: &RoundReport) -> Decision;
}

/// Cut over after a fixed number of rounds (or earlier if a round leaves
/// nothing dirty). Never falls back — the residual is whatever it is.
#[derive(Debug, Clone, Copy)]
pub struct BoundedRounds {
    /// Maximum delta rounds before forced cutover.
    pub max_rounds: u32,
}

impl ConvergencePolicy for BoundedRounds {
    fn name(&self) -> &'static str {
        "bounded_rounds"
    }

    fn decide(&mut self, r: &RoundReport) -> Decision {
        if r.dirty_bytes_pending == 0 || r.round + 1 >= self.max_rounds {
            Decision::CutOver
        } else {
            Decision::Continue
        }
    }
}

/// Compare the dirty rate against the transfer bandwidth: pre-copy only
/// converges while the pull outruns the application's writes. Cuts over
/// once the residual is draining fast; falls back when the dirty rate
/// stays above `ratio × lane_bw`.
#[derive(Debug, Clone, Copy)]
pub struct DirtyRateRatio {
    /// Observed/estimated pull bandwidth, bytes/second.
    pub lane_bw: f64,
    /// Dirty-rate fraction of `lane_bw` above which rounds cannot shrink.
    pub ratio: f64,
    /// Round budget before the verdict is forced either way.
    pub max_rounds: u32,
}

impl ConvergencePolicy for DirtyRateRatio {
    fn name(&self) -> &'static str {
        "dirty_rate_ratio"
    }

    fn decide(&mut self, r: &RoundReport) -> Decision {
        let diverging = r.dirty_rate() >= self.ratio * self.lane_bw;
        if r.round + 1 >= self.max_rounds || (r.round >= 1 && diverging) {
            if diverging {
                Decision::Fallback
            } else {
                Decision::CutOver
            }
        } else if r.dirty_bytes_pending == 0 {
            Decision::CutOver
        } else {
            Decision::Continue
        }
    }
}

/// Cut over as soon as the projected residual stop-and-copy fits a
/// downtime budget; fall back if the round budget runs out while the
/// projection is still more than double the budget.
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
}

impl ConvergencePolicy for DowntimeBudget {
    fn name(&self) -> &'static str {
        "downtime_budget"
    }

    fn decide(&mut self, r: &RoundReport) -> Decision {
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

/// Which [`ConvergencePolicy`] a live migration runs under (the `Copy`
/// handle that rides `PoolConfig` / `MigrationTuning`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivePolicyKind {
    /// [`BoundedRounds`].
    BoundedRounds,
    /// [`DirtyRateRatio`].
    DirtyRateRatio,
    /// [`DowntimeBudget`].
    DowntimeBudget,
}

/// Live-migration tunables, embeddable in plain-old-data configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Convergence policy to instantiate.
    pub policy: LivePolicyKind,
    /// Round budget (including round 0).
    pub max_rounds: u32,
    /// Dirty-tracking page size, bytes.
    pub page: u64,
    /// Downtime budget for [`LivePolicyKind::DowntimeBudget`], ms.
    pub downtime_budget_ms: u32,
    /// Dirty-rate threshold for [`LivePolicyKind::DirtyRateRatio`], in
    /// percent of pull bandwidth.
    pub dirty_ratio_pct: u32,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            policy: LivePolicyKind::DowntimeBudget,
            max_rounds: 5,
            page: 64 << 10,
            downtime_budget_ms: 400,
            dirty_ratio_pct: 50,
        }
    }
}

impl LiveConfig {
    /// Instantiate the configured policy against an estimated aggregate
    /// pull bandwidth and fixed cutover floor.
    pub fn controller(&self, lane_bw: f64, fixed: Duration) -> Box<dyn ConvergencePolicy> {
        match self.policy {
            LivePolicyKind::BoundedRounds => Box::new(BoundedRounds {
                max_rounds: self.max_rounds,
            }),
            LivePolicyKind::DirtyRateRatio => Box::new(DirtyRateRatio {
                lane_bw,
                ratio: self.dirty_ratio_pct as f64 / 100.0,
                max_rounds: self.max_rounds,
            }),
            LivePolicyKind::DowntimeBudget => Box::new(DowntimeBudget {
                budget: Duration::from_millis(self.downtime_budget_ms as u64),
                lane_bw,
                fixed,
                max_rounds: self.max_rounds,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(round: u32, pending: u64, secs: f64) -> RoundReport {
        RoundReport {
            round,
            bytes: 1000,
            pages: 10,
            duration: Duration::from_secs_f64(secs),
            dirty_bytes_pending: pending,
        }
    }

    #[test]
    fn bounded_rounds_cuts_at_cap_or_when_clean() {
        let mut p = BoundedRounds { max_rounds: 3 };
        assert_eq!(p.decide(&report(0, 500, 1.0)), Decision::Continue);
        assert_eq!(p.decide(&report(1, 500, 1.0)), Decision::Continue);
        assert_eq!(p.decide(&report(2, 500, 1.0)), Decision::CutOver);
        assert_eq!(p.decide(&report(0, 0, 1.0)), Decision::CutOver);
    }

    #[test]
    fn dirty_ratio_falls_back_when_writes_outrun_lanes() {
        let mut p = DirtyRateRatio {
            lane_bw: 1000.0,
            ratio: 0.5,
            max_rounds: 5,
        };
        // round 0 always gets a delta round to measure against
        assert_eq!(p.decide(&report(0, 2000, 1.0)), Decision::Continue);
        // 2000 B/s dirty vs 500 B/s threshold → diverging
        assert_eq!(p.decide(&report(1, 2000, 1.0)), Decision::Fallback);
        // converging run reaches the cap and cuts over
        let mut p = DirtyRateRatio {
            lane_bw: 1000.0,
            ratio: 0.5,
            max_rounds: 3,
        };
        assert_eq!(p.decide(&report(0, 300, 1.0)), Decision::Continue);
        assert_eq!(p.decide(&report(1, 100, 1.0)), Decision::Continue);
        assert_eq!(p.decide(&report(2, 40, 1.0)), Decision::CutOver);
    }

    #[test]
    fn downtime_budget_projects_residual_stall() {
        let mut p = DowntimeBudget {
            budget: Duration::from_millis(100),
            lane_bw: 1_000_000.0,
            fixed: Duration::from_millis(20),
            max_rounds: 3,
        };
        // 1 MB residual → 1.02 s projected ≫ budget
        assert_eq!(p.decide(&report(0, 1_000_000, 0.5)), Decision::Continue);
        // 50 kB residual → 70 ms ≤ budget
        assert_eq!(p.decide(&report(1, 50_000, 0.1)), Decision::CutOver);
        // cap reached with projection > 2× budget → fallback
        assert_eq!(p.decide(&report(2, 10_000_000, 0.1)), Decision::Fallback);
        // cap reached but within 2× budget → cut over anyway
        assert_eq!(p.decide(&report(2, 150_000, 0.1)), Decision::CutOver);
    }

    #[test]
    fn config_instantiates_each_policy() {
        for kind in [
            LivePolicyKind::BoundedRounds,
            LivePolicyKind::DirtyRateRatio,
            LivePolicyKind::DowntimeBudget,
        ] {
            let cfg = LiveConfig {
                policy: kind,
                ..LiveConfig::default()
            };
            let mut c = cfg.controller(1e9, Duration::from_millis(50));
            assert!(!c.name().is_empty());
            let _ = c.decide(&report(0, 0, 0.1));
        }
    }
}
