//! Phase 4, Resume: the Job Manager's wait and the ranks' barrier,
//! endpoint rebuild and reopen.

use super::*;

/// Job Manager side: wait for every rank to resume.
pub(super) fn run(a: &mut Attempt) -> Result<(), ()> {
    let deadline = a.ctx.now() + calib::recovery().resume_timeout;
    let ph = a.enter(MigPhase::Resume, None)?;
    let ok = wait_countdown_until(a.ctx, &a.cycle.resumed, deadline);
    a.close(ph, ok, "resume_timeout", CycleEvent::ResumeDone)
}

/// Rank side: the migration barrier, then resume.
pub(super) fn rank(ctx: &Ctx, rt: &JobRuntime, cr: &RankCr, cycle: &MigCycle) {
    cycle.barrier.arrive_and_wait(ctx);
    rt.resume_rank(ctx, cr, &cycle.resumed);
}

impl JobRuntime {
    /// A rank's resume, shared by Phase 4 and the checkpoint cycle:
    /// rebuild endpoints, pay the fixed resume overhead, reopen
    /// communication and check in on `resumed`.
    pub(crate) fn resume_rank(&self, ctx: &Ctx, cr: &RankCr, resumed: &Countdown) {
        cr.rebuild_endpoints(ctx, true);
        ctx.sleep(calib::RESUME_BASE + calib::RESUME_PER_RANK * self.inner.spec.nranks);
        cr.reopen();
        self.rank_apply(ctx, cr.rank(), RankEvent::Resume);
        resumed.arrive();
    }
}
