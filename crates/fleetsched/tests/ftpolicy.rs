//! The paper's closing claim at test scale: proactive migration lets the
//! full-checkpoint interval be prolonged (§VI). One LU.A.8 slot of the
//! reference soak meets two predictable node deaths; migration at twice
//! the checkpoint interval must dodge both and lose less work than
//! checkpoint-only at either interval.

use fleetsched::{run_policy_with_plan, DoomPlan, FleetConfig, NodeDoom, PolicyKind};
use ibfabric::NodeId;
use std::time::Duration;

#[test]
fn proactive_at_twice_the_interval_loses_less_than_checkpoint_only() {
    let mut cfg = FleetConfig::soak(2010);
    cfg.slots = 1;
    cfg.spares = 2;
    cfg.horizon = Duration::from_secs(1800);
    let doom = |node, onset| NodeDoom {
        node: NodeId(node),
        onset: Duration::from_secs(onset),
        predictable: true,
        repair_after: Duration::from_secs(60),
    };
    let plan = DoomPlan {
        seed: 0,
        dooms: vec![doom(2, 300), doom(7, 900)],
    };
    let t = cfg.ckpt_period;
    let mut run = |period, policy| {
        cfg.ckpt_period = period;
        run_policy_with_plan(&cfg, policy, &plan)
    };
    let cr_t = run(t, PolicyKind::PeriodicCr);
    let cr_2t = run(2 * t, PolicyKind::PeriodicCr);
    let proactive = run(2 * t, PolicyKind::Proactive);

    assert_eq!(
        proactive.crashes, 0,
        "both deaths must be dodged: {proactive:?}"
    );
    assert_eq!(
        proactive.outcomes.migrated + proactive.outcomes.migrated_after_retry,
        2,
        "one migration per predicted death: {proactive:?}"
    );
    for cr in [&cr_t, &cr_2t] {
        assert_eq!(cr.crashes, 2, "checkpoint-only crashes on both deaths");
        assert!(
            proactive.work_lost < cr.work_lost,
            "proactive lost {:?}, checkpoint-only lost {:?}",
            proactive.work_lost,
            cr.work_lost
        );
    }
}
