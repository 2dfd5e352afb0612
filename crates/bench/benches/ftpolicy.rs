//! FT policy study: proactive migration prolongs the interval between
//! full job-wide checkpoints (the paper's closing argument, §I and §VI).
//!
//! One slot of LU.C.64 runs for 15 simulated minutes on the fleet
//! engine against two predictable node deaths (crashes pay a 120 s
//! resubmission-queue delay), under three policies:
//!
//! * checkpoint-only at a 60 s interval: predictions are ignored, every
//!   death is a crash and a rollback to the last checkpoint;
//! * checkpoint-only at 120 s: half the checkpoints, more work lost per
//!   crash;
//! * proactive migration with the 120 s cadence kept as a safety net:
//!   predicted deaths are dodged by migrating off the sick node.

use jobmig_bench::{ftpolicy_study, ftpolicy_table};

fn main() {
    println!("FT policy study: LU.C.64, two predictable node deaths, 120 s queue delay, 15 min");
    let rows = ftpolicy_study();
    print!("{}", ftpolicy_table(&rows));
    let [cr_t, cr_2t, (_, p)] = &rows;
    assert_eq!(p.crashes, 0, "proactive migration must dodge both deaths");
    assert!(
        p.outcomes.migrated + p.outcomes.migrated_after_retry > 0,
        "proactive never migrated"
    );
    for (label, cr) in [cr_t, cr_2t] {
        assert!(cr.crashes > 0, "{label}: the deaths never fired");
        assert!(
            p.work_lost < cr.work_lost,
            "proactive lost {:?}, {label} lost {:?}",
            p.work_lost,
            cr.work_lost
        );
    }
    println!(
        "\nmigration lets the 2x-longer checkpoint interval win: {:.0} s lost vs {:.0} s ({}) and {:.0} s ({})",
        p.work_lost.as_secs_f64(),
        cr_t.1.work_lost.as_secs_f64(),
        cr_t.0,
        cr_2t.1.work_lost.as_secs_f64(),
        cr_2t.0,
    );
}
