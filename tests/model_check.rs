//! Exhaustive model check of the shipped protocol tables.
//!
//! Explores the composed migration model over every cell of a grid —
//! barrier and pipelined data path × spares 0..=3 × max_attempts 1..=4 —
//! and the fleet spare-pool model over jobs 1..=3 × spares 1..=3. Every
//! cell must prove all ten properties: deadlock-freedom, no-lost-rank,
//! rollback-restores-source, complete-or-degrade, phase-consistency,
//! resume-or-rollback, single-lease-holder and no-lost-dirty-segment on
//! the migration model; lease exclusivity and pool conservation on the
//! fleet model. A
//! violation fails with its minimal counterexample and the `FaultPlan`
//! that replays it in the simulator.
//!
//! The explored state and transition counts are pinned: the exploration
//! is deterministic, so a table edit that changes what the checker
//! reaches moves them and fails here until they are re-recorded on
//! purpose.

use protoverify::{check, check_fleet, CheckConfig, FleetConfig, MigrationSpec};

/// States / transitions explored over the 32 migration cells.
const MIGRATION: (usize, usize) = (4_192, 18_251);
/// States / transitions explored over the 9 fleet cells.
const FLEET: (usize, usize) = (34_862, 146_489);
/// States / transitions explored over the whole grid.
const TOTAL: (usize, usize) = (39_054, 164_740);

#[test]
fn shipped_tables_prove_every_invariant_on_the_grid() {
    let spec = MigrationSpec::shipped();
    let mut migration = (0, 0);
    for pipelined in [false, true] {
        for spares in 0..=3u32 {
            for max_attempts in 1..=4u32 {
                let cfg = CheckConfig {
                    spares,
                    max_attempts,
                    pipelined,
                    ..CheckConfig::default()
                };
                let report = check(&spec, &cfg);
                if let Some(cx) = &report.violation {
                    panic!(
                        "pipelined={pipelined} spares={spares} max_attempts={max_attempts}: \
                         {cx}\nreplay plan: {:?}",
                        cx.to_fault_plan()
                    );
                }
                migration.0 += report.stats.states;
                migration.1 += report.stats.transitions;
            }
        }
    }

    let mut fleet = (0, 0);
    for jobs in 1..=3u8 {
        for spares in 1..=3u8 {
            let report = check_fleet(&FleetConfig {
                jobs,
                spares,
                mutation: None,
            });
            if let Some(v) = &report.violation {
                panic!("fleet jobs={jobs} spares={spares}: {v}");
            }
            fleet.0 += report.states;
            fleet.1 += report.transitions;
        }
    }

    assert_eq!(migration, MIGRATION, "migration grid explored");
    assert_eq!(fleet, FLEET, "fleet grid explored");
    let total = (migration.0 + fleet.0, migration.1 + fleet.1);
    assert_eq!(total, TOTAL, "whole grid explored");
}
