//! Fleet soak acceptance: byte-determinism and the policy ordering the
//! paper's argument predicts (migration beats checkpoint-only on lost
//! work).

use fleetsched::{run_soak, FleetConfig, PolicyKind};

/// FNV-1a digest of the seed-2010 soak's `BENCH_fleet.json` render, and
/// its length in bytes. Re-record it (from the failure message) only
/// when a change is meant to move a fleet result.
const GOLDEN_RENDER: (u64, usize) = (1763957893212121645, 4624);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn soak_is_deterministic_and_migration_beats_periodic_cr() {
    let cfg = FleetConfig::soak(2010);
    assert!(cfg.slots >= 8 && cfg.spares >= 4);
    assert!(cfg.slots as u32 * cfg.nodes_per_slot >= 64);

    let a = run_soak(&cfg, &PolicyKind::ALL);
    let json = a.render();
    assert_eq!(
        (fnv1a(json.as_bytes()), json.len()),
        GOLDEN_RENDER,
        "same seed must reproduce BENCH_fleet.json byte for byte; got:\n{json}"
    );

    let cr = a.policy("periodic_cr").unwrap();
    let proactive = a.policy("proactive").unwrap();
    let utility = a.policy("utility").unwrap();
    let reactive = a.policy("reactive").unwrap();

    // Every doom lands on an occupied node under the baseline: it has no
    // way to dodge, so it crashes on every death.
    assert!(
        cr.crashes > 0,
        "baseline saw no crashes — dooms never fired"
    );
    assert!(
        cr.outcomes.migrated + cr.outcomes.migrated_after_retry == 0,
        "baseline must never migrate"
    );

    // The paper's headline: proactive migration dodges predictable
    // failures, losing strictly less work than checkpoint-only.
    assert!(
        proactive.work_lost < cr.work_lost,
        "proactive lost {:?}, periodic-CR lost {:?}",
        proactive.work_lost,
        cr.work_lost
    );
    assert!(
        utility.work_lost < cr.work_lost,
        "utility lost {:?}, periodic-CR lost {:?}",
        utility.work_lost,
        cr.work_lost
    );
    assert!(
        proactive.outcomes.migrated + proactive.outcomes.migrated_after_retry > 0,
        "proactive never migrated"
    );
    assert!(
        reactive.alerts > 0 && proactive.alerts > 0,
        "health alerts never reached the fleet manager"
    );

    // Spare-pool conservation, fleet-wide: every lease is accounted for.
    for p in &a.policies {
        assert_eq!(
            p.pool.leases,
            p.pool.consumed + p.pool.returned + p.pool.discarded,
            "{}: leased spares must be consumed, returned, or discarded",
            p.policy
        );
    }
}
