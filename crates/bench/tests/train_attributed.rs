//! The Fig. 14 helper on a tiny traced `train()`: every round yields a
//! window whose blamed stages and unattributed remainder add up to its
//! wall time, and consecutive traced runs attribute only their own
//! rounds. Runs in its own process, so no other test shares the global
//! trace sink.

use stellaris_bench::train_attributed;
use stellaris_core::TrainConfig;
use stellaris_envs::EnvId;
use stellaris_telemetry::Stage;

#[test]
fn train_attributed_partitions_every_round_window() {
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 11);
    cfg.rounds = 2;
    let (res, attr) = train_attributed(&cfg);
    assert!(!attr.rounds.is_empty(), "no round window");
    assert_eq!(attr.rounds.len(), res.rows.len());
    let totals = attr.stage_totals();
    for stage in [Stage::Rollout, Stage::Compute] {
        assert!(totals.contains_key(&stage), "{stage:?} missing: {totals:?}");
    }
    for r in &attr.rounds {
        let blamed: u64 = r.stages.values().map(|b| b.blamed_us).sum();
        assert_eq!(blamed + r.unattributed_us, r.wall_us(), "round {}", r.round);
    }
    assert!(
        !stellaris_telemetry::enabled(),
        "tracing was off before the helper and must be off after it"
    );

    // With tracing armed (as under `STELLARIS_TRACE`), back-to-back runs
    // each attribute only their own rounds, and the sink keeps every
    // run's events for the dump.
    stellaris_telemetry::enable();
    let mut rows = 0;
    for (seed, rounds) in [(12, 2), (13, 3)] {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, seed);
        cfg.rounds = rounds;
        let (res, attr) = train_attributed(&cfg);
        assert_eq!(attr.rounds.len(), res.rows.len(), "seed {seed}");
        rows += res.rows.len();
    }
    assert!(stellaris_telemetry::enabled(), "armed tracing stays on");
    let events = stellaris_telemetry::drain();
    let kept = events.iter().filter(|e| e.name == "core.round").count();
    assert_eq!(kept, rows, "the sink keeps both runs' round spans");
}
