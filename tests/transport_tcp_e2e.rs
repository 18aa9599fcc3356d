//! End-to-end transport tests: real learner/actor child processes behind
//! the frame protocol, driven over TCP (and unix-domain sockets), with
//! the PR 4 chaos classes landing on actual connection resets, truncated
//! payloads and slow peers.
//!
//! The worker binary is the `stellaris worker` subcommand of this crate's
//! own CLI; every test spawns genuine OS processes through `ProcessPool`.

use std::sync::Mutex;
use std::time::Duration;

use stellaris::core::{
    train, GradientRequest, RemoteError, RemoteFleet, RemoteSetup, RemoteWorker, TrainConfig,
};
use stellaris::envs::EnvId;
use stellaris::rl::fill_gae;
use stellaris::serverless::{FunctionKind, ProcessConfig, ProcessPool, WireTransport};
use stellaris_telemetry as telemetry;

/// Fleet tests ingest worker telemetry into the process-global trace
/// buffer; serialise them so one test's `drain` cannot eat another's
/// events.
static FLEET_LOCK: Mutex<()> = Mutex::new(());

fn worker_bin() -> String {
    env!("CARGO_BIN_EXE_stellaris").to_string()
}

fn worker_args() -> Vec<String> {
    vec!["worker".to_string()]
}

fn tiny_cfg(seed: u64, rounds: usize) -> TrainConfig {
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, seed);
    cfg.rounds = rounds;
    cfg
}

fn fleet(cfg: TrainConfig, transport: WireTransport) -> RemoteFleet {
    let proc_cfg = ProcessConfig {
        transport,
        ..ProcessConfig::default()
    };
    RemoteFleet::new(worker_bin(), worker_args(), proc_cfg, cfg)
}

/// A full chaos training run over TCP: injected faults must surface as
/// typed errors, be absorbed by the retry budget, and still deliver every
/// round's gradients.
#[test]
fn chaos_round_over_tcp_recovers_typed_errors() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let cfg = tiny_cfg(7, 6).with_chaos(3);
    let report = fleet(cfg, WireTransport::Tcp).run().expect("fleet run");

    assert_eq!(report.rounds, 6);
    assert!(report.grads_aggregated > 0, "rounds must make progress");
    assert_eq!(report.final_version, report.staleness_log.len() as u64);
    let f = &report.faults;
    let injected =
        f.injected_crashes + f.injected_stragglers + f.frames_dropped + f.frames_corrupted;
    assert!(injected > 0, "chaos plan must actually inject: {f:?}");
    assert!(
        report.recovered > 0,
        "at least one typed error must be recovered by retry: {report:?}"
    );
    assert!(f.retries > 0, "recovery must go through the retry path");
    assert!(
        report.learner_invocations > report.grads_aggregated,
        "failed attempts must be recorded as invocations too"
    );
    assert!(report.cold_spawns >= 2, "actor + at least one learner");
}

/// Same seed, same chaos plan, two independent fleets: the final policy
/// must be bitwise identical and the staleness history must match, even
/// though every fault rode a real socket.
#[test]
fn same_seed_chaos_is_reproducible_over_sockets() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let a = fleet(tiny_cfg(11, 4).with_chaos(5), WireTransport::Tcp)
        .run()
        .expect("first run");
    let b = fleet(tiny_cfg(11, 4).with_chaos(5), WireTransport::Tcp)
        .run()
        .expect("second run");
    assert_eq!(a.final_version, b.final_version);
    assert_eq!(
        a.final_checksum, b.final_checksum,
        "same-seed chaos must reproduce the same weights bit-for-bit"
    );
    assert_eq!(a.staleness_log, b.staleness_log);
    assert_eq!(a.grads_aggregated, b.grads_aggregated);
    assert_eq!(a.faults, b.faults, "the chaos draws themselves must replay");
}

/// Worker spans cross the process boundary and stitch onto parent spans:
/// after a run, the parent trace holds `remote.*` events whose parents
/// are parent-side span IDs and whose own IDs were minted above the
/// worker's disjoint span base.
#[test]
fn cross_process_spans_stitch_onto_parent_trace() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    telemetry::flush_thread();
    let _clear = telemetry::drain();
    let report = fleet(tiny_cfg(3, 2), WireTransport::Tcp)
        .run()
        .expect("fleet run");
    assert!(report.events_ingested > 0, "workers must ship events back");

    telemetry::flush_thread();
    let events = telemetry::drain();
    let parent_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.name.starts_with("fleet."))
        .map(|e| e.id)
        .collect();
    assert!(!parent_ids.is_empty(), "parent side must trace the rounds");
    for name in ["remote.collect", "remote.gradient"] {
        let remote: Vec<_> = events.iter().filter(|e| e.name == name).collect();
        assert!(!remote.is_empty(), "no {name} events crossed the wire");
        for e in &remote {
            assert!(
                e.id >= 1 << 40,
                "{name} id {:x} must come from a worker span base",
                e.id
            );
            assert!(
                parent_ids.contains(&e.parent),
                "{name} parent {:x} is not a parent-side span",
                e.parent
            );
        }
    }
}

/// Keep-alive across rounds: the second checkout of the same worker slot
/// must reuse the live process instead of paying another cold start.
#[test]
fn keep_alive_reuses_worker_processes() {
    let pool = ProcessPool::new(worker_bin(), worker_args(), ProcessConfig::default());
    let first = pool.checkout(FunctionKind::Learner, 0).expect("cold spawn");
    assert!(first.is_cold());
    assert!(first.cold_start() > Duration::ZERO);
    let pid = first.pid();
    pool.checkin(first);
    let second = pool.checkout(FunctionKind::Learner, 0).expect("warm reuse");
    assert!(!second.is_cold(), "checkin/checkout must stay warm");
    assert_eq!(second.pid(), pid, "warm reuse keeps the same process");
    pool.checkin(second);
    pool.shutdown();
    assert_eq!(pool.start_counts(), (1, 1));
}

/// A killed peer surfaces as a typed wire error (a real connection
/// reset), and a fresh cold spawn recovers the slot.
#[test]
fn connection_reset_is_a_typed_error_and_respawn_recovers() {
    let pool = ProcessPool::new(worker_bin(), worker_args(), ProcessConfig::default());
    let cfg = tiny_cfg(21, 1);
    let setup = RemoteSetup::from_train(&cfg);

    let mut worker = RemoteWorker::new(pool.checkout(FunctionKind::Learner, 0).expect("spawn"));
    worker.init(&setup, 1).expect("init");
    worker.process().kill();
    let req = {
        let mut w = stellaris::rl::RolloutWorker::new(
            stellaris::envs::make_env(cfg.env_id, cfg.env_cfg),
            cfg.seed,
        );
        let policy = stellaris::rl::PolicyNet::new(
            {
                let mut env = stellaris::envs::make_env(cfg.env_id, cfg.env_cfg);
                env.reset(cfg.seed);
                let mut spec = stellaris::rl::PolicySpec::for_env(env.as_ref());
                spec.hidden = cfg.hidden;
                spec
            },
            cfg.seed,
        );
        let mut batch = w.collect(&policy, 16);
        fill_gae(&mut batch, 0.99, 0.95);
        let req = GradientRequest {
            snap: policy.snapshot(),
            batch,
            cap: None,
            learner_id: 0,
        };
        let err = worker.gradient(&req, 2).expect_err("dead peer must error");
        assert!(
            matches!(err, RemoteError::Wire(_)),
            "reset must be typed as a wire error, got {err}"
        );
        req
    };

    // Respawn the slot cold and prove the request itself was fine.
    let mut worker = RemoteWorker::new(pool.checkout(FunctionKind::Learner, 0).expect("respawn"));
    worker.init(&setup, 3).expect("re-init");
    let msg = worker.gradient(&req, 4).expect("clean retry succeeds");
    assert_eq!(msg.learner_id, 0);
    assert!(msg.batch_len > 0);
    worker.shutdown().expect("graceful shutdown");
    pool.shutdown();
    let (cold, _) = pool.start_counts();
    assert_eq!(cold, 2, "the reset slot must respawn cold");
}

/// The remote fleet agrees with the in-process orchestrator's world: a
/// fault-free remote run advances the policy clock exactly once per
/// aggregated gradient, like `train` does.
#[test]
fn fault_free_remote_run_matches_local_accounting() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let cfg = tiny_cfg(9, 3);
    let local = train(&cfg);
    let report = fleet(tiny_cfg(9, 3), WireTransport::Tcp)
        .run()
        .expect("fleet run");
    assert_eq!(report.faults.retries, 0, "no chaos configured");
    assert_eq!(report.recovered, 0);
    assert!(report.final_version > 0);
    assert_eq!(report.grads_aggregated, report.final_version);
    assert!(
        local.policy_updates > 0,
        "local baseline must also have trained"
    );
    // Delta-encoded policy pulls: every round loads the policy exactly
    // once, by whichever encoding is smaller (a dense tiny-model update
    // touches every block, so full pulls may win here), and a delta pull
    // is never larger per-pull than a full snapshot.
    assert_eq!(
        (report.policy_full_pulls + report.policy_delta_pulls) as usize,
        cfg.rounds,
        "one policy load per round"
    );
    assert!(report.policy_full_pulls >= 1, "round 0 must pull full");
    if let (Some(per_full), Some(per_delta)) = (
        report
            .policy_bytes_full
            .checked_div(report.policy_full_pulls),
        report
            .policy_bytes_delta
            .checked_div(report.policy_delta_pulls),
    ) {
        assert!(
            per_delta < per_full,
            "a shipped delta must beat a full snapshot ({per_delta} >= {per_full})"
        );
    }
}

/// Same-seed golden for the socket fleet: a fault-free two-round run must
/// reproduce these weights bit-for-bit across refactors of the parent-side
/// aggregation.
#[test]
fn fault_free_fleet_matches_golden_checksum() {
    let _guard = FLEET_LOCK.lock().unwrap();
    let report = fleet(tiny_cfg(11, 2), WireTransport::Tcp)
        .run()
        .expect("fleet run");
    assert_eq!(report.final_version, report.grads_aggregated);
    assert_eq!(
        report.final_checksum, 0x4d0f_34f1_abaf_1a05,
        "fleet weights drifted from the pinned golden (version {})",
        report.final_version
    );
}

/// The fleet starts from `TrainConfig::initial_snapshot` like the
/// in-process engines: resuming at version 7 continues the policy clock.
#[test]
fn fleet_resumes_from_initial_snapshot() {
    let _guard = FLEET_LOCK.lock().unwrap();
    let mut snap = train(&tiny_cfg(13, 1)).final_snapshot;
    snap.version = 7;
    let report = fleet(tiny_cfg(13, 2).resume_from(snap), WireTransport::Tcp)
        .run()
        .expect("resumed fleet run");
    assert!(report.grads_aggregated > 0);
    assert_eq!(
        report.final_version,
        7 + report.grads_aggregated,
        "the fleet must continue from the resumed version"
    );
}

/// The same fleet over unix-domain sockets.
#[cfg(unix)]
#[test]
fn chaos_round_over_uds() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let report = fleet(tiny_cfg(7, 3).with_chaos(3), WireTransport::Uds)
        .run()
        .expect("uds fleet run");
    assert!(report.grads_aggregated > 0);
    assert!(report.final_version > 0);
    assert!(report.warm_reuses > 0, "rounds 2+ must reuse warm workers");
}
