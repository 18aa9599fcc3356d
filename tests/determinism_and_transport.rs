//! Cross-crate determinism and data-transport tests: policies shipped
//! through the cache must behave identically on the far side, and the
//! synchronous path must be reproducible under a fixed seed.

use stellaris::cache::{Cache, LatencyModel};
use stellaris::prelude::*;
use stellaris::rl::PolicySnapshot;
use stellaris_nn::Tensor;

#[test]
fn policy_snapshot_survives_cache_transport() {
    let cache = Cache::new(4, LatencyModel::lan_recorded());
    let spec = PolicySpec {
        obs_shape: vec![6],
        action_space: ActionSpace::Continuous { dim: 2, bound: 1.0 },
        hidden: 24,
    };
    let mut policy = PolicyNet::new(spec.clone(), 7);
    policy.version = 13;
    cache.put_obj("policy:latest", &policy.snapshot());
    let snap: PolicySnapshot = cache.get_obj("policy:latest").unwrap();
    let mut remote = PolicyNet::new(spec, 999);
    remote.load_snapshot(&snap);
    assert_eq!(remote.version, 13);
    let obs = Tensor::from_vec(vec![0.3, -0.2, 0.0, 0.1, 1.0, 0.0], &[1, 6]);
    assert!(policy.mean_kl_to(&remote, &obs) < 1e-7);
    assert_eq!(policy.value_batch(&obs), remote.value_batch(&obs));
}

#[test]
fn sample_batch_survives_cache_transport() {
    use stellaris::rl::RolloutWorker;
    let cache = Cache::in_memory();
    let mut env = make_env(EnvId::PointMass, EnvConfig::tiny());
    env.reset(0);
    let mut spec = PolicySpec::for_env(env.as_ref());
    spec.hidden = 8;
    let policy = PolicyNet::new(spec, 0);
    let mut worker = RolloutWorker::new(env, 3);
    let batch = worker.collect(&policy, 16);
    cache.put_obj("traj:0", &batch);
    let back: SampleBatch = cache.take_obj("traj:0").unwrap();
    assert_eq!(back, batch);
    assert!(cache.get("traj:0").is_none(), "take must consume");
}

#[test]
fn sync_training_is_deterministic_per_seed() {
    let mk = || {
        let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 11);
        cfg.learner_mode = LearnerMode::Sync { n: 1 };
        cfg.n_actors = 1;
        cfg
    };
    let a = train(&mk());
    let b = train(&mk());
    let ra: Vec<f32> = a.rows.iter().map(|r| r.reward).collect();
    let rb: Vec<f32> = b.rows.iter().map(|r| r.reward).collect();
    assert_eq!(ra, rb, "single-learner sync training must be reproducible");
    assert_eq!(a.policy_updates, b.policy_updates);
}

/// Same-seed golden for the synchronous engine: four minibatches per round
/// under `Sync { n: 2 }` are two full waves, so any refactor of the sync
/// aggregation path must reproduce these weights bit-for-bit.
#[test]
fn sync_full_waves_match_golden_checksum() {
    let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 11);
    cfg.learner_mode = LearnerMode::Sync { n: 2 };
    let res = train(&cfg);
    assert_eq!(res.grads_aggregated, 12, "3 rounds x 2 full waves x 2");
    assert_eq!(res.policy_updates, 6);
    assert_eq!(
        stellaris::core::snapshot_checksum(&res.final_snapshot),
        0xe00d_9bfd_2d3a_bdd0,
        "sync Sync{{n:2}} weights drifted from the pinned golden"
    );
}

#[test]
fn different_seeds_differ() {
    let mut cfg1 = TrainConfig::test_tiny(EnvId::PointMass, 21);
    cfg1.learner_mode = LearnerMode::Sync { n: 1 };
    let mut cfg2 = cfg1.clone();
    cfg2.seed = 22;
    let a = train(&cfg1);
    let b = train(&cfg2);
    assert_ne!(
        a.rows.last().unwrap().reward,
        b.rows.last().unwrap().reward,
        "seeds must actually influence training"
    );
}

#[test]
fn corrupt_gradient_bytes_are_rejected_not_panicking() {
    use stellaris::cache::Codec;
    let cache = Cache::in_memory();
    cache.put("grad:1", bytes_of_garbage());
    let res = cache.take_obj::<GradientMsg>("grad:1");
    assert!(res.is_err(), "corrupt payloads must surface as errors");
    // And a valid message still round-trips next to it.
    let msg = GradientMsg {
        learner_id: 0,
        grads: vec![Tensor::ones(&[2])],
        base_version: 1,
        batch_len: 4,
        is_ratio: 1.0,
        kl: 0.0,
        surrogate: 0.0,
    };
    cache.put("grad:2", msg.to_bytes());
    assert_eq!(cache.take_obj::<GradientMsg>("grad:2").unwrap(), msg);
}

fn bytes_of_garbage() -> bytes::Bytes {
    bytes::Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02])
}
