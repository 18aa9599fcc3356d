//! The outside-in per-layer pass: each layer's public functions called on
//! the workload's own env, model geometry, minibatch and seed, every call
//! wrapped in a span of the benchmark's recorder.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_cache::{Cache, Codec, LatencyModel, ShardedGradientQueue};
use stellaris_core::{
    AggregationRule, Algo, GradientMsg, GradientRequest, LearnerMode, ParameterServer, Placement,
    RemoteSetup, RemoteWorker, Router, ShardedParameterServer, TrainConfig, POLICY_KEY,
};
use stellaris_envs::make_env;
use stellaris_nn::{Graph, ParamSet};
use stellaris_rl::{
    fill_gae, ppo_gradients, BlockLayout, DeltaStore, PolicyNet, PolicySpec, RolloutWorker,
};
use stellaris_serverless::{
    FaultPlan, FunctionKind, OverheadMode, Platform, ProcessPool, StartupProfile,
};

use crate::spans::Recorder;
use crate::workload::{check_no_children, process_config};

/// Per-layer numbers that are sizes or ratios rather than span timings.
pub struct Extras {
    pub grad_bytes: f64,
    pub request_bytes: f64,
    /// Policy bytes the fleet's ship-the-smaller rule would send per pull,
    /// replayed over this pass's own parameter updates.
    pub replay_policy_bytes: f64,
    pub replay_delta_share: f64,
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("per-layer pass: {what}"))
    }
}

pub fn run(cfg: &TrainConfig, exe: &str, rec: &mut Recorder) -> Result<Extras, String> {
    let Algo::Ppo(ppo) = cfg.algo else {
        return Err("per-layer pass: the workloads train PPO".to_string());
    };
    let mut env = make_env(cfg.env_id, cfg.env_cfg);
    let mut obs = env.reset(cfg.seed);
    let mut spec = PolicySpec::for_env(env.as_ref());
    spec.hidden = cfg.hidden;
    let image = spec.is_image();
    let policy = PolicyNet::new(spec, cfg.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // Repetitions sized so the CNN's ~0.1 s gradient passes stay affordable.
    let reps = if image { 5 } else { 30 };

    // ----- rl + envs: one observation at a time, as the actors step ------
    let mut episode = cfg.seed;
    for _ in 0..256 {
        let out = rec.span("rl.act", 1, |_| policy.act(&obs, &mut rng));
        let step = rec.span("envs.step", 1, |_| env.step(&out.action));
        obs = if step.done {
            episode = episode.wrapping_add(1);
            env.reset(episode)
        } else {
            step.obs
        };
    }
    let mut worker = RolloutWorker::new(
        make_env(cfg.env_id, cfg.env_cfg),
        cfg.seed.wrapping_mul(1000),
    );
    let mut raw = None;
    for _ in 0..3 {
        raw = Some(rec.span("rl.collect", 1, |_| {
            worker.collect(&policy, cfg.actor_steps)
        }));
    }
    let raw = raw.ok_or("per-layer pass: no batch collected")?;

    // ----- rl data loader --------------------------------------------------
    let mut minibatches = Vec::new();
    for _ in 0..reps {
        let mut batch = raw.clone();
        minibatches = rec.span("rl.loader", 1, |r| {
            r.span("rl.fill_gae", 1, |_| {
                fill_gae(&mut batch, ppo.gamma, ppo.gae_lambda)
            });
            r.span("rl.normalize_advantages", 1, |_| {
                batch.normalize_advantages()
            });
            r.span("rl.minibatches", 1, |_| batch.minibatches(cfg.minibatch))
        });
    }
    let mb = minibatches
        .into_iter()
        .next()
        .ok_or("per-layer pass: no minibatch staged")?;

    // ----- rl gradient, and nn forward/backward inside it ------------------
    let cap = cfg.truncation_rho;
    let mut grad = None;
    for _ in 0..reps {
        grad = Some(rec.span("rl.grad", 1, |_| ppo_gradients(&policy, &mb, &ppo, cap)));
    }
    let (grads, stats) = grad.ok_or("per-layer pass: no gradient")?;
    for _ in 0..reps {
        let out = rec.span("nn.graph", 1, |r| {
            let g = Graph::new();
            let parts = r.span("nn.forward", 1, |_| policy.loss_parts(&g, &mb));
            let fit = g.add(g.mean_all(parts.logp_new), g.mean_all(parts.value));
            let loss = g.add(fit, g.add(parts.entropy, parts.kl));
            r.span("nn.backward", 1, |_| g.backward(loss, &parts.param_vars))
        });
        ensure(
            out.iter().all(|t| t.data().iter().all(|x| x.is_finite())),
            "backward produced non-finite gradients",
        )?;
    }
    let msg = GradientMsg {
        learner_id: 0,
        grads,
        base_version: 0,
        batch_len: mb.len(),
        is_ratio: stats.mean_ratio,
        kl: stats.kl,
        surrogate: stats.surrogate,
    };

    // ----- cache: codec, put/take, snapshot publish, lanes -----------------
    let grad_bytes = msg.encoded_len() as f64;
    for _ in 0..reps {
        let back = rec.span("cache.grad_codec", 1, |_| {
            GradientMsg::from_bytes(&msg.to_bytes())
        });
        ensure(
            matches!(back, Ok(m) if m == msg),
            "gradient codec round trip changed the message",
        )?;
    }
    let cache = Arc::new(Cache::new(16, LatencyModel::lan_recorded()));
    for i in 0..reps {
        let key = format!("grad:{i}");
        let back = rec.span("cache.put_take", 1, |_| {
            cache.put_obj(&key, &msg);
            cache.take_obj::<GradientMsg>(&key)
        });
        ensure(
            matches!(back, Ok(m) if m == msg),
            "cache put/take changed the message",
        )?;
    }
    let snap = policy.snapshot();
    for _ in 0..reps {
        rec.span("cache.snapshot_publish", 1, |_| {
            cache.put_obj(POLICY_KEY, &snap)
        });
    }
    let lanes: ShardedGradientQueue<String> = ShardedGradientQueue::bounded(cfg.grad_lanes, 64);
    let keys: Vec<String> = (0..64).map(|i| format!("grad:{i}")).collect();
    for _ in 0..200 {
        let popped = rec.span("cache.lane_push_pop", 64, |_| {
            let mut popped = 0;
            for (i, key) in keys.iter().enumerate() {
                lanes.push((i % cfg.max_learners.max(1)) as u64, key.clone(), 0);
                popped += usize::from(lanes.try_pop_any().is_some());
            }
            popped
        });
        ensure(popped == keys.len(), "gradient lanes lost an entry")?;
    }

    // ----- core: router hop, offers on both servers, snapshot --------------
    let faults = Arc::new(FaultPlan::new(cfg.faults.clone()));
    let router = Router::with_faults(cache.clone(), faults.clone());
    for i in 0..reps {
        let payload = Arc::new(msg.clone());
        let key = format!("grad:{i}");
        let sent = rec.span("core.router_send", 1, |_| {
            router.send_with_retry(
                payload,
                Placement { vm: 1 },
                Placement { vm: 0 },
                false,
                &key,
                &cfg.retry,
            )
        });
        ensure(sent.is_ok(), "router send failed with chaos off")?;
    }
    let rule = match &cfg.learner_mode {
        LearnerMode::Async { rule } => rule.clone(),
        LearnerMode::Sync { n } => AggregationRule::FullSync { n: (*n).max(1) },
        LearnerMode::Single => AggregationRule::FullSync { n: 1 },
    };
    // A synchronous rule updates once per `n` offers: time whole groups.
    let group = match rule {
        AggregationRule::FullSync { n } => n,
        _ => 1,
    };
    let lr = cfg.algo.lr();
    let sharded =
        ShardedParameterServer::new(policy.clone(), rule.clone(), cfg.param_shards, || {
            cfg.optimizer.build(lr)
        });
    let mut classic = ParameterServer::new(policy.clone(), cfg.optimizer.build(lr), rule);
    let mut store = DeltaStore::new(
        BlockLayout::from_shapes(&policy.param_shapes()),
        &sharded.snapshot(),
    );
    let (mut shipped, mut delta_wins, mut pulls) = (0usize, 0usize, 0usize);
    for _ in 0..reps {
        let fresh = |clock: u64| -> Vec<GradientMsg> {
            (0..group)
                .map(|_| GradientMsg {
                    base_version: clock,
                    ..msg.clone()
                })
                .collect()
        };
        let batch = fresh(sharded.clock());
        let applied = rec.span("core.offer_sharded", group as u32, |_| {
            batch.into_iter().map(|m| sharded.offer(m)).sum::<usize>()
        });
        let batch = fresh(classic.clock());
        let applied_classic = rec.span("core.offer_classic", group as u32, |_| {
            batch.into_iter().map(|m| classic.offer(m)).sum::<usize>()
        });
        ensure(
            applied == 1 && applied_classic == 1,
            "an offer group did not update once",
        )?;
        let snap = rec.span("core.snapshot", 1, |_| sharded.snapshot());
        let before = store.version();
        store.ingest(&snap);
        let delta = store.delta_since(before).encoded_len();
        let full = snap.encoded_len();
        shipped += delta.min(full);
        delta_wins += usize::from(delta < full);
        pulls += 1;
    }
    ensure(
        snapshots_equal(&sharded.snapshot().flat, &classic.snapshot().flat),
        "sharded and classic servers diverged on the same gradients",
    )?;

    // ----- serverless: invoke overhead around a no-op ----------------------
    let platform = Platform::new(
        cfg.max_learners,
        cfg.n_actors,
        StartupProfile::default(),
        OverheadMode::Record,
    )
    .with_faults(faults);
    platform.prewarm(FunctionKind::Learner, cfg.max_learners);
    for _ in 0..100 {
        let ok = rec.span("serverless.invoke", 16, |_| {
            (0..16)
                .filter(|_| {
                    platform
                        .invoke_retry(FunctionKind::Learner, &cfg.retry, None, || ())
                        .is_ok()
                })
                .count()
        });
        ensure(ok == 16, "a no-op invocation failed with chaos off")?;
    }
    ensure(
        platform.leaked_slots() == 0,
        "invocations leaked platform slots",
    )?;

    // ----- serverless spawn + remote wire, one worker process --------------
    let request_bytes = remote(cfg, exe, rec, &snap, &mb, &msg, reps)?;

    Ok(Extras {
        grad_bytes,
        request_bytes,
        replay_policy_bytes: shipped as f64 / pulls.max(1) as f64,
        replay_delta_share: delta_wins as f64 / pulls.max(1) as f64,
    })
}

fn snapshots_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn remote(
    cfg: &TrainConfig,
    exe: &str,
    rec: &mut Recorder,
    snap: &stellaris_rl::PolicySnapshot,
    mb: &stellaris_rl::SampleBatch,
    local: &GradientMsg,
    reps: usize,
) -> Result<f64, String> {
    let wire = |e: stellaris_core::RemoteError| format!("per-layer pass: worker: {e}");
    let pool = ProcessPool::new(exe, vec!["worker".to_string()], process_config());
    let setup = RemoteSetup::from_train(cfg);
    let mut workers = Vec::new();
    for index in 0..3 {
        let w = rec.span("serverless.spawn", 1, |r| {
            let proc = r
                .span("serverless.checkout", 1, |_| {
                    pool.checkout(FunctionKind::Learner, index)
                })
                .map_err(|e| format!("per-layer pass: spawn: {e}"))?;
            let mut w = RemoteWorker::new(proc);
            r.span("remote.init", 1, |_| w.init(&setup, 0))
                .map_err(wire)?;
            Ok::<_, String>(w)
        })?;
        workers.push(w);
    }
    let mut w = workers.pop().ok_or("per-layer pass: no worker")?;
    let req = GradientRequest {
        snap: snap.clone(),
        batch: mb.clone(),
        cap: cfg.truncation_rho,
        learner_id: 0,
    };
    for _ in 0..reps {
        let msg = rec
            .span("remote.gradient_rtt", 1, |_| w.gradient(&req, 0))
            .map_err(wire)?;
        ensure(
            msg.grads == local.grads,
            "remote gradient differs from the in-process one",
        )?;
    }
    w.load_policy(snap, 0).map_err(wire)?;
    for _ in 0..3 {
        let batch = rec
            .span("remote.collect", 1, |_| {
                w.collect(cfg.actor_steps as u64, 0)
            })
            .map_err(wire)?;
        ensure(
            batch.len() == cfg.actor_steps,
            "remote collect returned a short batch",
        )?;
    }
    workers.push(w);
    for mut w in workers {
        w.shutdown().map_err(wire)?;
    }
    pool.shutdown();
    check_no_children("per-layer pass")?;
    Ok(req.encoded_len() as f64)
}
