//! The Stellaris training orchestrator (Fig. 4's workflow).
//!
//! The asynchronous path wires real threads through the distributed cache:
//! actor threads pull the latest policy and publish trajectory batches
//! (Step ①); a GPU data-loader thread stages GAE-processed mini-batches and
//! exports pointers (`Arc<SampleBatch>`) into the work queue (§V-B); learner
//! workers are invoked through the serverless platform, compute gradients
//! with the global IS-truncation cap and submit them to the cache (Step ②);
//! the parameter thread performs staleness-aware aggregation and publishes
//! each new policy snapshot (Step ③). Staleness is therefore *emergent*
//! from genuine thread racing, not scripted.
//!
//! The synchronous path implements the serverful baselines (RLlib-style
//! multi-learner data parallelism, single-learner MinionsRL) with the same
//! components in lockstep.
//!
//! Both paths — and the socket fleet in `remote` — aggregate on one
//! [`ShardedParameterServer`] built by `build_server`. Async learners hand
//! their gradients, as the router delivered them, straight to its lanes.
//! A sync wave that comes up short of its quorum commits what arrived on
//! the same server (`commit_pending`), so optimizer state is never reset.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use stellaris_cache::{BlockingQueue, Cache, LatencyModel, ShardedGradientQueue};
use stellaris_envs::make_env;
use stellaris_nn::Tensor;
use stellaris_rl::{
    evaluate, fill_gae, impact_gradients, impala_gradients, ppo_gradients, ImpactLearner,
    PolicyNet, PolicySnapshot, PolicySpec, RolloutWorker, SampleBatch,
};
use stellaris_serverless::{
    bill_hybrid, bill_serverful, bill_serverless, CostBreakdown, FaultPlan, FaultReport,
    FunctionKind, OverheadMode, Platform, StartupProfile,
};
use stellaris_telemetry as telemetry;

use crate::aggregation::SspThrottle;
use crate::autoscale::LearnerAutoscaler;
use crate::config::{Algo, Deployment, LearnerMode, TrainConfig};
use crate::messages::GradientMsg;
use crate::metrics::{Component, TimerReport, Timers, TrainRow};
use crate::parameter::ShardedParameterServer;
use crate::transport::{Placement, Router};
use crate::truncation::RatioBoard;

/// Cache key under which the canonical policy snapshot is published.
pub const POLICY_KEY: &str = "policy:latest";

/// Reads the published policy snapshot, mapping a missing or corrupt frame
/// (fault injection can corrupt stored bytes) to `None` so callers degrade
/// the wave instead of panicking mid-round.
fn read_snapshot(cache: &Cache) -> Option<PolicySnapshot> {
    cache.get_obj(POLICY_KEY).ok()
}

/// Everything a finished training job reports.
#[derive(Clone, Debug)]
pub struct TrainResult {
    /// Per-round metric rows.
    pub rows: Vec<TrainRow>,
    /// Staleness of every aggregated gradient (Fig. 3b data).
    pub staleness_log: Vec<u64>,
    /// Component timers (Fig. 14 data).
    pub timers: TimerReport,
    /// Final evaluation reward.
    pub final_reward: f32,
    /// Total cost in USD under the configured billing model.
    pub cost: CostBreakdown,
    /// Total wall-clock seconds.
    pub wall_time_s: f64,
    /// Total learner-function invocations.
    pub learner_invocations: u64,
    /// Total policy updates.
    pub policy_updates: u64,
    /// GPU-slot utilisation over the run (Fig. 3a data).
    pub gpu_utilization: f64,
    /// Cold starts paid.
    pub cold_starts: u64,
    /// Configuration label.
    pub label: String,
    /// The final trained policy weights (loadable via
    /// `PolicyNet::load_snapshot` into an architecture-compatible net).
    pub final_snapshot: stellaris_rl::PolicySnapshot,
    /// Gradients actually folded into the policy (each contributes one
    /// `staleness_log` entry).
    pub grads_aggregated: u64,
    /// Rounds in which at least one invocation or transfer exhausted its
    /// retries and the round proceeded with fewer gradients (the quorum
    /// degradation path).
    pub degraded_rounds: u64,
    /// Platform slots not returned by the end of the run. Must be zero:
    /// anything else means a permit leaked through a failure path.
    pub slots_leaked: u64,
    /// Everything the fault plan injected and every retry it observed.
    pub faults: FaultReport,
}

impl TrainResult {
    /// Mean reward over the last `n` rounds (stable "final reward" metric).
    pub fn final_reward_mean(&self, n: usize) -> f32 {
        let tail = &self.rows[self.rows.len().saturating_sub(n)..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(|r| r.reward).sum::<f32>() / tail.len() as f32
        }
    }

    /// Largest observed gradient staleness, `0` when nothing was aggregated
    /// (degenerate configs with zero policy updates must not panic here).
    pub fn max_staleness(&self) -> u64 {
        self.staleness_log.iter().max().copied().unwrap_or(0)
    }
}

pub(crate) fn build_policy(cfg: &TrainConfig) -> PolicyNet {
    let mut env = make_env(cfg.env_id, cfg.env_cfg);
    env.reset(cfg.seed);
    let mut spec = PolicySpec::for_env(env.as_ref());
    spec.hidden = cfg.hidden;
    PolicyNet::new(spec, cfg.seed)
}

/// The canonical starting policy: fresh weights, or the configured resume
/// snapshot loaded on top (workers still start from `build_policy` and pull
/// the canonical weights through the cache on their first cycle).
pub(crate) fn initial_policy(cfg: &TrainConfig) -> PolicyNet {
    let mut policy = build_policy(cfg);
    if let Some(snap) = &cfg.initial_snapshot {
        use stellaris_nn::ParamSet;
        assert_eq!(
            snap.flat.len(),
            policy.num_scalars(),
            "resume snapshot does not match this config's architecture"
        );
        policy.load_snapshot(snap);
    }
    policy
}

/// The job's parameter server, the one every engine aggregates on: the
/// canonical starting policy, the aggregation rule of `cfg.learner_mode`,
/// and `cfg.param_shards` shards that each own an optimizer (one shard is
/// bit-for-bit the reference `ParameterServer`).
pub(crate) fn build_server(cfg: &TrainConfig) -> ShardedParameterServer {
    ShardedParameterServer::new(
        initial_policy(cfg),
        cfg.learner_mode.rule(),
        cfg.param_shards,
        || cfg.optimizer.build(cfg.algo.lr()),
    )
}

/// One learner-function body: load the snapshot, run the configured
/// algorithm's gradient pass, wrap the result as a [`GradientMsg`]. Shared
/// by the in-process learner threads and the remote worker loop
/// (`remote::serve_worker`), so both sides of a socket compute identically.
pub(crate) fn learner_compute(
    algo: &Algo,
    policy: &mut PolicyNet,
    impact_state: &mut Option<ImpactLearner>,
    snap: &PolicySnapshot,
    batch: &SampleBatch,
    cap: Option<f32>,
    learner_id: usize,
) -> GradientMsg {
    policy.load_snapshot(snap);
    let (grads, stats) = match algo {
        Algo::Ppo(pc) => ppo_gradients(policy, batch, pc, cap),
        Algo::Impala(ic) => impala_gradients(policy, batch, ic, cap),
        Algo::Impact(ic) => {
            let state = impact_state.get_or_insert_with(|| ImpactLearner::new(policy));
            let target = state.target_net(policy);
            let out = impact_gradients(policy, &target, batch, ic, cap);
            state.maybe_refresh(policy, ic);
            out
        }
    };
    GradientMsg {
        learner_id,
        grads,
        base_version: snap.version,
        batch_len: batch.len(),
        is_ratio: stats.mean_ratio,
        kl: stats.kl,
        surrogate: stats.surrogate,
    }
}

/// Runs a training job, dispatching on the learner topology.
pub fn train(cfg: &TrainConfig) -> TrainResult {
    match &cfg.learner_mode {
        LearnerMode::Async { .. } => train_async(cfg),
        LearnerMode::Sync { n } => train_sync(cfg, (*n).max(1)),
        LearnerMode::Single => train_sync(cfg, 1),
    }
}

// ---------------------------------------------------------------------------
// Asynchronous path (Stellaris and the Fig. 11a ablation baselines)
// ---------------------------------------------------------------------------

fn train_async(cfg: &TrainConfig) -> TrainResult {
    let start = Instant::now();
    let cache = Arc::new(Cache::new(16, LatencyModel::lan_recorded()));
    let faults = Arc::new(FaultPlan::new(cfg.faults.clone()));
    let platform = Arc::new(
        Platform::new(
            cfg.max_learners,
            cfg.n_actors,
            StartupProfile::default(),
            OverheadMode::Record,
        )
        .with_faults(faults.clone()),
    );
    let router = Arc::new(Router::with_faults(cache.clone(), faults));
    platform.prewarm(FunctionKind::Learner, cfg.max_learners);
    platform.prewarm(FunctionKind::Actor, cfg.n_actors);

    let server = Arc::new(build_server(cfg));
    // Snapshot first: `put_obj` locks cache shards, which must never happen
    // while a parameter-shard guard is live.
    let snapshot0 = server.snapshot();
    cache.put_obj(POLICY_KEY, &snapshot0);

    let board = Arc::new(match cfg.truncation_rho {
        Some(rho) => RatioBoard::new(rho),
        None => RatioBoard::disabled(),
    });
    let throttle = cfg
        .learner_mode
        .rule()
        .ssp_bound()
        .map(|b| Arc::new(SspThrottle::new(b)));
    let autoscaler = Arc::new(if cfg.dynamic_learners {
        LearnerAutoscaler::new(1, cfg.max_learners.max(1))
    } else {
        LearnerAutoscaler::pinned(cfg.max_learners.max(1))
    });

    // bound: refilled once per round, ≤ one batch per actor invocation.
    let traj_q: Arc<BlockingQueue<SampleBatch>> = Arc::new(BlockingQueue::new());
    // bound: mirrors traj_q one-to-one within a round.
    let work_q: Arc<BlockingQueue<Arc<SampleBatch>>> = Arc::new(BlockingQueue::new());
    // Generous cap: learners produce at most one gradient apiece per round
    // and the aggregator drains every round, so the shed path only fires if
    // a consumer wedges — in which case dropping the *oldest* (stalest)
    // gradient is exactly what the staleness-aware rule would discount
    // anyway. Under normal operation no payload is ever shed, so bounding
    // the queue does not perturb same-seed reproducibility.
    let grad_cap = 8 * cfg.max_learners.max(8);
    // Learners hash into `grad_lanes` independent bounded MPSC lanes so a
    // 10k-learner fan-in never serialises on one queue lock; one lane (the
    // default) is exactly the classic single bounded queue. A lane carries
    // the delivered gradient itself: the router already moved (and
    // fault-injected) it across VMs.
    let grad_q: Arc<ShardedGradientQueue<GradientMsg>> =
        Arc::new(ShardedGradientQueue::bounded(cfg.grad_lanes, grad_cap));
    let stop = Arc::new(AtomicBool::new(false));
    let steps = Arc::new(AtomicU64::new(0));
    // Actors sample up to the current round's data budget and then idle,
    // so every topology consumes the same number of timesteps per round
    // (the paper fixes the per-round trajectory volume across baselines).
    // `sample_claims` hands out quota atomically so racing actors cannot
    // overshoot the budget.
    let astep = cfg.actor_steps as u64;
    // At least one actor batch per round: a quota of zero would let every
    // round "complete" without sampling anything.
    let round_quota = (cfg.round_timesteps as u64 / astep).max(1) * astep;
    let sample_target = Arc::new(AtomicU64::new(round_quota));
    let sample_claims = Arc::new(AtomicU64::new(0));
    let episodes = Arc::new(AtomicU64::new(0));
    // Retry-exhausted invocations/transfers: each one means some work was
    // permanently lost and the round degraded to a quorum of what arrived.
    let degraded_events = Arc::new(AtomicU64::new(0));
    let mut degraded_rounds = 0u64;
    let mut prev_degraded = 0u64;
    let timers = Arc::new(Timers::default());
    let active_actors = Arc::new(AtomicUsize::new(if cfg.dynamic_actors {
        (cfg.n_actors / 2).max(1)
    } else {
        cfg.n_actors
    }));
    let probe_obs: Arc<Mutex<Option<Tensor>>> = Arc::new(Mutex::new(None));

    let mut rows = Vec::with_capacity(cfg.rounds);
    let gamma = cfg.algo.gamma();
    let lambda = cfg.algo.gae_lambda();

    crossbeam::thread::scope(|s| {
        // ----- actors (Step ①) -------------------------------------------------
        for a in 0..cfg.n_actors {
            let cache = cache.clone();
            let platform = platform.clone();
            let traj_q = traj_q.clone();
            let stop = stop.clone();
            let steps = steps.clone();
            let episodes = episodes.clone();
            let timers = timers.clone();
            let active = active_actors.clone();
            let probe = probe_obs.clone();
            let target_steps = sample_target.clone();
            let claims = sample_claims.clone();
            let degraded = degraded_events.clone();
            let serverless_actor = cfg.deployment != Deployment::Serverful;
            let cfg = cfg.clone();
            s.spawn(move |_| {
                let mut worker = RolloutWorker::new(
                    make_env(cfg.env_id, cfg.env_cfg),
                    cfg.seed.wrapping_mul(1000).wrapping_add(a as u64),
                );
                let mut local = build_policy(&cfg);
                while !stop.load(Ordering::Acquire) {
                    if a >= active.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    // Claim one collect's worth of this round's quota.
                    let claimed = claims.fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                        (c + cfg.actor_steps as u64 <= target_steps.load(Ordering::Acquire))
                            .then_some(c + cfg.actor_steps as u64)
                    });
                    if claimed.is_err() {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    if let Ok(snap) = cache.get_obj::<PolicySnapshot>(POLICY_KEY) {
                        local.load_snapshot(&snap);
                    }
                    let mut collect = || {
                        let _t = timers.span(Component::ActorSampling);
                        worker.collect(&local, cfg.actor_steps)
                    };
                    let batch = if serverless_actor {
                        match platform.invoke_retry(
                            FunctionKind::Actor,
                            &cfg.retry,
                            cfg.invoke_deadline,
                            &mut collect,
                        ) {
                            Ok((batch, _rec)) => batch,
                            Err(_) => {
                                // Refund the claimed quota so the round's
                                // data budget can still be met by a later
                                // attempt (here or on another actor).
                                claims.fetch_sub(cfg.actor_steps as u64, Ordering::AcqRel);
                                degraded.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    } else {
                        collect()
                    };
                    {
                        let mut p = probe.lock();
                        if p.is_none() {
                            *p = Some(batch.obs.clone());
                        }
                    }
                    steps.fetch_add(batch.len() as u64, Ordering::Release);
                    episodes.fetch_add(batch.episode_returns.len() as u64, Ordering::Relaxed);
                    traj_q.push(batch);
                }
            });
        }

        // ----- GPU data loader (§V-B) ------------------------------------------
        {
            let traj_q = traj_q.clone();
            let work_q = work_q.clone();
            let timers = timers.clone();
            let minibatch = cfg.minibatch;
            s.spawn(move |_| {
                while let Some(mut batch) = traj_q.pop() {
                    let _t = timers.span(Component::DataLoading);
                    fill_gae(&mut batch, gamma, lambda);
                    batch.normalize_advantages();
                    for mb in batch.minibatches(minibatch) {
                        // Staging in "GPU memory": the Arc is the exported
                        // pointer learners dereference without copying.
                        work_q.push(Arc::new(mb));
                    }
                }
                work_q.close();
            });
        }

        // ----- learner workers (Step ②) ----------------------------------------
        for l in 0..cfg.max_learners {
            let cache = cache.clone();
            let platform = platform.clone();
            let router = router.clone();
            let work_q = work_q.clone();
            let grad_q = grad_q.clone();
            let board = board.clone();
            let throttle = throttle.clone();
            let timers = timers.clone();
            let server = server.clone();
            let autoscaler = autoscaler.clone();
            let degraded = degraded_events.clone();
            let cfg = cfg.clone();
            s.spawn(move |_| {
                let mut local = build_policy(&cfg);
                let mut impact_state: Option<ImpactLearner> = None;
                // Names the gradient frame if the router ever routes it
                // through the cache tier.
                let grad_key = format!("grad:{l}");
                loop {
                    // Dynamic learner orchestration: workers beyond the
                    // autoscaler's current pool size idle without holding
                    // GPU slots.
                    if !autoscaler.admits(l) {
                        if work_q.is_closed() && work_q.is_empty() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    autoscaler.observe(work_q.len());
                    let Some(mb) = work_q.pop_timeout(Duration::from_millis(20)) else {
                        if work_q.is_closed() && work_q.is_empty() {
                            break;
                        }
                        continue;
                    };
                    let token = throttle.as_ref().map(|t| t.begin(server.clock()));
                    // A retried invocation re-reads the *current* snapshot,
                    // so a straggler's re-execution carries fresh
                    // `base_version` — its residual staleness is exactly
                    // what the Eq. 3 threshold and Eq. 4 weight absorb.
                    let mut compute = || {
                        let _t = timers.span(Component::Gradient);
                        // An unreadable snapshot degrades this learner's
                        // wave instead of panicking the worker thread.
                        let snap = read_snapshot(&cache)?;
                        let cap = board.cap();
                        let msg = learner_compute(
                            &cfg.algo,
                            &mut local,
                            &mut impact_state,
                            &snap,
                            &mb,
                            cap,
                            l,
                        );
                        board.publish(l, msg.is_ratio);
                        Some(msg)
                    };
                    let out = platform.invoke_retry(
                        FunctionKind::Learner,
                        &cfg.retry,
                        cfg.invoke_deadline,
                        &mut compute,
                    );
                    if let (Some(th), Some(t)) = (&throttle, token) {
                        th.end(t);
                    }
                    let msg = match out {
                        Ok((Some(msg), _rec)) => msg,
                        Ok((None, _)) | Err(_) => {
                            // Gradient permanently lost (retries exhausted)
                            // or the snapshot was unreadable: the round
                            // proceeds with whatever the other learners
                            // deliver.
                            degraded.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let base_version = msg.base_version;
                    let sent = {
                        let _t = timers.span(Component::Cache);
                        // Gradient submission crosses VMs (learner -> the
                        // parameter function's host) and is subject to
                        // frame drop/corruption with retry.
                        router.send_with_retry(
                            Arc::new(msg),
                            Placement { vm: 1 + l },
                            Placement { vm: 0 },
                            false,
                            &grad_key,
                            &cfg.retry,
                        )
                    };
                    match sent {
                        // Lane choice is keyed by learner id: a learner
                        // always lands on the same lane and never touches
                        // a global queue lock.
                        Ok((_tier, delivered)) => {
                            grad_q.push(l as u64, delivered.into_owned(), base_version);
                        }
                        Err(_) => {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // ----- parameter function (Step ③) -------------------------------------
        {
            let cache = cache.clone();
            let grad_q = grad_q.clone();
            let server = server.clone();
            let timers = timers.clone();
            s.spawn(move |_| {
                while let Some((msg, _base_version)) = grad_q.pop_any() {
                    let _t = timers.span(Component::Aggregation);
                    let applied = server.offer(msg);
                    let clock = server.clock();
                    if applied > 0 {
                        let snap = server.snapshot();
                        cache.put_obj(POLICY_KEY, &snap);
                    }
                    // Publish the aggregation clock so dequeues can histogram
                    // each gradient's staleness at consumption time.
                    grad_q.advance_clock(clock);
                }
            });
        }

        // ----- round control + evaluation ---------------------------------------
        let mut eval_env = make_env(cfg.env_id, cfg.env_cfg);
        let mut eval_policy = build_policy(cfg);
        let mut prev_policy = build_policy(cfg);
        let mut prev_updates = 0u64;
        let mut prev_invocations = 0u64;
        let mut prev_episodes = 0u64;
        let mut prev_staleness_len = 0u64;
        let mut last_round_end = Instant::now();
        let mut last_reward = f32::NEG_INFINITY;

        let rounds_total = telemetry::global().counter("stellaris_core_rounds_total");
        let depth_gauge = telemetry::global().gauge("stellaris_core_work_queue_depth");
        let degraded_gauge = telemetry::global().gauge("stellaris_core_degraded_rounds");
        for round in 0..cfg.rounds {
            let mut round_span = telemetry::span_with("core.round", vec![("round", round.into())]);
            let target = (round as u64 + 1) * round_quota;
            sample_target.store(target, Ordering::Release);
            let deadline = Instant::now() + Duration::from_secs(120);
            {
                let _wait = telemetry::span("core.round_wait");
                while steps.load(Ordering::Acquire) < target && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            depth_gauge.set(work_q.len() as f64);
            // Evaluate the current canonical policy.
            if let Ok(snap) = cache.get_obj::<PolicySnapshot>(POLICY_KEY) {
                eval_policy.load_snapshot(&snap);
            }
            let reward = {
                let _eval = telemetry::span("core.eval");
                evaluate(
                    &eval_policy,
                    eval_env.as_mut(),
                    cfg.eval_episodes,
                    cfg.seed ^ 0xe7a1,
                )
            };
            let policy_kl = probe_obs
                .lock()
                .as_ref()
                .map(|obs| prev_policy.mean_kl_to(&eval_policy, obs))
                .unwrap_or(0.0);
            prev_policy.load_snapshot(&eval_policy.snapshot());

            // MinionsRL-style dynamic actor scaling.
            if cfg.dynamic_actors {
                let cur = active_actors.load(Ordering::Acquire);
                let next = if reward > last_reward {
                    (cur + 2).min(cfg.n_actors)
                } else {
                    cur.saturating_sub(1).max(1)
                };
                active_actors.store(next, Ordering::Release);
            }
            last_reward = reward;

            let (updates, staleness_len, mean_staleness) = {
                server.advance_round();
                let recorded = server.staleness_log().recorded();
                let new = (recorded - prev_staleness_len) as usize;
                let mean = server.mean_recent_staleness(new.max(1));
                (server.updates(), recorded, mean)
            };
            let records = platform.records();
            let invocations = records
                .iter()
                .filter(|r| r.kind == FunctionKind::Learner)
                .count() as u64;
            let cost = cost_for(cfg, &platform, start.elapsed());
            let now = Instant::now();
            rows.push(TrainRow {
                round,
                wall_time_s: start.elapsed().as_secs_f64(),
                round_duration_s: (now - last_round_end).as_secs_f64(),
                learner_invocations: invocations - prev_invocations,
                episodes: episodes.load(Ordering::Relaxed) - prev_episodes,
                reward,
                mean_staleness,
                cost_usd: cost.total(),
                learner_cost_usd: cost.learner_usd,
                actor_cost_usd: cost.actor_usd,
                policy_updates: updates - prev_updates,
                policy_kl,
            });
            last_round_end = now;
            prev_updates = updates;
            prev_invocations = invocations;
            prev_episodes = episodes.load(Ordering::Relaxed);
            prev_staleness_len = staleness_len;
            let deg_now = degraded_events.load(Ordering::Relaxed);
            if deg_now > prev_degraded {
                degraded_rounds += 1;
                round_span.field("degraded", true);
                telemetry::recorder::note_degraded_round();
            }
            prev_degraded = deg_now;
            degraded_gauge.set(degraded_rounds as f64);
            round_span.field("reward", f64::from(reward));
            round_span.field("mean_staleness", mean_staleness);
            rounds_total.inc();
        }

        // ----- shutdown ---------------------------------------------------------
        stop.store(true, Ordering::Release);
        traj_q.close();
        // work_q is NOT closed here: the data loader closes it after
        // draining traj_q, so minibatches staged during shutdown still
        // reach the learners instead of being dropped by a closed queue.
        grad_q.close();
    })
    // lint:allow(A8): deliberate re-panic — a child thread died and the run cannot continue
    // lint:allow(L1): re-raising a child thread's panic is the intended failure path
    .expect("orchestrator thread panicked");

    // Learner/cache threads outlive the round loop's last bookkeeping pass;
    // losses they report between that check and shutdown still degraded the
    // final round.
    if degraded_events.load(Ordering::Relaxed) > prev_degraded && cfg.rounds > 0 {
        degraded_rounds += 1;
    }

    finalize(
        cfg,
        rows,
        &server,
        &platform,
        &timers,
        start,
        degraded_rounds,
    )
}

// ---------------------------------------------------------------------------
// Synchronous path (serverful baselines and MinionsRL's single learner)
// ---------------------------------------------------------------------------

/// `n_learners` is the wave size (at least 1): the `FullSync` quorum of
/// `cfg.learner_mode`.
fn train_sync(cfg: &TrainConfig, n_learners: usize) -> TrainResult {
    let start = Instant::now();
    let cache = Arc::new(Cache::new(16, LatencyModel::lan_recorded()));
    let faults = Arc::new(FaultPlan::new(cfg.faults.clone()));
    let platform = Arc::new(
        Platform::new(
            n_learners,
            cfg.n_actors,
            StartupProfile::default(),
            OverheadMode::Record,
        )
        .with_faults(faults.clone()),
    );
    let router = Router::with_faults(cache.clone(), faults);
    platform.prewarm(FunctionKind::Learner, n_learners);
    platform.prewarm(FunctionKind::Actor, cfg.n_actors);
    let timers = Arc::new(Timers::default());

    let server = build_server(cfg);
    cache.put_obj(POLICY_KEY, &server.snapshot());

    let gamma = cfg.algo.gamma();
    let lambda = cfg.algo.gae_lambda();

    let mut workers: Vec<RolloutWorker> = (0..cfg.n_actors)
        .map(|a| {
            RolloutWorker::new(
                make_env(cfg.env_id, cfg.env_cfg),
                cfg.seed.wrapping_mul(1000).wrapping_add(a as u64),
            )
        })
        .collect();
    let mut eval_env = make_env(cfg.env_id, cfg.env_cfg);
    let mut eval_policy = build_policy(cfg);
    let mut prev_policy = build_policy(cfg);
    let mut probe_obs: Option<Tensor> = None;

    let mut rows = Vec::with_capacity(cfg.rounds);
    // IMPACT's target-network state persists across waves per learner slot
    // (a fresh target every invocation would degenerate the ratio to 1).
    let impact_states: Vec<Mutex<Option<ImpactLearner>>> =
        (0..n_learners).map(|_| Mutex::new(None)).collect();
    let mut episodes_total = 0u64;
    let mut prev_invocations = 0u64;
    let mut prev_episodes = 0u64;
    let mut prev_updates = 0u64;
    let mut last_round_end = Instant::now();
    let collects_per_round = cfg.round_timesteps.div_ceil(cfg.n_actors * cfg.actor_steps);
    let mut degraded_events = 0u64;
    let mut prev_degraded = 0u64;
    let mut degraded_rounds = 0u64;

    let rounds_total = telemetry::global().counter("stellaris_core_rounds_total");
    let degraded_gauge = telemetry::global().gauge("stellaris_core_degraded_rounds");
    for round in 0..cfg.rounds {
        let mut round_span = telemetry::span_with("core.round", vec![("round", round.into())]);
        // Synchronous actor wave(s).
        let mut batches: Vec<SampleBatch> = Vec::new();
        for _ in 0..collects_per_round.max(1) {
            // An unreadable snapshot degrades the whole wave rather than
            // panicking the round loop.
            let Some(snap) = read_snapshot(&cache) else {
                degraded_events += workers.len() as u64;
                continue;
            };
            let serverless_actor = cfg.deployment != Deployment::Serverful;
            let n_spawned = workers.len();
            let wave: Vec<SampleBatch> = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .map(|w| {
                        let platform = platform.clone();
                        let timers = timers.clone();
                        let snap = snap.clone();
                        let cfg2 = cfg.clone();
                        s.spawn(move |_| {
                            let mut local = build_policy(&cfg2);
                            local.load_snapshot(&snap);
                            let mut collect = || {
                                let _t = timers.span(Component::ActorSampling);
                                w.collect(&local, cfg2.actor_steps)
                            };
                            if serverless_actor {
                                platform
                                    .invoke_retry(
                                        FunctionKind::Actor,
                                        &cfg2.retry,
                                        cfg2.invoke_deadline,
                                        &mut collect,
                                    )
                                    .ok()
                                    .map(|(batch, _rec)| batch)
                            } else {
                                Some(collect())
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // lint:allow(A8): deliberate re-panic — propagates a child actor's panic
                    // lint:allow(L1): join() errs only if the actor panicked; propagate it
                    .filter_map(|h| h.join().unwrap())
                    .collect()
            })
            // lint:allow(A8): deliberate re-panic — propagates a child actor's panic
            // lint:allow(L1): re-raising a child thread's panic is the intended failure path
            .expect("actor wave panicked");
            // A degraded wave: some actors exhausted their retries, the
            // round trains on the trajectories that did arrive.
            degraded_events += (n_spawned - wave.len()) as u64;
            batches.extend(wave);
        }
        episodes_total += batches
            .iter()
            .map(|b| b.episode_returns.len() as u64)
            .sum::<u64>();
        if probe_obs.is_none() {
            probe_obs = batches.first().map(|b| b.obs.clone());
        }

        // Data loader: GAE + minibatching.
        let mut minibatches: Vec<SampleBatch> = Vec::new();
        {
            let _t = timers.span(Component::DataLoading);
            for mut b in batches {
                fill_gae(&mut b, gamma, lambda);
                b.normalize_advantages();
                minibatches.extend(b.minibatches(cfg.minibatch));
            }
        }

        // Synchronous data-parallel learner waves.
        let mut idx = 0;
        while idx < minibatches.len() {
            let wave: Vec<&SampleBatch> = minibatches
                [idx..(idx + n_learners).min(minibatches.len())]
                .iter()
                .collect();
            idx += wave.len();
            let snap = server.snapshot();
            let wave_size = wave.len();
            // No barrier here: a barrier sized to the wave deadlocks the
            // moment one member exhausts its retries and never arrives.
            // Each learner instead reports its finish instant, and the
            // synchronous hold — a learner function keeps its slot (and its
            // bill running) while it waits for the wave's stragglers, the
            // economic cost of synchrony the paper's Fig. 2(b)/8 expose —
            // is billed after the join from `wave_end - finish`.
            let results: Vec<Option<(GradientMsg, Instant)>> = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = wave
                    .into_iter()
                    .enumerate()
                    .map(|(l, mb)| {
                        let platform = platform.clone();
                        let timers = timers.clone();
                        let snap = snap.clone();
                        let cfg2 = cfg.clone();
                        let impact_slot = &impact_states[l];
                        s.spawn(move |_| {
                            let mut compute = || {
                                let _t = timers.span(Component::Gradient);
                                let mut local = build_policy(&cfg2);
                                let mut impact_state = impact_slot.lock().take();
                                let msg = learner_compute(
                                    &cfg2.algo,
                                    &mut local,
                                    &mut impact_state,
                                    &snap,
                                    mb,
                                    None,
                                    l,
                                );
                                *impact_slot.lock() = impact_state;
                                msg
                            };
                            platform
                                .invoke_retry(
                                    FunctionKind::Learner,
                                    &cfg2.retry,
                                    cfg2.invoke_deadline,
                                    &mut compute,
                                )
                                .ok()
                                .map(|(msg, _rec)| (msg, Instant::now()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // lint:allow(A8): deliberate re-panic — propagates a child learner's panic
                    // lint:allow(L1): join() errs only if the learner panicked; propagate it
                    .map(|h| h.join().unwrap())
                    .collect()
            })
            // lint:allow(A8): deliberate re-panic — propagates a child learner's panic
            // lint:allow(L1): re-raising a child thread's panic is the intended failure path
            .expect("learner wave panicked");
            if let Some(wave_end) = results.iter().flatten().map(|(_, t)| *t).max() {
                for (_, finish) in results.iter().flatten() {
                    platform.bill_hold(FunctionKind::Learner, wave_end - *finish);
                }
            }
            // Gradient submission crosses to the aggregator's VM with
            // drop/corruption + retry; a lost gradient shrinks the wave.
            let msgs: Vec<GradientMsg> = results
                .into_iter()
                .flatten()
                .filter_map(|(m, _)| {
                    let key = format!("grad:sync:{round}:{}", m.learner_id);
                    let src = Placement {
                        vm: 1 + m.learner_id,
                    };
                    router
                        .send_with_retry(
                            Arc::new(m),
                            src,
                            Placement { vm: 0 },
                            false,
                            &key,
                            &cfg.retry,
                        )
                        .ok()
                        .map(|(_tier, d)| d.into_owned())
                })
                .collect();
            let _agg = timers.span(Component::Aggregation);
            degraded_events += (wave_size - msgs.len()) as u64;
            for m in msgs {
                server.offer(m);
            }
            // A short wave (a gradient was lost, or this is the round's
            // trailing partial wave) never meets the quorum: commit what
            // arrived on the job's own optimizer. A full wave has already
            // committed and leaves nothing pending.
            server.commit_pending();
            cache.put_obj(POLICY_KEY, &server.snapshot());
        }

        // Evaluation + metrics.
        eval_policy.load_snapshot(&server.snapshot());
        let reward = {
            let _eval = telemetry::span("core.eval");
            evaluate(
                &eval_policy,
                eval_env.as_mut(),
                cfg.eval_episodes,
                cfg.seed ^ 0xe7a1,
            )
        };
        let policy_kl = probe_obs
            .as_ref()
            .map(|obs| prev_policy.mean_kl_to(&eval_policy, obs))
            .unwrap_or(0.0);
        prev_policy.load_snapshot(&eval_policy.snapshot());
        server.advance_round();

        let records = platform.records();
        let invocations = records
            .iter()
            .filter(|r| r.kind == FunctionKind::Learner)
            .count() as u64;
        let cost = cost_for(cfg, &platform, start.elapsed());
        let now = Instant::now();
        rows.push(TrainRow {
            round,
            wall_time_s: start.elapsed().as_secs_f64(),
            round_duration_s: (now - last_round_end).as_secs_f64(),
            learner_invocations: invocations - prev_invocations,
            episodes: episodes_total - prev_episodes,
            reward,
            mean_staleness: 0.0,
            cost_usd: cost.total(),
            learner_cost_usd: cost.learner_usd,
            actor_cost_usd: cost.actor_usd,
            policy_updates: server.updates() - prev_updates,
            policy_kl,
        });
        last_round_end = now;
        prev_invocations = invocations;
        prev_episodes = episodes_total;
        prev_updates = server.updates();
        if degraded_events > prev_degraded {
            degraded_rounds += 1;
            round_span.field("degraded", true);
            telemetry::recorder::note_degraded_round();
        }
        prev_degraded = degraded_events;
        degraded_gauge.set(degraded_rounds as f64);
        round_span.field("reward", f64::from(reward));
        rounds_total.inc();
    }

    finalize(
        cfg,
        rows,
        &server,
        &platform,
        &timers,
        start,
        degraded_rounds,
    )
}

fn cost_for(cfg: &TrainConfig, platform: &Platform, wall: Duration) -> CostBreakdown {
    let records = platform.records();
    match cfg.deployment {
        Deployment::Serverless => bill_serverless(&cfg.cluster, &records),
        Deployment::Serverful => bill_serverful(&cfg.cluster, wall),
        Deployment::Hybrid => {
            let actor_records: Vec<_> = records
                .iter()
                .copied()
                .filter(|r| r.kind == FunctionKind::Actor)
                .collect();
            bill_hybrid(&cfg.cluster, wall, &actor_records)
        }
    }
}

/// Assembles the job's result. Each server accessor takes and releases its
/// own shard guards, so no server lock is held while the platform's are.
fn finalize(
    cfg: &TrainConfig,
    rows: Vec<TrainRow>,
    server: &ShardedParameterServer,
    platform: &Platform,
    timers: &Timers,
    start: Instant,
    degraded_rounds: u64,
) -> TrainResult {
    let wall = start.elapsed();
    let mut timer_report = timers.report();
    // Startup overhead + cache latency from the substrates' own accounting.
    timer_report.startup_s = platform
        .records()
        .iter()
        .map(|r| r.startup.as_secs_f64())
        .sum();
    let (cold, _) = platform.start_counts();
    let final_reward = rows.last().map(|r| r.reward).unwrap_or(0.0);
    TrainResult {
        staleness_log: server.staleness_log().to_vec(),
        timers: timer_report,
        final_reward,
        cost: cost_for(cfg, platform, wall),
        wall_time_s: wall.as_secs_f64(),
        learner_invocations: platform
            .records()
            .iter()
            .filter(|r| r.kind == FunctionKind::Learner)
            .count() as u64,
        policy_updates: server.updates(),
        gpu_utilization: platform.gpu_utilization(cfg.max_learners),
        cold_starts: cold,
        label: cfg.label(),
        final_snapshot: server.snapshot(),
        grads_aggregated: server.grads_aggregated(),
        degraded_rounds,
        slots_leaked: platform.leaked_slots(),
        faults: platform.faults().report(),
        rows,
    }
}

/// Smoothed reward curve: mean over a trailing window (used by figures).
pub fn smooth(rewards: &[f32], window: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(rewards.len());
    // bound: popped back down to `window` on every push below.
    let mut buf: VecDeque<f32> = VecDeque::new();
    for &r in rewards {
        buf.push_back(r);
        if buf.len() > window.max(1) {
            buf.pop_front();
        }
        out.push(buf.iter().sum::<f32>() / buf.len() as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::AggregationRule;
    use stellaris_envs::EnvId;

    #[test]
    fn async_tiny_run_completes_with_sane_metrics() {
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 1);
        let res = train(&cfg);
        assert_eq!(res.rows.len(), 3);
        assert!(
            res.learner_invocations > 0,
            "learners must have been invoked"
        );
        assert!(res.policy_updates > 0, "policy must have been updated");
        assert!(res.final_reward.is_finite());
        assert!(res.cost.total() > 0.0);
        assert!(res.wall_time_s > 0.0);
        for row in &res.rows {
            assert!(row.reward.is_finite());
            assert!(row.cost_usd >= 0.0);
        }
        // Cumulative cost is nondecreasing.
        for w in res.rows.windows(2) {
            assert!(w[1].cost_usd >= w[0].cost_usd - 1e-12);
        }
    }

    #[test]
    fn sync_tiny_run_completes() {
        let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 2);
        cfg.learner_mode = LearnerMode::Sync { n: 2 };
        cfg.deployment = Deployment::Serverful;
        let res = train(&cfg);
        assert_eq!(res.rows.len(), 3);
        assert!(res.policy_updates > 0);
        assert_eq!(
            res.staleness_log.iter().max().copied().unwrap_or(0),
            0,
            "synchronous learners never see staleness"
        );
        assert!(
            res.cost.total() > 0.0,
            "serverful billing charges wall time"
        );
    }

    #[test]
    fn short_sync_wave_steps_the_jobs_adam() {
        // Regression: a wave short of its quorum (here the round's trailing
        // wave — 4 minibatches in waves of 3 and 1) aggregated on a
        // throwaway server with a fresh Adam, resetting the moments to a
        // t=1 step. Replay the round by hand — same rollouts, same
        // minibatches — through ONE Adam stepped on each wave's mean.
        use crate::aggregation::GradAccumulator;
        use stellaris_nn::{OptimizerKind, ParamSet};
        let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 11);
        cfg.learner_mode = LearnerMode::Sync { n: 3 };
        cfg.rounds = 1;
        assert_eq!(cfg.optimizer, OptimizerKind::Adam);
        let got = train(&cfg).final_snapshot;

        let mut policy = initial_policy(&cfg);
        let mut workers: Vec<RolloutWorker> = (0..cfg.n_actors)
            .map(|a| {
                RolloutWorker::new(
                    make_env(cfg.env_id, cfg.env_cfg),
                    cfg.seed * 1000 + a as u64,
                )
            })
            .collect();
        let mut minibatches = Vec::new();
        for _ in 0..cfg.round_timesteps.div_ceil(cfg.n_actors * cfg.actor_steps) {
            for w in &mut workers {
                let mut b = w.collect(&policy, cfg.actor_steps);
                fill_gae(&mut b, cfg.algo.gamma(), cfg.algo.gae_lambda());
                b.normalize_advantages();
                minibatches.extend(b.minibatches(cfg.minibatch));
            }
        }
        let waves: Vec<usize> = minibatches.chunks(3).map(<[_]>::len).collect();
        assert_eq!(waves, [3, 1], "the round must end on a short wave");
        let mut adam = cfg.optimizer.build(cfg.algo.lr());
        let mut mean = GradAccumulator::new(&policy.param_shapes());
        for wave in minibatches.chunks(3) {
            let snap = policy.snapshot();
            mean.reset();
            for (l, mb) in wave.iter().enumerate() {
                let mut local = build_policy(&cfg);
                let msg = learner_compute(&cfg.algo, &mut local, &mut None, &snap, mb, None, l);
                mean.accumulate(&msg.grads, 1.0 / wave.len() as f32);
            }
            adam.step_refs(&mut policy.params_mut(), mean.grads());
        }
        let want: Vec<u32> = policy.flatten().iter().map(|x| x.to_bits()).collect();
        let got: Vec<u32> = got.flat.iter().map(|x| x.to_bits()).collect();
        assert!(
            got == want,
            "sync weights differ from one Adam over both waves"
        );
    }

    #[test]
    fn single_learner_mode_runs() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 3);
        cfg.learner_mode = LearnerMode::Single;
        let res = train(&cfg);
        assert!(res.policy_updates > 0);
    }

    #[test]
    fn async_staleness_emerges_with_multiple_learners() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 4);
        cfg.learner_mode = LearnerMode::Async {
            rule: AggregationRule::PureAsync,
        };
        cfg.max_learners = 4;
        cfg.rounds = 4;
        let res = train(&cfg);
        assert!(!res.staleness_log.is_empty());
        // With four racing learners some gradient should arrive stale.
        // (`max_staleness()` instead of `.max().unwrap()`: the latter
        // panicked on empty logs in degenerate zero-update configs.)
        let max_staleness = res.max_staleness();
        assert!(
            max_staleness >= 1,
            "expected some staleness, got {max_staleness}"
        );
    }

    #[test]
    fn unreadable_policy_snapshot_degrades_instead_of_panicking() {
        // Regression: both round loops used to `.expect()` the snapshot
        // read; a corrupt frame under POLICY_KEY panicked a worker thread
        // and took the whole run down with it.
        let cache = Cache::new(4, LatencyModel::off());
        assert!(read_snapshot(&cache).is_none(), "missing key degrades");
        cache.put(POLICY_KEY, bytes::Bytes::from_static(b"\xff\x00garbage"));
        assert!(read_snapshot(&cache).is_none(), "corrupt frame degrades");
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 11);
        let snap = initial_policy(&cfg).snapshot();
        cache.put_obj(POLICY_KEY, &snap);
        let got = read_snapshot(&cache).expect("valid snapshot must round-trip");
        assert_eq!(got.version, snap.version);
    }

    #[test]
    fn zero_update_run_reports_zero_staleness_without_panicking() {
        // Regression: a config whose learners all fail produces zero policy
        // updates and an empty staleness log. `max_staleness()` must report
        // 0 — the old `.max().copied().unwrap()` idiom panicked here.
        use stellaris_serverless::{FaultConfig, RetryPolicy};
        let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 7);
        cfg.rounds = 1;
        // Serverful actors bypass the platform, so trajectories still flow;
        // every learner invocation fails with no retry budget.
        cfg.deployment = Deployment::Serverful;
        cfg.faults = FaultConfig {
            seed: 7,
            invoke_failure: 1.0,
            ..FaultConfig::off()
        };
        cfg.retry = RetryPolicy::none();
        let res = train(&cfg);
        assert_eq!(res.policy_updates, 0, "all learners failed");
        assert!(res.staleness_log.is_empty());
        assert_eq!(res.max_staleness(), 0, "empty log must report 0, not panic");
        assert_eq!(res.grads_aggregated, 0);
        assert!(res.degraded_rounds >= 1, "the starved round is degraded");
        assert!(res.faults.injected_failures > 0);
        assert!(res.faults.exhausted > 0);
        assert_eq!(res.slots_leaked, 0);
        assert_eq!(res.rows.len(), 1, "the run still completes its round");
    }

    #[test]
    fn smooth_is_trailing_mean() {
        let s = smooth(&[1.0, 3.0, 5.0, 7.0], 2);
        assert_eq!(s, vec![1.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn dynamic_actors_run() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 5);
        cfg.dynamic_actors = true;
        cfg.n_actors = 3;
        let res = train(&cfg);
        assert_eq!(res.rows.len(), cfg.rounds);
    }
}
