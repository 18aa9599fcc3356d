//! The three workloads and one timed training job on each, with the
//! correctness checks every job must pass before its numbers count.

use std::time::{Duration, Instant};

use stellaris_core::{
    frameworks, train, LearnerMode, RemoteFleet, RemoteSetup, RemoteWorker, TrainConfig,
};
use stellaris_envs::EnvId;
use stellaris_serverless::{FunctionKind, ProcessConfig, ProcessPool, WireTransport};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table II MLP on Hopper, asynchronous staleness-aware learners on
    /// in-process threads, minibatch 32.
    MlpAsyncInproc,
    /// The same model, env, rule and minibatch driven by `RemoteFleet`
    /// over Unix sockets: 1 actor process, 2 learner processes.
    MlpAsyncRemote,
    /// Table II CNN on SpaceInvaders, RLlib-style synchronous learners on
    /// the classic parameter server, serverful billing.
    CnnSyncServerful,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MlpAsyncInproc,
        Workload::MlpAsyncRemote,
        Workload::CnnSyncServerful,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpAsyncInproc => "mlp_async_inproc",
            Workload::MlpAsyncRemote => "mlp_async_remote",
            Workload::CnnSyncServerful => "cnn_sync_serverful",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_remote(self) -> bool {
        self == Workload::MlpAsyncRemote
    }

    /// Same-seed repetitions of this workload must give bitwise-equal
    /// weights (the async in-process engine races real threads).
    pub fn deterministic(self) -> bool {
        self != Workload::MlpAsyncInproc
    }

    /// Rounds per training job: each job takes about two seconds here, so
    /// a run holds several jobs and reports their median.
    pub fn rounds_per_job(self) -> usize {
        match self {
            Workload::MlpAsyncInproc => 10,
            Workload::MlpAsyncRemote => 6,
            Workload::CnnSyncServerful => 3,
        }
    }

    pub fn config(self, seed: u64) -> TrainConfig {
        let mut cfg = match self {
            Workload::MlpAsyncInproc | Workload::MlpAsyncRemote => {
                let mut c = TrainConfig::stellaris_scaled(EnvId::Hopper, seed);
                c.hidden = 256;
                c.n_actors = 2;
                c.max_learners = 2;
                c.minibatch = 32;
                if self == Workload::MlpAsyncRemote {
                    // One actor collect per round carries the same 1024
                    // steps (32 minibatches) as a round in-process.
                    c.actor_steps = c.round_timesteps;
                }
                c
            }
            Workload::CnnSyncServerful => {
                let mut c = frameworks::rllib(EnvId::SpaceInvaders, seed);
                c.n_actors = 2;
                c.max_learners = 2;
                c.learner_mode = LearnerMode::Sync { n: 2 };
                c
            }
        };
        cfg.rounds = self.rounds_per_job();
        cfg
    }
}

/// Unix sockets, per the workload definition.
pub fn process_config() -> ProcessConfig {
    ProcessConfig {
        transport: WireTransport::Uds,
        ..ProcessConfig::default()
    }
}

/// What one training job measured.
pub struct Job {
    /// Per-round wall time (ms); empty on the remote path, whose public
    /// API reports no round boundaries.
    pub round_ms: Vec<f64>,
    /// Job start to first round start (in-process only).
    pub setup_s: Option<f64>,
    pub steps_per_s: f64,
    pub grads_per_s: f64,
    /// Peak resident set of the benchmark process during the job (worker
    /// processes are not included).
    pub peak_rss_mb: f64,
    /// Job cost per 1000 env steps (in-process only; the remote report
    /// carries no cost).
    pub usd_per_1k_steps: Option<f64>,
    /// Operations attempted (learner invocations plus actor collects) and
    /// those lost after retries.
    pub attempted: u64,
    pub failed: u64,
    /// Bitwise identity of the final weights.
    pub checksum: u64,
    pub rounds: usize,
    pub policy_updates: u64,
    pub staleness: Vec<u64>,
    /// Remote only: policy payload bytes shipped to the actor per round,
    /// and the share of pulls sent delta-encoded.
    pub policy_bytes_per_round: Option<f64>,
    pub delta_pull_share: Option<f64>,
    /// Gradients aggregated against minibatches staged, for the report.
    pub aggregated: u64,
    pub staged: u64,
}

/// Actor batches the job collects, from the configuration alone (the
/// engines' own per-round quotas).
fn actor_batches(w: Workload, cfg: &TrainConfig) -> u64 {
    let per_round = match (&cfg.learner_mode, w.is_remote()) {
        (_, true) => 1,
        (LearnerMode::Async { .. }, false) => (cfg.round_timesteps / cfg.actor_steps).max(1),
        (LearnerMode::Sync { .. } | LearnerMode::Single, false) => {
            cfg.round_timesteps
                .div_ceil(cfg.n_actors * cfg.actor_steps)
                .max(1)
                * cfg.n_actors
        }
    };
    (cfg.rounds * per_round) as u64
}

/// Minibatches the job stages.
fn staged_minibatches(w: Workload, cfg: &TrainConfig) -> u64 {
    actor_batches(w, cfg) * cfg.actor_steps.div_ceil(cfg.minibatch) as u64
}

/// Largest permitted gap between minibatches staged and gradients
/// aggregated: one round's minibatches on the async paths, none on the
/// sync path.
///
/// The sync engine offers every wave before its round ends. The remote
/// fleet offers a round's gradients in minibatch order after computing
/// them all, so only the Eq. 3 gate can hold any back. The gate folds its
/// whole queue at once, and while beta_k >= 1 (the remote calibration
/// round sees staleness up to 31, so for ~80 rounds) a round of fresh,
/// staleness-0 gradients always dilutes the queue below the threshold: at
/// most one round is pending. In-process, the gradient queue also closes
/// as soon as the final round's steps are collected, dropping gradients the
/// learners have not pushed yet; nothing in the engine bounds that backlog,
/// so the bound assumes learners stay within one round of the actors
/// (observed: 0-16 of the 32).
fn shortfall_bound(cfg: &TrainConfig) -> u64 {
    match cfg.learner_mode {
        LearnerMode::Async { .. } => cfg.round_timesteps.div_ceil(cfg.minibatch) as u64,
        LearnerMode::Sync { .. } | LearnerMode::Single => 0,
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn check_shortfall(w: Workload, cfg: &TrainConfig, aggregated: u64) -> Result<u64, String> {
    let staged = staged_minibatches(w, cfg);
    let bound = shortfall_bound(cfg);
    check(aggregated <= staged && staged - aggregated <= bound, || {
        format!(
            "{}: {aggregated} gradients aggregated of {staged} minibatches staged; \
                 the code allows a shortfall of at most {bound}",
            w.name()
        )
    })?;
    Ok(staged)
}

/// Runs one training job through the public entry point and checks it.
pub fn run_job(w: Workload, cfg: &TrainConfig, exe: &str) -> Result<Job, String> {
    // Writing 5 to clear_refs resets VmHWM, so each job gets its own peak.
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: {e}"))?;
    let mut job = if w.is_remote() {
        run_remote(w, cfg, exe)
    } else {
        run_inproc(w, cfg)
    }?;
    job.peak_rss_mb = peak_rss_mb()?;
    Ok(job)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run_inproc(w: Workload, cfg: &TrainConfig) -> Result<Job, String> {
    let res = train(cfg);
    let name = w.name();
    check(res.rows.len() == cfg.rounds, || {
        format!("{name}: {} rows for {} rounds", res.rows.len(), cfg.rounds)
    })?;
    check(
        res.final_snapshot.flat.iter().all(|x| x.is_finite()),
        || format!("{name}: final weights are not all finite"),
    )?;
    check(res.degraded_rounds == 0, || {
        format!("{name}: {} degraded rounds", res.degraded_rounds)
    })?;
    check(res.slots_leaked == 0, || {
        format!("{name}: {} platform slots leaked", res.slots_leaked)
    })?;
    check(
        res.faults.total_injected() == 0 && res.faults.retries == 0,
        || format!("{name}: faults or retries with chaos off"),
    )?;
    let staged = check_shortfall(w, cfg, res.grads_aggregated)?;

    let first = &res.rows[0];
    let setup_s = first.wall_time_s - first.round_duration_s;
    let round_ms: Vec<f64> = res.rows.iter().map(|r| r.round_duration_s * 1e3).collect();
    let round_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
    let collects = actor_batches(w, cfg);
    let steps = collects * cfg.actor_steps as u64;
    Ok(Job {
        steps_per_s: steps as f64 / round_s,
        grads_per_s: res.grads_aggregated as f64 / (res.wall_time_s - setup_s),
        peak_rss_mb: 0.0,
        usd_per_1k_steps: Some(res.cost.total() / (steps as f64 / 1e3)),
        attempted: res.learner_invocations + collects,
        failed: res.faults.exhausted,
        checksum: stellaris_core::snapshot_checksum(&res.final_snapshot),
        rounds: cfg.rounds,
        policy_updates: res.policy_updates,
        staleness: res.staleness_log,
        policy_bytes_per_round: None,
        delta_pull_share: None,
        aggregated: res.grads_aggregated,
        staged,
        round_ms,
        setup_s: Some(setup_s),
    })
}

fn run_remote(w: Workload, cfg: &TrainConfig, exe: &str) -> Result<Job, String> {
    let name = w.name();
    let fleet = RemoteFleet::new(
        exe,
        vec!["worker".to_string()],
        process_config(),
        cfg.clone(),
    );
    let t0 = Instant::now();
    let rep = fleet
        .run()
        .map_err(|e| format!("{name}: fleet run failed: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    drop(fleet);
    check_no_children(name)?;
    check(rep.rounds == cfg.rounds, || {
        format!("{name}: {} rounds reported for {}", rep.rounds, cfg.rounds)
    })?;
    check(
        rep.faults.total_injected() == 0 && rep.recovered == 0,
        || format!("{name}: faults or retries with chaos off"),
    )?;
    check(rep.faults.exhausted == 0, || {
        format!(
            "{name}: {} operations lost after retries",
            rep.faults.exhausted
        )
    })?;
    check(
        rep.staleness_log.len() as u64 == rep.grads_aggregated,
        || format!("{name}: staleness log does not match gradients aggregated"),
    )?;
    let staged = check_shortfall(w, cfg, rep.grads_aggregated)?;
    let steps = actor_batches(w, cfg) * cfg.actor_steps as u64;
    let pulls = rep.policy_full_pulls + rep.policy_delta_pulls;
    Ok(Job {
        round_ms: Vec::new(),
        setup_s: None,
        steps_per_s: steps as f64 / wall,
        grads_per_s: rep.grads_aggregated as f64 / wall,
        peak_rss_mb: 0.0,
        usd_per_1k_steps: None,
        attempted: rep.learner_invocations + cfg.rounds as u64,
        failed: rep.faults.exhausted,
        checksum: rep.final_checksum,
        rounds: rep.rounds,
        policy_updates: rep.final_version,
        staleness: rep.staleness_log,
        policy_bytes_per_round: Some(
            (rep.policy_bytes_full + rep.policy_bytes_delta) as f64 / cfg.rounds as f64,
        ),
        delta_pull_share: Some(rep.policy_delta_pulls as f64 / pulls.max(1) as f64),
        aggregated: rep.grads_aggregated,
        staged,
    })
}

/// The remote job's set-up: cold spawn plus INIT of its actor and learner
/// workers, through the same public calls `RemoteFleet` makes.
pub fn remote_setup(cfg: &TrainConfig, exe: &str) -> Result<Duration, String> {
    let pool = ProcessPool::new(exe, vec!["worker".to_string()], process_config());
    let setup = RemoteSetup::from_train(cfg);
    let n_learners = cfg.max_learners.max(1);
    let slots = std::iter::once((FunctionKind::Actor, n_learners))
        .chain((0..n_learners).map(|l| (FunctionKind::Learner, l)));
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for (kind, index) in slots {
        let proc = pool
            .checkout(kind, index)
            .map_err(|e| format!("worker spawn failed: {e}"))?;
        let mut worker = RemoteWorker::new(proc);
        worker
            .init(&setup, 0)
            .map_err(|e| format!("worker INIT failed: {e}"))?;
        workers.push(worker);
    }
    let took = t0.elapsed();
    for mut w in workers {
        w.shutdown()
            .map_err(|e| format!("worker shutdown failed: {e}"))?;
    }
    pool.shutdown();
    Ok(took)
}

/// Fails if any child process of this benchmark is still alive (or left
/// unreaped) once a remote job has returned.
pub fn check_no_children(name: &str) -> Result<(), String> {
    let me = std::process::id().to_string();
    let dir = std::fs::read_dir("/proc").map_err(|e| format!("cannot list /proc: {e}"))?;
    let mut left = Vec::new();
    for entry in dir.flatten() {
        let pid = entry.file_name().to_string_lossy().into_owned();
        if !pid.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // Fields after the parenthesised command name: state, ppid, ...
        let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
            continue;
        };
        if rest.split_whitespace().nth(1) == Some(me.as_str()) {
            left.push(pid);
        }
    }
    check(left.is_empty(), || {
        format!("{name}: worker processes outlived the job: {left:?}")
    })
}
