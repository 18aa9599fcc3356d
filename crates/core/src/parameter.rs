//! The Parameter Function (workflow Step ③): staleness-aware gradient
//! aggregation and policy updates.
//!
//! Gradients arriving from learner functions are queued; every enqueue
//! re-evaluates the aggregation rule, and admitted batches are folded into
//! the policy as `θ_{c+1} = θ_c - (1/H_c) Σ (α_0/δ^(1/v)) g` via the
//! configured optimizer. The policy clock (`PolicyNet::version`) increments
//! on every update and is the reference for all staleness computations.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stellaris_nn::{Optimizer, ParamSet, Tensor};
use stellaris_rl::{BlockLayout, BlockUpdate, PolicyDelta, PolicyNet, PolicySnapshot};
use stellaris_telemetry::{Counter, Histogram};

use crate::aggregation::{AggregationRule, GradAccumulator};
use crate::messages::GradientMsg;
use crate::staleness::StalenessSchedule;

/// A capped staleness ledger: keeps the last [`StalenessRing::DEFAULT_CAP`]
/// per-gradient staleness samples plus a monotonic total, so a 10k-learner
/// run records millions of gradients without the ledger growing one `u64`
/// per gradient forever. The full distribution lives in the
/// `stellaris_core_staleness` histogram, which never evicts; the ring keeps
/// the recent raw samples that round summaries and Fig. 3(b)-style PDFs
/// read.
#[derive(Clone, Debug, Default)]
pub struct StalenessRing {
    /// bound: capped at `DEFAULT_CAP` entries — `push` evicts the oldest.
    buf: VecDeque<u64>,
    /// Total samples ever recorded (monotonic, survives eviction).
    recorded: u64,
}

impl StalenessRing {
    /// Retained-sample cap. 64Ki `u64`s is 512 KiB — a fixed ceiling however
    /// long the run — while holding far more than any round summary reads.
    pub const DEFAULT_CAP: usize = 65_536;

    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one staleness sample, evicting the oldest beyond the cap.
    pub fn push(&mut self, v: u64) {
        if self.buf.len() >= Self::DEFAULT_CAP {
            self.buf.pop_front();
        }
        self.buf.push_back(v);
        self.recorded += 1;
    }

    /// Total samples ever recorded (monotonic; `>= len()`).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained samples (`<= DEFAULT_CAP`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<u64> {
        self.buf.back().copied()
    }

    /// Iterates retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.buf.iter()
    }

    /// Copies the retained samples out, oldest first.
    pub fn to_vec(&self) -> Vec<u64> {
        self.buf.iter().copied().collect()
    }

    /// Mean over the last `n` retained samples (0.0 when empty).
    pub fn tail_mean(&self, n: usize) -> f64 {
        let start = self.buf.len().saturating_sub(n);
        let len = self.buf.len() - start;
        if len == 0 {
            return 0.0;
        }
        // lint:allow(L4): staleness sums and lengths stay far below 2^53, exact in f64
        self.buf.iter().skip(start).sum::<u64>() as f64 / len as f64
    }
}

/// The unsharded reference parameter server. No training engine runs it:
/// every engine aggregates on [`ShardedParameterServer`], whose one-shard
/// configuration must match this server bit-for-bit
/// (`single_shard_bitwise_matches_parameter_server`). It stays as the
/// reference for that test, the loom aggregation model and the benchmarks.
pub struct ParameterServer {
    /// The canonical policy.
    pub policy: PolicyNet,
    optimizer: Box<dyn Optimizer>,
    rule: AggregationRule,
    schedule: Option<StalenessSchedule>,
    pending: Vec<GradientMsg>,
    /// Reused across every update so aggregation allocates nothing at
    /// steady state.
    accumulator: GradAccumulator,
    /// Staleness of recently aggregated gradients, in admission order (the
    /// data behind the paper's Fig. 3(b) PDFs), capped — see
    /// [`StalenessRing`] for the bound policy.
    pub staleness_log: StalenessRing,
    /// Number of policy updates performed.
    pub updates: u64,
    /// Number of gradients folded in.
    pub grads_aggregated: u64,
    /// Global staleness histogram: one sample per aggregated gradient, so
    /// its count always equals the sum of `grads_aggregated` across runs.
    staleness_hist: Arc<Histogram>,
    gate_admitted: Arc<Counter>,
    gate_delayed: Arc<Counter>,
}

impl ParameterServer {
    /// Creates a server around an initial policy.
    pub fn new(policy: PolicyNet, optimizer: Box<dyn Optimizer>, rule: AggregationRule) -> Self {
        let schedule = rule.make_schedule();
        let reg = stellaris_telemetry::global();
        let shapes = policy.param_shapes();
        Self {
            policy,
            optimizer,
            rule,
            schedule,
            pending: Vec::new(),
            accumulator: GradAccumulator::new(&shapes),
            staleness_log: StalenessRing::new(),
            updates: 0,
            grads_aggregated: 0,
            staleness_hist: reg.histogram("stellaris_core_staleness"),
            gate_admitted: reg.counter("stellaris_core_gate_admitted_total"),
            gate_delayed: reg.counter("stellaris_core_gate_delayed_total"),
        }
    }

    /// Current policy clock.
    pub fn clock(&self) -> u64 {
        self.policy.version
    }

    /// Gradients waiting in the delay queue.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Offers a gradient; returns how many policy updates it triggered
    /// (0 when the rule delays aggregation).
    pub fn offer(&mut self, msg: GradientMsg) -> usize {
        debug_assert!(
            msg.base_version <= self.clock(),
            "gradient from the future: base {} > clock {} (staleness would go negative)",
            msg.base_version,
            self.clock()
        );
        let staleness = msg.staleness(self.clock());
        if let Some(s) = &mut self.schedule {
            s.observe(staleness);
        }
        self.pending.push(msg);
        let mut applied = 0;
        while self.try_flush() {
            applied += 1;
        }
        applied
    }

    /// One aggregation attempt; true if an update happened.
    fn try_flush(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let clock = self.clock();
        let staleness: Vec<u64> = self.pending.iter().map(|m| m.staleness(clock)).collect();
        if !self.rule.admits(&staleness, self.schedule.as_ref()) {
            self.gate_delayed.inc();
            return false;
        }
        self.gate_admitted.inc();
        // Per-gradient aggregation rules consume one message per update;
        // batched rules fold the whole queue.
        let take = match self.rule {
            AggregationRule::PureAsync | AggregationRule::Ssp { .. } => 1,
            _ => self.pending.len(),
        };
        let batch: Vec<GradientMsg> = self.pending.drain(..take).collect();
        self.apply(&batch);
        true
    }

    fn apply(&mut self, batch: &[GradientMsg]) {
        debug_assert!(!batch.is_empty());
        let clock = self.clock();
        self.accumulator.reset();
        // lint:allow(L4): batch sizes are far below 2^24, exact in f32
        let h = batch.len() as f32;
        for msg in batch {
            assert_eq!(
                msg.grads.len(),
                self.accumulator.len(),
                "gradient layout mismatch from learner {}",
                msg.learner_id
            );
            let delta = msg.staleness(clock);
            self.staleness_log.push(delta);
            self.staleness_hist.record(delta);
            let w = self.rule.weight(delta) / h;
            self.accumulator.accumulate(&msg.grads, w);
        }
        // The optimizer writes straight into the live policy tensors; no
        // flatten/unflatten round-trip, no parameter copies.
        let mut params = self.policy.params_mut();
        self.optimizer
            .step_refs(&mut params, self.accumulator.grads());
        self.policy.version += 1;
        self.updates += 1;
        self.grads_aggregated += batch.len() as u64;
    }

    /// Advances the staleness-threshold schedule one training round.
    pub fn advance_round(&mut self) {
        if let Some(s) = &mut self.schedule {
            s.advance_round();
        }
    }

    /// Current staleness threshold `β_k` (None while calibrating or for
    /// rules without one).
    pub fn beta(&self) -> Option<f64> {
        self.schedule.as_ref().and_then(StalenessSchedule::beta)
    }

    /// Snapshot of the canonical policy for actors/learners to pull.
    pub fn snapshot(&self) -> PolicySnapshot {
        self.policy.snapshot()
    }

    /// Mean staleness over the last `n` aggregated gradients.
    pub fn mean_recent_staleness(&self, n: usize) -> f64 {
        self.staleness_log.tail_mean(n)
    }
}

/// How parameter blocks (one block per parameter tensor, `ParamSet::params`
/// order) partition across shards: greedy balance by element count,
/// deterministic, each shard's block list ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    /// Global block indices owned by each shard, ascending within a shard.
    blocks: Vec<Vec<usize>>,
}

impl ShardLayout {
    /// Partitions `sizes.len()` blocks across `n_shards` (clamped to
    /// `1..=sizes.len()`): blocks are placed largest-first onto the
    /// currently lightest shard (ties by shard index), which keeps per-shard
    /// element counts within one block of balanced. With one shard the
    /// layout is the identity — every block, in order.
    pub fn partition(sizes: &[usize], n_shards: usize) -> Self {
        let n = n_shards.clamp(1, sizes.len().max(1));
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        // Stable sort: equal sizes keep ascending block order, so the
        // layout is a pure function of (sizes, n_shards).
        order.sort_by_key(|&b| std::cmp::Reverse(sizes[b]));
        let mut blocks = vec![Vec::new(); n];
        let mut load = vec![0usize; n];
        for b in order {
            let lightest = (0..n).min_by_key(|&s| (load[s], s)).unwrap_or(0);
            blocks[lightest].push(b);
            load[lightest] += sizes[b];
        }
        for list in &mut blocks {
            list.sort_unstable();
        }
        Self { blocks }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.blocks.len()
    }

    /// The global block indices shard `s` owns, ascending.
    pub fn blocks(&self, s: usize) -> &[usize] {
        &self.blocks[s]
    }
}

/// One shard's independent aggregation state: its parameter tensors, its
/// optimizer-state slice, its staleness-schedule view and its pending queue.
struct ParamShard {
    /// Global block indices this shard owns (ascending).
    blocks: Vec<usize>,
    /// The owned parameter tensors, one per block.
    params: Vec<Tensor>,
    optimizer: Box<dyn Optimizer>,
    rule: AggregationRule,
    schedule: Option<StalenessSchedule>,
    pending: Vec<Arc<GradientMsg>>,
    accumulator: GradAccumulator,
    staleness_log: StalenessRing,
    updates: u64,
    grads_aggregated: u64,
    /// Per-shard staleness histogram (`stellaris_core_staleness_shard<i>`).
    hist: Arc<Histogram>,
}

/// The parameter server every training engine aggregates on — the async
/// and sync round loops and the socket fleet alike — built from a
/// [`TrainConfig`](crate::TrainConfig) by `orchestrator::build_server`.
///
/// The sharded parameter plane (DESIGN.md §16): the parameter function split
/// into `N` shards keyed by parameter block, each aggregating independently
/// — own optimizer-state slice, own staleness-schedule view, own pending
/// queue, own per-shard staleness histogram — with a cheap version-vector
/// commit. A commit bumps one global `commit_seq` (the policy clock) and
/// stamps the shard's blocks with that sequence number, which is exactly
/// the state delta pulls need: a learner at version `v` pulls the blocks
/// stamped after `v` ([`Self::delta_since`]) and nothing else.
///
/// **Single-shard configuration is bit-for-bit the reference
/// [`ParameterServer`]**: one shard owns every block in order, staleness is
/// measured against the same global clock, gradients fold in the same order
/// with the same weights into the same optimizer — the Eq. 2/3/4 semantics
/// and the global policy clock are unchanged (regression-tested below).
/// With `N > 1` the shards commit independently, so the clock advances `N`
/// times per full gradient sweep; staleness thresholds self-normalize
/// because the schedule calibrates `δ_max` from observed values (Eq. 3).
pub struct ShardedParameterServer {
    /// Flat-vector geometry (shared with delta pulls).
    layout: BlockLayout,
    shard_layout: ShardLayout,
    shards: Vec<Mutex<ParamShard>>,
    /// The global policy clock: one tick per shard commit. With one shard
    /// this equals `PolicyNet::version` under the unsharded server.
    commit_seq: AtomicU64,
    /// Per-block commit stamp: `block_versions[b]` is the `commit_seq`
    /// value of the commit that last wrote block `b`.
    block_versions: Vec<AtomicU64>,
    /// Template for reassembling a `PolicyNet` from the shard state.
    template: Mutex<PolicyNet>,
    /// `stellaris_core_grads_aggregated_total`: one increment per
    /// (gradient, shard) fold, so the per-shard staleness histogram counts
    /// sum to it (checked by `validate_trace`).
    grads_counter: Arc<Counter>,
    global_hist: Arc<Histogram>,
    gate_admitted: Arc<Counter>,
    gate_delayed: Arc<Counter>,
}

impl ShardedParameterServer {
    /// Creates a sharded server around an initial policy. `make_optimizer`
    /// builds one optimizer per shard (each owns only its slice of the
    /// optimizer state); `n_shards` is clamped to the number of parameter
    /// tensors.
    pub fn new(
        policy: PolicyNet,
        rule: AggregationRule,
        n_shards: usize,
        mut make_optimizer: impl FnMut() -> Box<dyn Optimizer>,
    ) -> Self {
        let shapes = policy.param_shapes();
        let layout = BlockLayout::from_shapes(&shapes);
        let sizes: Vec<usize> = (0..layout.n_blocks()).map(|b| layout.size(b)).collect();
        let shard_layout = ShardLayout::partition(&sizes, n_shards);
        let reg = stellaris_telemetry::global();
        let all_params: Vec<Tensor> = policy.params().into_iter().cloned().collect();
        let shards = (0..shard_layout.n_shards())
            .map(|s| {
                let blocks = shard_layout.blocks(s).to_vec();
                let params: Vec<Tensor> = blocks.iter().map(|&b| all_params[b].clone()).collect();
                let shard_shapes: Vec<Vec<usize>> =
                    blocks.iter().map(|&b| shapes[b].clone()).collect();
                Mutex::new(ParamShard {
                    blocks,
                    params,
                    optimizer: make_optimizer(),
                    rule: rule.clone(),
                    schedule: rule.make_schedule(),
                    pending: Vec::new(),
                    accumulator: GradAccumulator::new(&shard_shapes),
                    staleness_log: StalenessRing::new(),
                    updates: 0,
                    grads_aggregated: 0,
                    hist: reg.histogram(&format!("stellaris_core_staleness_shard{s}")),
                })
            })
            .collect();
        let n_blocks = layout.n_blocks();
        Self {
            layout,
            shard_layout,
            shards,
            commit_seq: AtomicU64::new(policy.version),
            block_versions: (0..n_blocks)
                .map(|_| AtomicU64::new(policy.version))
                .collect(),
            template: Mutex::new(policy),
            grads_counter: reg.counter("stellaris_core_grads_aggregated_total"),
            global_hist: reg.histogram("stellaris_core_staleness"),
            gate_admitted: reg.counter("stellaris_core_gate_admitted_total"),
            gate_delayed: reg.counter("stellaris_core_gate_delayed_total"),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The flat-vector block geometry.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// How blocks partition across shards.
    pub fn shard_layout(&self) -> &ShardLayout {
        &self.shard_layout
    }

    /// Current global policy clock (one tick per shard commit).
    pub fn clock(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// Per-shard update counts — the version vector. Sums to
    /// `clock() - initial version`.
    pub fn version_vector(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().updates).collect()
    }

    /// Total policy updates (shard commits).
    pub fn updates(&self) -> u64 {
        self.version_vector().iter().sum()
    }

    /// Gradients folded into the policy, counted on shard 0 like
    /// [`Self::staleness_log`]: one per gradient, however many shards fold
    /// it. (`stellaris_core_grads_aggregated_total` counts every
    /// (gradient, shard) fold instead.)
    pub fn grads_aggregated(&self) -> u64 {
        self.shards[0].lock().grads_aggregated
    }

    /// Gradients waiting in shard 0's delay queue (all shards see the same
    /// offers, so with aligned rules the counts agree; shard 0 is the
    /// canonical view).
    pub fn pending(&self) -> usize {
        self.shards[0].lock().pending.len()
    }

    /// Offers a gradient to every shard in order; returns how many shard
    /// commits it triggered. The sequential fan-out is deterministic: with
    /// one shard this is exactly [`ParameterServer::offer`]. Concurrent
    /// callers may instead drive [`Self::offer_to_shard`] per shard from
    /// separate threads — shards lock independently.
    pub fn offer(&self, msg: GradientMsg) -> usize {
        let msg = Arc::new(msg);
        (0..self.shards.len())
            .map(|s| self.offer_to_shard(s, msg.clone()))
            .sum()
    }

    /// Offers a gradient to one shard; returns how many commits it
    /// triggered on that shard.
    pub fn offer_to_shard(&self, s: usize, msg: Arc<GradientMsg>) -> usize {
        let mut sh = self.shards[s].lock();
        debug_assert!(
            msg.base_version <= self.clock(),
            "gradient from the future: base {} > clock {} (staleness would go negative)",
            msg.base_version,
            self.clock()
        );
        let staleness = msg.staleness(self.clock());
        if let Some(sched) = &mut sh.schedule {
            // lint:allow(A2): StalenessSchedule::observe mutates plain fields; the flagged lock edges belong to identically-named recorder/profiler methods
            sched.observe(staleness);
        }
        sh.pending.push(msg);
        let mut applied = 0;
        // lint:allow(A2): shard_try_flush folds into this locked shard only; the flagged Cache lock rides a name collision on `reset`
        while self.shard_try_flush(&mut sh) {
            applied += 1;
        }
        applied
    }

    /// Commits every shard's pending gradients now, without asking the
    /// rule: a synchronous wave that falls short of its `FullSync` quorum
    /// (a gradient was lost, or the round's minibatches ran out) still
    /// steps each shard's own optimizer, so its state (Adam's moments and
    /// step count) carries on into the next wave. Returns the commits made.
    pub fn commit_pending(&self) -> usize {
        let mut commits = 0;
        for shard in &self.shards {
            let mut sh = shard.lock();
            if !sh.pending.is_empty() {
                let batch = std::mem::take(&mut sh.pending);
                // lint:allow(A2): shard_apply folds into this locked shard only; the flagged Cache lock rides a name collision on `reset`
                self.shard_apply(&mut sh, &batch);
                commits += 1;
            }
        }
        commits
    }

    /// One aggregation attempt on a locked shard; true if it committed.
    fn shard_try_flush(&self, sh: &mut ParamShard) -> bool {
        if sh.pending.is_empty() {
            return false;
        }
        let clock = self.clock();
        let staleness: Vec<u64> = sh.pending.iter().map(|m| m.staleness(clock)).collect();
        if !sh.rule.admits(&staleness, sh.schedule.as_ref()) {
            self.gate_delayed.inc();
            return false;
        }
        self.gate_admitted.inc();
        // Per-gradient aggregation rules consume one message per update;
        // batched rules fold the whole queue (same split as the unsharded
        // server).
        let take = match sh.rule {
            AggregationRule::PureAsync | AggregationRule::Ssp { .. } => 1,
            _ => sh.pending.len(),
        };
        let batch: Vec<Arc<GradientMsg>> = sh.pending.drain(..take).collect();
        self.shard_apply(sh, &batch);
        true
    }

    /// Folds a batch into one shard and commits: optimizer step over the
    /// shard's slice, then the version-vector commit — one `commit_seq`
    /// tick stamped onto the shard's blocks.
    fn shard_apply(&self, sh: &mut ParamShard, batch: &[Arc<GradientMsg>]) {
        debug_assert!(!batch.is_empty());
        let clock = self.clock();
        sh.accumulator.reset();
        // lint:allow(L4): batch sizes are far below 2^24, exact in f32
        let h = batch.len() as f32;
        for msg in batch {
            assert_eq!(
                msg.grads.len(),
                self.layout.n_blocks(),
                "gradient layout mismatch from learner {}",
                msg.learner_id
            );
            let delta = msg.staleness(clock);
            sh.staleness_log.push(delta);
            sh.hist.record(delta);
            self.global_hist.record(delta);
            let w = sh.rule.weight(delta) / h;
            let blocks = std::mem::take(&mut sh.blocks);
            sh.accumulator.accumulate_indexed(&msg.grads, &blocks, w);
            sh.blocks = blocks;
        }
        let mut params: Vec<&mut Tensor> = sh.params.iter_mut().collect();
        sh.optimizer.step_refs(&mut params, sh.accumulator.grads());
        // Version-vector commit: one global tick, stamped per block. The
        // shard lock is held, so a concurrent delta pull sees either the
        // whole commit or none of it for this shard's blocks.
        let seq = self.commit_seq.fetch_add(1, Ordering::AcqRel) + 1;
        for &b in &sh.blocks {
            self.block_versions[b].store(seq, Ordering::Release);
        }
        sh.updates += 1;
        sh.grads_aggregated += batch.len() as u64;
        self.grads_counter.add(batch.len() as u64);
    }

    /// Advances every shard's staleness-threshold schedule one round.
    pub fn advance_round(&self) {
        for shard in &self.shards {
            if let Some(s) = &mut shard.lock().schedule {
                // lint:allow(A1): StalenessSchedule::advance_round shares this method's name but mutates plain fields — no recursion, no second acquisition
                s.advance_round(); // lint:allow(A2): same name collision; the schedule takes no locks
            }
        }
    }

    /// Current staleness threshold `β_k` of shard 0 (the canonical view;
    /// all shards observe the same offers).
    pub fn beta(&self) -> Option<f64> {
        self.shards[0]
            .lock()
            .schedule
            .as_ref()
            .and_then(StalenessSchedule::beta)
    }

    /// Mean staleness over shard 0's last `n` aggregated gradients.
    pub fn mean_recent_staleness(&self, n: usize) -> f64 {
        self.shards[0].lock().staleness_log.tail_mean(n)
    }

    /// Shard 0's staleness ledger — one entry per admitted gradient
    /// message, the same series the unsharded server logs.
    pub fn staleness_log(&self) -> StalenessRing {
        self.shards[0].lock().staleness_log.clone()
    }

    /// Snapshot of the full policy: blocks reassembled in flat order,
    /// stamped with the global clock.
    pub fn snapshot(&self) -> PolicySnapshot {
        let mut flat = vec![0.0f32; self.layout.total()];
        for shard in &self.shards {
            let sh = shard.lock();
            for (local, &b) in sh.blocks.iter().enumerate() {
                let off = self.layout.offset(b);
                flat[off..off + self.layout.size(b)].copy_from_slice(sh.params[local].data());
            }
        }
        PolicySnapshot {
            version: self.clock(),
            flat,
        }
    }

    /// The delta a learner at version `v` needs: every block stamped after
    /// `v`, shard-consistently copied. Falls back to a full refresh when
    /// `v` is ahead of the clock (unknown lineage). The returned `to` is
    /// the highest stamp shipped, so an immediate re-pull is empty.
    pub fn delta_since(&self, v: u64) -> PolicyDelta {
        let mut to = self.clock();
        let full = v > to;
        let mut blocks: Vec<BlockUpdate> = Vec::new();
        for shard in &self.shards {
            let sh = shard.lock();
            for (local, &b) in sh.blocks.iter().enumerate() {
                let stamp = self.block_versions[b].load(Ordering::Acquire);
                if full || stamp > v {
                    to = to.max(stamp);
                    blocks.push(BlockUpdate {
                        index: b as u32,
                        data: sh.params[local].data().to_vec(),
                    });
                }
            }
        }
        blocks.sort_by_key(|b| b.index);
        PolicyDelta {
            from: v,
            to,
            full,
            blocks,
        }
    }

    /// Reassembles the canonical `PolicyNet` (template weights replaced by
    /// the shard state, version set to the global clock).
    pub fn policy(&self) -> PolicyNet {
        let snap = self.snapshot();
        let mut policy = self.template.lock().clone();
        policy.load_snapshot(&snap);
        policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellaris_envs::ActionSpace;
    use stellaris_nn::{OptimizerKind, Sgd, Tensor};
    use stellaris_rl::PolicySpec;

    fn tiny_policy(seed: u64) -> PolicyNet {
        PolicyNet::new(
            PolicySpec {
                obs_shape: vec![4],
                action_space: ActionSpace::Continuous { dim: 2, bound: 1.0 },
                hidden: 8,
            },
            seed,
        )
    }

    fn grad_msg(policy: &PolicyNet, learner: usize, base: u64, fill: f32) -> GradientMsg {
        GradientMsg {
            learner_id: learner,
            grads: policy
                .params()
                .iter()
                .map(|p| Tensor::full(p.shape(), fill))
                .collect(),
            base_version: base,
            batch_len: 32,
            is_ratio: 1.0,
            kl: 0.0,
            surrogate: 0.0,
        }
    }

    #[test]
    fn pure_async_applies_immediately() {
        let policy = tiny_policy(0);
        let msg = grad_msg(&policy, 0, 0, 0.1);
        let mut ps = ParameterServer::new(
            policy,
            Box::new(Sgd::new(0.1, 0.0)),
            AggregationRule::PureAsync,
        );
        assert_eq!(ps.offer(msg), 1);
        assert_eq!(ps.clock(), 1);
        assert_eq!(ps.pending(), 0);
    }

    #[test]
    fn sgd_update_moves_params_by_weighted_gradient() {
        let policy = tiny_policy(0);
        let before = policy.flatten();
        let msg = grad_msg(&policy, 0, 0, 1.0);
        let mut ps = ParameterServer::new(
            policy,
            Box::new(Sgd::new(0.5, 0.0)),
            AggregationRule::PureAsync,
        );
        ps.offer(msg);
        let after = ps.policy.flatten();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - 0.5 - a).abs() < 1e-6, "θ' = θ - lr*g: {b} -> {a}");
        }
    }

    #[test]
    fn fullsync_waits_for_group() {
        let policy = tiny_policy(0);
        let m1 = grad_msg(&policy, 0, 0, 1.0);
        let m2 = grad_msg(&policy, 1, 0, 3.0);
        let mut ps = ParameterServer::new(
            policy,
            Box::new(Sgd::new(1.0, 0.0)),
            AggregationRule::FullSync { n: 2 },
        );
        assert_eq!(ps.offer(m1), 0, "must wait for the group");
        assert_eq!(ps.pending(), 1);
        let before = ps.policy.flatten();
        assert_eq!(ps.offer(m2), 1);
        let after = ps.policy.flatten();
        // Plain average of fills 1 and 3 = 2, lr 1.
        assert!((before[0] - 2.0 - after[0]).abs() < 1e-5);
    }

    #[test]
    fn staleness_weights_scale_contributions() {
        let policy = tiny_policy(0);
        let mut ps = ParameterServer::new(
            policy,
            Box::new(Sgd::new(1.0, 0.0)),
            AggregationRule::StalenessAware { d: 1.0, v: 1 },
        );
        // Advance the clock twice with fresh gradients (round 0: unbounded).
        let m = grad_msg(&ps.policy, 0, 0, 0.0);
        ps.offer(m);
        let m = grad_msg(&ps.policy, 0, 1, 0.0);
        ps.offer(m);
        assert_eq!(ps.clock(), 2);
        let before = ps.policy.flatten();
        // A gradient based on version 0 now has staleness 2 -> weight 1/2.
        let stale = grad_msg(&ps.policy, 1, 0, 1.0);
        ps.offer(stale);
        let after = ps.policy.flatten();
        assert!(
            (before[0] - 0.5 - after[0]).abs() < 1e-5,
            "weight 1/δ = 0.5"
        );
        assert_eq!(ps.staleness_log.last(), Some(2));
    }

    #[test]
    fn staleness_threshold_delays_aggregation() {
        let policy = tiny_policy(0);
        let mut ps = ParameterServer::new(
            policy,
            Box::new(Sgd::new(0.1, 0.0)),
            AggregationRule::StalenessAware { d: 0.25, v: 3 },
        );
        // Calibration round: drive the clock to 4 and record δ_max = 4.
        for i in 0..4 {
            let m = grad_msg(&ps.policy, 0, i, 0.01);
            ps.offer(m);
        }
        let stale = grad_msg(&ps.policy, 1, 0, 0.01);
        ps.offer(stale); // staleness 4 observed in round 0 -> δ_max = 4
        ps.advance_round(); // β = 4 * 0.25 = 1
        assert_eq!(ps.beta(), Some(1.0));
        let clock = ps.clock();
        // A gradient 3 versions stale: average 3 > β=1 -> delayed.
        let old = grad_msg(&ps.policy, 2, clock - 3, 0.01);
        assert_eq!(ps.offer(old), 0);
        assert_eq!(ps.pending(), 1);
        // Two fresh gradients pull the average to (3+0+0)/3 = 1 <= β.
        let f1 = grad_msg(&ps.policy, 3, clock, 0.01);
        assert_eq!(ps.offer(f1), 0, "avg (3+0)/2 = 1.5 > 1 still delayed");
        let f2 = grad_msg(&ps.policy, 4, clock, 0.01);
        assert_eq!(ps.offer(f2), 1, "avg (3+0+0)/3 = 1 <= β admits");
        assert_eq!(ps.pending(), 0);
        assert_eq!(ps.grads_aggregated, 8);
    }

    #[test]
    fn softsync_batches_every_c() {
        let policy = tiny_policy(0);
        let mut ps = ParameterServer::new(
            policy,
            Box::new(Sgd::new(0.1, 0.0)),
            AggregationRule::Softsync { c: 3 },
        );
        for i in 0..2 {
            let m = grad_msg(&ps.policy, i, 0, 0.1);
            assert_eq!(ps.offer(m), 0);
        }
        let m = grad_msg(&ps.policy, 2, 0, 0.1);
        assert_eq!(ps.offer(m), 1);
        assert_eq!(ps.updates, 1);
        assert_eq!(ps.grads_aggregated, 3);
    }

    #[test]
    fn optimizer_kind_integration() {
        let policy = tiny_policy(0);
        let mut ps = ParameterServer::new(
            policy,
            OptimizerKind::Adam.build(0.01),
            AggregationRule::PureAsync,
        );
        for i in 0..5 {
            let m = grad_msg(&ps.policy, 0, i, 0.3);
            ps.offer(m);
        }
        assert_eq!(ps.updates, 5);
        assert!(ps.policy.flatten().iter().all(|x| x.is_finite()));
        assert_eq!(ps.mean_recent_staleness(10), 0.0);
    }

    #[test]
    fn staleness_ring_caps_but_counts_everything() {
        let mut ring = StalenessRing::new();
        for i in 0..(StalenessRing::DEFAULT_CAP as u64 + 10) {
            ring.push(i);
        }
        assert_eq!(ring.len(), StalenessRing::DEFAULT_CAP);
        assert_eq!(ring.recorded(), StalenessRing::DEFAULT_CAP as u64 + 10);
        assert_eq!(ring.last(), Some(StalenessRing::DEFAULT_CAP as u64 + 9));
        // Oldest 10 were evicted; the front is sample #10.
        assert_eq!(ring.to_vec()[0], 10);
        assert_eq!(ring.tail_mean(2), StalenessRing::DEFAULT_CAP as f64 + 8.5);
    }

    #[test]
    fn shard_layout_deterministic_and_covering() {
        let sizes = vec![100, 7, 7, 50, 1, 200, 30];
        let a = ShardLayout::partition(&sizes, 3);
        let b = ShardLayout::partition(&sizes, 3);
        assert_eq!(a, b, "pure function of (sizes, n_shards)");
        assert_eq!(a.n_shards(), 3);
        let mut all: Vec<usize> = (0..3).flat_map(|s| a.blocks(s).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..sizes.len()).collect::<Vec<_>>(), "exact cover");
        // Clamps: more shards than blocks, and a single shard is identity.
        assert_eq!(ShardLayout::partition(&sizes, 99).n_shards(), sizes.len());
        let one = ShardLayout::partition(&sizes, 1);
        assert_eq!(one.blocks(0), (0..sizes.len()).collect::<Vec<_>>());
    }

    /// The acceptance-criteria regression: the single-shard configuration
    /// must be bit-for-bit identical to the unsharded `ParameterServer`
    /// on the same seed and offer sequence.
    #[test]
    fn single_shard_bitwise_matches_parameter_server() {
        for rule in [
            AggregationRule::PureAsync,
            AggregationRule::StalenessAware { d: 1.0, v: 1 },
            AggregationRule::Softsync { c: 3 },
            AggregationRule::FullSync { n: 2 },
        ] {
            let mut flat_srv = ParameterServer::new(
                tiny_policy(7),
                OptimizerKind::Adam.build(0.01),
                rule.clone(),
            );
            let sharded = ShardedParameterServer::new(tiny_policy(7), rule.clone(), 1, || {
                OptimizerKind::Adam.build(0.01)
            });
            for i in 0..12u64 {
                // Same message stream: base version trails the flat
                // server's clock (both clocks advance identically).
                let base = flat_srv.clock().saturating_sub(i % 3);
                // lint:allow(L4): tiny integer fills are exact in f32
                let msg = grad_msg(
                    &flat_srv.policy,
                    i as usize % 4,
                    base,
                    0.01 * (i + 1) as f32,
                );
                let a = flat_srv.offer(msg.clone());
                let b = sharded.offer(msg);
                assert_eq!(a, b, "same commits under {rule:?} at step {i}");
                assert_eq!(flat_srv.clock(), sharded.clock());
            }
            let flat_snap = flat_srv.snapshot();
            let shard_snap = sharded.snapshot();
            assert_eq!(flat_snap.version, shard_snap.version);
            assert_eq!(flat_snap.flat.len(), shard_snap.flat.len(), "same geometry");
            for (i, (x, y)) in flat_snap.flat.iter().zip(&shard_snap.flat).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "param {i} diverged under {rule:?}"
                );
            }
            assert_eq!(flat_srv.updates, sharded.updates());
            assert_eq!(flat_srv.grads_aggregated, sharded.grads_aggregated());
            assert_eq!(
                flat_srv.staleness_log.to_vec(),
                sharded.staleness_log().to_vec()
            );
            // The reassembled policy carries the same bits and clock.
            let policy = sharded.policy();
            assert_eq!(policy.version, flat_srv.policy.version);
            for (x, y) in flat_srv.policy.flatten().iter().zip(policy.flatten()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn commit_pending_steps_each_shards_own_optimizer() {
        // A short FullSync wave (2 of 3), committed explicitly, then a full
        // wave: Adam is elementwise, so two shards each stepping their own
        // Adam must equal one Adam over the whole policy stepped on each
        // wave's mean gradient in order.
        let mut reference = tiny_policy(5);
        let sharded = ShardedParameterServer::new(
            reference.clone(),
            AggregationRule::FullSync { n: 3 },
            2,
            || OptimizerKind::Adam.build(0.01),
        );
        let mut adam = OptimizerKind::Adam.build(0.01);
        let mut mean = GradAccumulator::new(&reference.param_shapes());
        for (wave, fills) in [vec![0.3, -0.1], vec![0.2, 0.5, -0.4]].iter().enumerate() {
            let base = sharded.clock();
            mean.reset();
            for (l, &fill) in fills.iter().enumerate() {
                let msg = grad_msg(&reference, l, base, fill);
                mean.accumulate(&msg.grads, 1.0 / fills.len() as f32);
                sharded.offer(msg);
            }
            adam.step_refs(&mut reference.params_mut(), mean.grads());
            let commits = sharded.commit_pending();
            assert_eq!(commits, if wave == 0 { 2 } else { 0 }, "wave {wave}");
        }
        assert_eq!(sharded.pending(), 0);
        assert_eq!(sharded.grads_aggregated(), 5, "one count per gradient");
        assert_eq!(sharded.staleness_log().to_vec(), vec![0, 0, 0, 0, 0]);
        for (x, y) in reference.flatten().iter().zip(&sharded.snapshot().flat) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn multi_shard_commit_advances_version_vector() {
        let policy = tiny_policy(3);
        let sharded =
            ShardedParameterServer::new(policy.clone(), AggregationRule::PureAsync, 4, || {
                Box::new(Sgd::new(0.1, 0.0))
            });
        assert_eq!(sharded.n_shards(), 4.min(policy.param_shapes().len()));
        let n = sharded.n_shards();
        let msg = grad_msg(&policy, 0, 0, 0.5);
        // Full fan-out: every shard commits once, the clock ticks n times.
        assert_eq!(sharded.offer(msg), n);
        assert_eq!(sharded.clock(), n as u64);
        assert_eq!(sharded.version_vector(), vec![1u64; n]);
        assert_eq!(sharded.updates(), n as u64);
        // Every parameter moved: the fan-out covered all blocks.
        let before = policy.flatten();
        let after = sharded.snapshot().flat;
        for (b, a) in before.iter().zip(&after) {
            assert!((b - 0.1 * 0.5 - a).abs() < 1e-6, "θ' = θ - lr*g per block");
        }
    }

    #[test]
    fn delta_since_ships_only_committed_shard() {
        let policy = tiny_policy(9);
        let sharded =
            ShardedParameterServer::new(policy.clone(), AggregationRule::PureAsync, 4, || {
                Box::new(Sgd::new(0.1, 0.0))
            });
        let n = sharded.n_shards();
        assert!(n > 1, "test needs real sharding");
        // A learner in sync at the current clock pulls an empty delta.
        let empty = sharded.delta_since(sharded.clock());
        assert!(empty.is_empty() && !empty.full);
        // Commit on shard 0 only: the delta carries exactly its blocks.
        let msg = Arc::new(grad_msg(&policy, 0, 0, 1.0));
        assert_eq!(sharded.offer_to_shard(0, msg), 1);
        let delta = sharded.delta_since(0);
        assert!(!delta.full);
        assert_eq!(delta.to, sharded.clock());
        let got: Vec<usize> = delta.blocks.iter().map(|b| b.index as usize).collect();
        assert_eq!(got, sharded.shard_layout().blocks(0));
        // A learner claiming a future version gets the full refresh.
        let future = sharded.delta_since(sharded.clock() + 5);
        assert!(future.full);
        assert_eq!(future.blocks.len(), sharded.layout().n_blocks());
        // Applying the partial delta to the stale snapshot reproduces the
        // current full snapshot exactly.
        let mut snap = PolicySnapshot {
            version: 0,
            flat: policy.flatten(),
        };
        stellaris_rl::apply_to_snapshot(&delta, &mut snap, sharded.layout()).unwrap();
        let now = sharded.snapshot();
        assert_eq!(snap.version, now.version);
        for (x, y) in snap.flat.iter().zip(&now.flat) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "gradient layout mismatch")]
    fn layout_mismatch_panics() {
        let policy = tiny_policy(0);
        let mut bad = grad_msg(&policy, 0, 0, 0.1);
        bad.grads.pop();
        let mut ps = ParameterServer::new(
            policy,
            Box::new(Sgd::new(0.1, 0.0)),
            AggregationRule::PureAsync,
        );
        ps.offer(bad);
    }
}
