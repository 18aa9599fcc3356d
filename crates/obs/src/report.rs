//! The run ledger: every finished `TrainResult` serialises into a
//! structured `RunReport` under `runs/*.json`, keyed by config hash +
//! seed, so any two runs — clean vs chaos, controller A vs B — can be
//! diffed offline (`obs diff`) or gated in CI.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use stellaris_core::{TrainConfig, TrainResult};
use stellaris_telemetry::escape_into;
use stellaris_telemetry::RunAttribution;

/// One SLO check evaluated at report time: `value` against `limit`.
#[derive(Clone, Debug)]
pub struct SloVerdict {
    /// Check name (stable key for diffing).
    pub name: &'static str,
    /// Observed value.
    pub value: f64,
    /// Pass threshold (inclusive semantics depend on the check; recorded
    /// for the reader).
    pub limit: f64,
    /// Whether the run satisfied the objective.
    pub pass: bool,
}

/// Compact staleness distribution summary (the Fig. 3b shape in four
/// numbers plus the raw log length).
#[derive(Clone, Debug, Default)]
pub struct StalenessSummary {
    /// Aggregated-gradient count (== `staleness_log.len()`).
    pub count: u64,
    /// Mean staleness.
    pub mean: f64,
    /// Maximum staleness.
    pub max: u64,
    /// Median staleness.
    pub p50: u64,
}

impl StalenessSummary {
    fn from_log(log: &[u64]) -> Self {
        if log.is_empty() {
            return Self::default();
        }
        let mut sorted = log.to_vec();
        sorted.sort_unstable();
        let sum: u64 = sorted.iter().sum();
        StalenessSummary {
            count: sorted.len() as u64,
            mean: sum as f64 / sorted.len() as f64,
            max: *sorted.last().unwrap_or(&0),
            p50: sorted[sorted.len() / 2],
        }
    }
}

/// A structured record of one training run: everything `obs diff` and the
/// ROADMAP ablation harnesses need to compare runs without re-running them.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Config label (`<algo>+<topology>`).
    pub label: String,
    /// Environment name.
    pub env: String,
    /// FNV-1a hash over the full `TrainConfig` (resume snapshot stripped),
    /// so "same config" is checkable across machines.
    pub config_hash: u64,
    /// Master seed.
    pub seed: u64,
    /// Configured rounds.
    pub rounds: u64,
    /// Wall-clock seconds.
    pub wall_time_s: f64,
    /// Final evaluation reward.
    pub final_reward: f64,
    /// Policy updates applied.
    pub policy_updates: u64,
    /// Gradients folded into the policy.
    pub grads_aggregated: u64,
    /// Learner invocations.
    pub learner_invocations: u64,
    /// Cold starts paid.
    pub cold_starts: u64,
    /// Degraded (quorum) rounds.
    pub degraded_rounds: u64,
    /// Slot permits leaked (SLO: must be 0).
    pub slots_leaked: u64,
    /// GPU-slot utilisation.
    pub gpu_utilization: f64,
    /// Total cost, USD.
    pub cost_usd: f64,
    /// Cost slice wasted on failed attempts, USD.
    pub cost_wasted_usd: f64,
    /// Injected faults by class, plus retries (flattened `FaultReport`).
    pub faults: Vec<(&'static str, u64)>,
    /// Staleness distribution summary.
    pub staleness: StalenessSummary,
    /// Trace events dropped by the telemetry sink during the run.
    pub dropped_events: u64,
    /// Per-round critical-path attribution, when a trace was captured.
    pub attribution: Option<RunAttribution>,
    /// SLO verdicts.
    pub slo: Vec<SloVerdict>,
}

/// FNV-1a over the config's `Debug` rendering, with the (potentially
/// megabyte-sized, content-irrelevant) resume snapshot stripped first.
pub fn config_hash(cfg: &TrainConfig) -> u64 {
    let mut stripped = cfg.clone();
    stripped.initial_snapshot = None;
    let repr = format!("{stripped:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl RunReport {
    /// Builds the ledger record for a finished run. `attribution` is
    /// attached when the caller captured a trace (the `obs` bin and the
    /// e2e tests do; headless bench runs may pass `None`).
    pub fn new(cfg: &TrainConfig, res: &TrainResult, attribution: Option<RunAttribution>) -> Self {
        let f = &res.faults;
        let degraded_frac = if cfg.rounds == 0 {
            0.0
        } else {
            res.degraded_rounds as f64 / cfg.rounds as f64
        };
        let dropped = stellaris_telemetry::dropped_events();
        let mut slo = vec![
            SloVerdict {
                name: "no_slot_leak",
                value: res.slots_leaked as f64,
                limit: 0.0,
                pass: res.slots_leaked == 0,
            },
            SloVerdict {
                name: "degraded_round_fraction",
                value: degraded_frac,
                limit: 0.25,
                pass: degraded_frac <= 0.25,
            },
            SloVerdict {
                name: "no_dropped_trace_events",
                value: dropped as f64,
                limit: 0.0,
                pass: dropped == 0,
            },
        ];
        if let Some(attr) = &attribution {
            let cov = attr.coverage();
            slo.push(SloVerdict {
                name: "attribution_coverage",
                value: cov,
                limit: 0.95,
                pass: cov >= 0.95,
            });
        }
        RunReport {
            label: res.label.clone(),
            env: cfg.env_id.name().to_owned(),
            config_hash: config_hash(cfg),
            seed: cfg.seed,
            rounds: cfg.rounds as u64,
            wall_time_s: res.wall_time_s,
            final_reward: f64::from(res.final_reward),
            policy_updates: res.policy_updates,
            grads_aggregated: res.grads_aggregated,
            learner_invocations: res.learner_invocations,
            cold_starts: res.cold_starts,
            degraded_rounds: res.degraded_rounds,
            slots_leaked: res.slots_leaked,
            gpu_utilization: res.gpu_utilization,
            cost_usd: res.cost.total(),
            cost_wasted_usd: res.cost.wasted_usd,
            faults: vec![
                ("injected_failures", f.injected_failures),
                ("injected_crashes", f.injected_crashes),
                ("injected_stragglers", f.injected_stragglers),
                ("frames_dropped", f.frames_dropped),
                ("frames_corrupted", f.frames_corrupted),
                ("retries", f.retries),
                ("exhausted", f.exhausted),
            ],
            staleness: StalenessSummary::from_log(&res.staleness_log),
            dropped_events: dropped,
            attribution,
            slo,
        }
    }

    /// Whether every SLO verdict passed.
    pub fn slo_pass(&self) -> bool {
        self.slo.iter().all(|v| v.pass)
    }

    /// Canonical ledger file name: `<label>-seed<seed>-<hash8>.json`,
    /// label sanitised to `[a-z0-9-]`.
    pub fn file_name(&self) -> String {
        let mut label: String = self
            .label
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        if label.is_empty() {
            label.push('x');
        }
        format!(
            "{label}-seed{}-{:08x}.json",
            self.seed,
            self.config_hash & 0xffff_ffff
        )
    }

    /// Serialises the report as one JSON object.
    pub fn to_json(&self) -> String {
        fn num(out: &mut String, v: f64) {
            if v.is_finite() {
                let _ = write!(out, "{v:.6}");
            } else {
                out.push('0');
            }
        }
        let mut out = String::with_capacity(1024);
        out.push_str("{\"label\":\"");
        escape_into(&mut out, &self.label);
        out.push_str("\",\"env\":\"");
        escape_into(&mut out, &self.env);
        let _ = write!(
            out,
            "\",\"config_hash\":{},\"seed\":{},\"rounds\":{}",
            self.config_hash, self.seed, self.rounds
        );
        out.push_str(",\"wall_time_s\":");
        num(&mut out, self.wall_time_s);
        out.push_str(",\"final_reward\":");
        num(&mut out, self.final_reward);
        let _ = write!(
            out,
            ",\"policy_updates\":{},\"grads_aggregated\":{},\"learner_invocations\":{},\"cold_starts\":{},\"degraded_rounds\":{},\"slots_leaked\":{}",
            self.policy_updates,
            self.grads_aggregated,
            self.learner_invocations,
            self.cold_starts,
            self.degraded_rounds,
            self.slots_leaked
        );
        out.push_str(",\"gpu_utilization\":");
        num(&mut out, self.gpu_utilization);
        out.push_str(",\"cost_usd\":");
        num(&mut out, self.cost_usd);
        out.push_str(",\"cost_wasted_usd\":");
        num(&mut out, self.cost_wasted_usd);
        out.push_str(",\"faults\":{");
        for (i, (k, v)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        let _ = write!(
            out,
            "}},\"staleness\":{{\"count\":{},\"mean\":",
            self.staleness.count
        );
        num(&mut out, self.staleness.mean);
        let _ = write!(
            out,
            ",\"max\":{},\"p50\":{}}}",
            self.staleness.max, self.staleness.p50
        );
        let _ = write!(out, ",\"dropped_events\":{}", self.dropped_events);
        out.push_str(",\"attribution\":");
        match &self.attribution {
            Some(a) => out.push_str(&a.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\"slo\":[");
        for (i, v) in self.slo.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"value\":", v.name);
            num(&mut out, v.value);
            out.push_str(",\"limit\":");
            num(&mut out, v.limit);
            let _ = write!(out, ",\"pass\":{}}}", v.pass);
        }
        let _ = write!(out, "],\"slo_pass\":{}}}", self.slo_pass());
        out
    }

    /// Writes the report under `dir` with its canonical [`Self::file_name`],
    /// returning the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        self.write_named(dir, &self.file_name())
    }

    /// Writes the report under `dir` with an explicit file name.
    pub fn write_named(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Ledger emission hook for harnesses: when `STELLARIS_RUNS_DIR` is set,
/// serialises a report (without attribution — the harness owns the trace)
/// into that directory. Returns the written path, `None` when the env var
/// is unset or the write failed (ledger emission never fails a run).
pub fn maybe_write_report(cfg: &TrainConfig, res: &TrainResult) -> Option<PathBuf> {
    let dir = std::env::var("STELLARIS_RUNS_DIR").ok()?;
    if dir.is_empty() {
        return None;
    }
    let report = RunReport::new(cfg, res, None);
    report.write_to(Path::new(&dir)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellaris_envs::EnvId;

    #[test]
    fn config_hash_is_stable_and_snapshot_blind() {
        let a = TrainConfig::test_tiny(EnvId::PointMass, 7);
        let b = TrainConfig::test_tiny(EnvId::PointMass, 7);
        assert_eq!(config_hash(&a), config_hash(&b));
        let c = TrainConfig::test_tiny(EnvId::PointMass, 8);
        assert_ne!(config_hash(&a), config_hash(&c), "seed is part of the hash");
        let d = TrainConfig::test_tiny(EnvId::ChainMdp, 7);
        assert_ne!(config_hash(&a), config_hash(&d));
    }

    #[test]
    fn staleness_summary_handles_empty_and_typical_logs() {
        let empty = StalenessSummary::from_log(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max, 0);
        let s = StalenessSummary::from_log(&[0, 1, 1, 2, 9]);
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 9);
        assert_eq!(s.p50, 1);
        assert!((s.mean - 2.6).abs() < 1e-9);
    }
}
