//! Training metrics: per-round rows (matching the artifact's CSV schema)
//! and CSV output.
//!
//! The Fig. 14 latency breakdown is not kept here: the engines open plain
//! `core.<stage>` telemetry spans, and `stellaris_telemetry::attribution`
//! blames each round's wall time on the stages those spans name.

/// One training round's record. Columns mirror the paper artifact's output
/// CSV: "training round index, round duration, number of learner functions
/// invoked per training iteration, episodes executed, evaluation rewards,
/// staleness, and training cost".
#[derive(Clone, Copy, Debug)]
pub struct TrainRow {
    /// Round index (0-based).
    pub round: usize,
    /// Wall-clock seconds since training start.
    pub wall_time_s: f64,
    /// Seconds spent in this round.
    pub round_duration_s: f64,
    /// Learner-function invocations during this round.
    pub learner_invocations: u64,
    /// Episodes completed during this round.
    pub episodes: u64,
    /// Evaluation episodic reward at round end.
    pub reward: f32,
    /// Mean staleness of gradients aggregated this round.
    pub mean_staleness: f64,
    /// Cumulative training cost (USD) so far.
    pub cost_usd: f64,
    /// Learner-side share of the cumulative cost.
    pub learner_cost_usd: f64,
    /// Actor-side share of the cumulative cost.
    pub actor_cost_usd: f64,
    /// Policy updates performed so far.
    pub policy_updates: u64,
    /// Mean KL divergence between successive round policies (Fig. 3c).
    pub policy_kl: f32,
}

impl TrainRow {
    /// CSV header matching [`TrainRow::to_csv`].
    pub const CSV_HEADER: &'static str = "round,wall_time_s,round_duration_s,learner_invocations,episodes,reward,mean_staleness,cost_usd,learner_cost_usd,actor_cost_usd,policy_updates,policy_kl";

    /// Serialises as one CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{:.3},{:.3},{},{},{:.3},{:.3},{:.8},{:.8},{:.8},{},{:.6}",
            self.round,
            self.wall_time_s,
            self.round_duration_s,
            self.learner_invocations,
            self.episodes,
            self.reward,
            self.mean_staleness,
            self.cost_usd,
            self.learner_cost_usd,
            self.actor_cost_usd,
            self.policy_updates,
            self.policy_kl,
        )
    }
}

/// Writes rows to a CSV string (and optionally a file).
pub fn rows_to_csv(rows: &[TrainRow]) -> String {
    let mut out = String::from(TrainRow::CSV_HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&r.to_csv());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> TrainRow {
        TrainRow {
            round: 2,
            wall_time_s: 10.5,
            round_duration_s: 5.25,
            learner_invocations: 12,
            episodes: 34,
            reward: 123.4,
            mean_staleness: 1.5,
            cost_usd: 0.01,
            learner_cost_usd: 0.007,
            actor_cost_usd: 0.003,
            policy_updates: 9,
            policy_kl: 0.002,
        }
    }

    #[test]
    fn csv_roundtrips_field_count() {
        let line = row().to_csv();
        assert_eq!(
            line.split(',').count(),
            TrainRow::CSV_HEADER.split(',').count()
        );
        let csv = rows_to_csv(&[row(), row()]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("round,"));
    }
}
