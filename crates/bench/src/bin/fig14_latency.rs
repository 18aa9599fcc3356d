//! Fig. 14: latency breakdown of one-round Stellaris training across the
//! six environments. Each run is traced and its round windows are
//! attributed to stages (`stellaris_telemetry::attribution`): blamed time
//! partitions round wall time, so the stage shares and the unattributed
//! line sum to 100 %. The paper's claim: everything outside sampling
//! (rollout) and gradient compute (gemm/backward) adds less than 5% delay.
//!
//! Waiting and evaluation are not on a round's training path: the round
//! gate, policy evaluation, queue-wait (the parameter thread blocks on the
//! gradient queue for the whole round, so it wins every otherwise idle
//! segment, evaluation included) and unattributed gaps are printed on
//! their own line. The overhead share is the blamed time of the remaining
//! stages other than rollout and gemm/backward, over the blamed time of
//! all the remaining stages.
//!
//! Exits non-zero when a run does not yield one round window per round or
//! the trace sink dropped events: the breakdown would then be incomplete.

use std::process::ExitCode;

use stellaris_bench::{banner, write_csv, ExpOpts};
use stellaris_core::frameworks;
use stellaris_envs::EnvId;
use stellaris_telemetry::attribution::ALL_STAGES;
use stellaris_telemetry::Stage;

fn main() -> ExitCode {
    let _telemetry = stellaris_bench::telemetry_from_env();
    let opts = ExpOpts::from_args();
    banner("Fig. 14", "one-round latency breakdown per environment");
    let envs = opts.envs_or(&EnvId::PAPER_SET);
    let mut csv = String::from("env,rounds,wall_ms");
    for stage in ALL_STAGES {
        csv.push_str(&format!(",{}_ms", stage.label().replace(['/', '-'], "_")));
    }
    csv.push_str(",unattributed_ms,coverage,overhead_fraction\n");
    for &env in &envs {
        let mut cfg = opts.apply(frameworks::stellaris(env, 1));
        cfg.rounds = opts.rounds.unwrap_or(2);
        let (res, attr) = stellaris_bench::train_attributed(&cfg);
        let dropped = stellaris_telemetry::dropped_events();
        if attr.rounds.is_empty() || attr.rounds.len() != res.rows.len() || dropped > 0 {
            stellaris_bench::progress!(
                "fig14_latency: {}: {} round windows for {} rounds, {dropped} trace events dropped",
                env.name(),
                attr.rounds.len(),
                res.rows.len()
            );
            return ExitCode::FAILURE;
        }
        let rounds = attr.rounds.len() as f64;
        let per_round_ms = |us: u64| us as f64 / 1e3 / rounds;
        let wall = attr.wall_us();
        let share = |us: u64| us as f64 / wall.max(1) as f64;
        let totals = attr.stage_totals();
        let blamed = |s: Stage| totals.get(&s).map_or(0, |b| b.blamed_us);
        let unattributed: u64 = attr.rounds.iter().map(|r| r.unattributed_us).sum();
        let idle = unattributed
            + blamed(Stage::RoundGate)
            + blamed(Stage::Eval)
            + blamed(Stage::QueueWait);
        let training = wall.saturating_sub(idle);
        let useful = blamed(Stage::Rollout) + blamed(Stage::Compute);
        let overhead = training.saturating_sub(useful) as f64 / training.max(1) as f64;
        stellaris_bench::progress!(
            "\n  {}: {} rounds, {:.3} ms/round, coverage {:.1}%, overhead {:.1}% of the training path",
            env.name(),
            attr.rounds.len(),
            per_round_ms(wall),
            attr.coverage() * 100.0,
            overhead * 100.0
        );
        stellaris_bench::progress!("    {:<20} {:>12} {:>8}", "stage", "ms/round", "share");
        let mut rows: Vec<(&str, u64)> = totals
            .iter()
            .map(|(s, b)| (s.label(), b.blamed_us))
            .filter(|&(_, us)| us > 0)
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows.push(("(unattributed)", unattributed));
        for (label, us) in rows {
            stellaris_bench::progress!(
                "    {label:<20} {:>12.3} {:>7.1}%",
                per_round_ms(us),
                share(us) * 100.0
            );
        }
        stellaris_bench::progress!(
            "    {:<20} {:>12.3} {:>7.1}%  (round-gate + eval + queue-wait + unattributed)",
            "off training path",
            per_round_ms(idle),
            share(idle) * 100.0
        );
        csv.push_str(&format!(
            "{},{},{:.3}",
            env.name(),
            attr.rounds.len(),
            per_round_ms(wall)
        ));
        for stage in ALL_STAGES {
            csv.push_str(&format!(",{:.3}", per_round_ms(blamed(stage))));
        }
        csv.push_str(&format!(
            ",{:.3},{:.4},{:.4}\n",
            per_round_ms(unattributed),
            attr.coverage(),
            overhead
        ));
    }
    write_csv("fig14_latency.csv", &csv);
    stellaris_bench::progress!("\nExpected shape (paper): sampling + gradient compute dominate;");
    stellaris_bench::progress!("every other stage together stays below ~5%.");
    ExitCode::SUCCESS
}
