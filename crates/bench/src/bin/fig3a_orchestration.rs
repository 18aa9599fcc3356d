//! Fig. 3(a): dynamic learner orchestration characterisation — learning
//! time and GPU utilisation over a learners x actors grid (PPO, Hopper).
//! Learning time is the round wall time the stage attribution blames on
//! gradient compute (gemm/backward), per round. More learners cut
//! learning time at high actor counts but waste GPU at low counts,
//! motivating dynamic learner allocation.

use stellaris_bench::{banner, write_csv, ExpOpts};
use stellaris_core::frameworks;
use stellaris_envs::EnvId;
use stellaris_telemetry::Stage;

fn main() {
    let _telemetry = stellaris_bench::telemetry_from_env();
    let opts = ExpOpts::from_args();
    banner(
        "Fig. 3a",
        "learning time & GPU utilisation vs learners x actors",
    );
    // Paper grid: learners {2,4,6,8} x actors {8,16,24,32}; scaled down by
    // default so the sweep stays in CPU budget.
    let (learners, actors) = if opts.paper_scale {
        (vec![2usize, 4, 6, 8], vec![8usize, 16, 24, 32])
    } else {
        (vec![1usize, 2, 4], vec![2usize, 4, 8])
    };
    let mut csv = String::from("learners,actors,learning_ms_per_round,gpu_utilization\n");
    stellaris_bench::progress!(
        "  {:>8} {:>7} {:>17} {:>16}",
        "learners",
        "actors",
        "learning(ms/rnd)",
        "gpu-utilization"
    );
    for &l in &learners {
        for &a in &actors {
            let mut cfg = frameworks::stellaris(EnvId::Hopper, 1);
            cfg = opts.apply(cfg);
            cfg.max_learners = l;
            cfg.n_actors = a;
            cfg.rounds = opts.rounds.unwrap_or(3);
            cfg.round_timesteps = a * cfg.actor_steps;
            let (res, attr) = stellaris_bench::train_attributed(&cfg);
            let compute_us = attr
                .stage_totals()
                .get(&Stage::Compute)
                .map_or(0, |b| b.blamed_us);
            let learning_ms = compute_us as f64 / 1e3 / attr.rounds.len().max(1) as f64;
            stellaris_bench::progress!(
                "  {l:>8} {a:>7} {learning_ms:>17.2} {:>16.3}",
                res.gpu_utilization
            );
            csv.push_str(&format!(
                "{l},{a},{learning_ms:.3},{:.4}\n",
                res.gpu_utilization
            ));
        }
    }
    write_csv("fig3a_orchestration.csv", &csv);
    stellaris_bench::progress!(
        "\nExpected shape (paper): learning time falls with more learners at"
    );
    stellaris_bench::progress!(
        "large actor counts; GPU utilisation falls with more learners at small counts."
    );
}
