//! End-to-end training benchmark for the Stellaris reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlp_async_inproc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs whole training jobs through `train()` or
//! `RemoteFleet::run()` with tracing off and reports the end-to-end
//! metrics. `--trace 1` runs the traced pass: the same jobs with the
//! program's telemetry on (for its overhead and stage table), then every
//! layer timed from outside on the workload's own inputs. Human-readable
//! lines come first; the last line of stdout is one JSON object. Any failed
//! correctness check exits non-zero without that line. See README.md.

mod layers;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stellaris_telemetry as telemetry;

use spans::{median, Recorder};
use workload::{remote_setup, run_job, Job, Workload};

/// Runtime files (worker sockets, span dumps) stay inside the checkout.
const RUN_DIR: &str = ".bench_build/perfbench-run";
/// Timed jobs per run, at least: the reported figure is their median.
const MIN_JOBS: usize = 3;
/// Cold spawn + INIT samples per remote run for `setup_s`.
const REMOTE_SETUPS: usize = 7;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker(&args[1..]);
    }
    match Args::parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The benchmark binary is its own worker process: `RemoteFleet` and
/// `ProcessPool` spawn `<exe> worker --connect ADDR --span-base N
/// --max-frame BYTES`, served here through the public `serve_worker`.
fn worker(args: &[String]) -> ExitCode {
    let Some(addr) = flag(args, "--connect") else {
        eprintln!("perfbench worker: --connect is required");
        return ExitCode::FAILURE;
    };
    let span_base = flag(args, "--span-base").and_then(|v| v.parse().ok());
    let max_frame = flag(args, "--max-frame").and_then(|v| v.parse().ok());
    let stream = match stellaris_serverless::WireStream::connect_addr(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench worker: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let served = stellaris_core::serve_worker(
        stream,
        span_base.unwrap_or(1 << 40),
        max_frame.unwrap_or(stellaris_cache::frame::DEFAULT_MAX_FRAME),
    );
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let usage = "usage: perfbench --workload <mlp_async_inproc|mlp_async_remote|\
                     cnn_sync_serverful> --seed <n> --seconds <n> --trace <0|1>";
        let name = flag(args, "--workload").ok_or(usage)?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let num = |f: &str, default: u64| -> Result<u64, String> {
            flag(args, f).map_or(Ok(default), |v| {
                v.parse()
                    .map_err(|_| format!("{f} expects a whole number, got {v}"))
            })
        };
        let trace = match num("--trace", 0)? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace expects 0 or 1, got {t}")),
        };
        Ok(Self {
            workload,
            seed: num("--seed", 1)?,
            seconds: num("--seconds", 10)?.max(1),
            trace,
        })
    }
}

fn run(args: Args) -> Result<(), String> {
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("cannot create {RUN_DIR}: {e}"))?;
    // Worker sockets are bound under the temp dir: keep them in the
    // checkout, on a short relative path (socket paths are length-capped).
    std::env::set_var("TMPDIR", RUN_DIR);
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot resolve own executable: {e}"))?
        .display()
        .to_string();
    let w = args.workload;
    println!(
        "perfbench: workload {} | seed {} | {} s | trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", fingerprint());
    let budget = Duration::from_secs(args.seconds);
    let out = if args.trace {
        traced(w, args.seed, budget, &exe)?
    } else {
        untraced(w, args.seed, budget, &exe)?
    };
    workload::check_no_children(w.name())?;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// What a run reports in its result line.
struct Output {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Runs timed jobs until the budget is spent and at least `min_jobs` have
/// run. A first, shorter job warms caches and lazy set-up; it is checked
/// but not timed. `traced(i)` says whether job `i` runs with the program's
/// telemetry on.
fn timed_jobs(
    w: Workload,
    seed: u64,
    budget: Duration,
    exe: &str,
    min_jobs: usize,
    traced: impl Fn(usize) -> bool,
) -> Result<Vec<Job>, String> {
    let cfg = w.config(seed);
    let mut warm = cfg.clone();
    warm.rounds = 2;
    run_job(w, &warm, exe)?;
    let t0 = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < min_jobs || t0.elapsed() < budget {
        if traced(jobs.len()) {
            telemetry::enable();
        }
        let job = run_job(w, &cfg, exe);
        telemetry::disable();
        jobs.push(job?);
    }
    if w.deterministic() {
        let first = jobs[0].checksum;
        if let Some(bad) = jobs.iter().position(|j| j.checksum != first) {
            return Err(format!(
                "{}: same-seed jobs 0 and {bad} ended with different weights \
                 (snapshot_checksum {first:016x} vs {:016x})",
                w.name(),
                jobs[bad].checksum
            ));
        }
        println!(
            "check: {} same-seed jobs ended with equal snapshot_checksum {first:016x}",
            jobs.len()
        );
    }
    Ok(jobs)
}

fn med(v: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.collect();
    median(&mut v)
}

/// Highest percentile of `v` with at least ten samples above it, as
/// `(value, percentile)`; `None` below eleven samples.
fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let i = n.checked_sub(11)?;
    Some((s[i], 100.0 * i as f64 / (n - 1).max(1) as f64))
}

fn untraced(w: Workload, seed: u64, budget: Duration, exe: &str) -> Result<Output, String> {
    let cfg = w.config(seed);
    let jobs = timed_jobs(w, seed, budget, exe, MIN_JOBS, |_| false)?;
    report_checks(w, &jobs);
    let setups: Vec<f64> = if w.is_remote() {
        let mut v = Vec::new();
        for _ in 0..REMOTE_SETUPS {
            v.push(remote_setup(&cfg, exe)?.as_secs_f64());
        }
        v
    } else {
        jobs.iter().filter_map(|j| j.setup_s).collect()
    };
    let attempted: u64 = jobs.iter().map(|j| j.attempted).sum();
    let failed: u64 = jobs.iter().map(|j| j.failed).sum();
    let steps = med(jobs.iter().map(|j| j.steps_per_s));
    let grads = med(jobs.iter().map(|j| j.grads_per_s));
    let setup = med(setups.iter().copied());
    let rss = med(jobs.iter().map(|j| j.peak_rss_mb));
    let rounds: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.round_ms.iter().copied())
        .collect();

    println!(
        "end-to-end ({} jobs x {} rounds, tracing off; medians over jobs):",
        jobs.len(),
        cfg.rounds
    );
    let per_job: Vec<String> = jobs
        .iter()
        .map(|j| format!("{:.0}", j.steps_per_s))
        .collect();
    println!("  env_steps_per_s by job: {}", per_job.join(" "));
    let per_setup: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("  setup_ms samples: {}", per_setup.join(" "));
    let row = |name: &str, value: String, unit: &str| println!("  {name:<18} {value:>14} {unit}");
    row("env_steps_per_s", format!("{steps:.1}"), "1/s");
    row("grads_per_s", format!("{grads:.2}"), "1/s");
    if rounds.is_empty() {
        let why = "unavailable: RemoteFleet::run reports no round boundaries";
        println!("  {:<18} {why}", "round_ms_p50");
        println!("  {:<18} {why}", "round_ms_tail");
        println!(
            "  {:<18} unavailable: RemoteRunReport carries no cost",
            "usd_per_1k_steps"
        );
    } else {
        row(
            "round_ms_p50",
            format!("{:.2}", med(rounds.iter().copied())),
            "ms",
        );
        match tail(&rounds) {
            Some((v, p)) => row(
                "round_ms_tail",
                format!("{v:.2}"),
                &format!("ms (p{p:.0} of {} rounds)", rounds.len()),
            ),
            None => println!(
                "  {:<18} unavailable: {} rounds, need 11 for ten beyond a percentile",
                "round_ms_tail",
                rounds.len()
            ),
        }
        let usd = med(jobs.iter().filter_map(|j| j.usd_per_1k_steps));
        row("usd_per_1k_steps", format!("{usd:.3e}"), "USD");
    }
    let setup_what = if w.is_remote() {
        format!("s (cold spawn + INIT of 3 workers, median of {REMOTE_SETUPS})")
    } else {
        format!(
            "s (job start to first round, median of {} jobs)",
            setups.len()
        )
    };
    row("setup_s", format!("{setup:.4}"), &setup_what);
    row(
        "peak_rss_mb",
        format!("{rss:.1}"),
        "MB (VmHWM of the benchmark process per job, median)",
    );
    row(
        "failed_share",
        format!("{:.4}", failed as f64 / attempted.max(1) as f64),
        &format!("({failed} lost after retries of {attempted} attempted)"),
    );
    Ok(Output {
        attempted,
        failed,
        metrics: vec![
            ("env_steps_per_s", steps, "1/s"),
            ("grads_per_s", grads, "1/s"),
            ("setup_s", setup, "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    })
}

fn report_checks(w: Workload, jobs: &[Job]) {
    let short: Vec<String> = jobs
        .iter()
        .map(|j| (j.staged - j.aggregated).to_string())
        .collect();
    println!(
        "check: every job finite, no degraded rounds, no leaked slots, no faults; \
         {} minibatches staged per job, gradients short of them by job: {}",
        jobs[0].staged,
        short.join(" ")
    );
    if w.is_remote() {
        println!("check: no worker process outlived any remote job");
    }
}

fn traced(w: Workload, seed: u64, budget: Duration, exe: &str) -> Result<Output, String> {
    let cfg = w.config(seed);
    // Jobs alternate program telemetry off and on: the rate difference is
    // telemetry's own overhead. Half the budget; the layers take the rest.
    let jobs = timed_jobs(w, seed, budget / 2, exe, 2 * MIN_JOBS, |i| i % 2 == 1);
    let events = telemetry::drain();
    let jobs = jobs?;
    report_checks(w, &jobs);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, job) in jobs.into_iter().enumerate() {
        if i % 2 == 1 {
            traced.push(job);
        } else {
            plain.push(job);
        }
    }
    let rate = |jobs: &[Job]| med(jobs.iter().map(|j| j.steps_per_s));
    let overhead_pct = 100.0 * (rate(&plain) - rate(&traced)) / rate(&plain);

    let mut rec = Recorder::new();
    let extras = layers::run(&cfg, exe, &mut rec)?;
    let stat = |name: &str| {
        rec.stat(name)
            .ok_or_else(|| format!("per-layer pass recorded no {name} span"))
    };
    let act = stat("rl.act")?;
    let step = stat("envs.step")?;
    let collect = stat("rl.collect")?;
    let grad = stat("rl.grad")?;
    let rtt = stat("remote.gradient_rtt")?;

    let all: Vec<&Job> = plain.iter().chain(&traced).collect();
    let rounds: usize = all.iter().map(|j| j.rounds).sum();
    let updates: u64 = all.iter().map(|j| j.policy_updates).sum();
    let staleness: Vec<u64> = all
        .iter()
        .flat_map(|j| j.staleness.iter().copied())
        .collect();
    let (policy_bytes, delta_share, policy_src) =
        match (traced[0].policy_bytes_per_round, traced[0].delta_pull_share) {
            (Some(b), Some(s)) => (b, s, "RemoteRunReport of the traced jobs"),
            _ => (
                extras.replay_policy_bytes,
                extras.replay_delta_share,
                "replay of this pass's updates through DeltaStore",
            ),
        };

    // Each per-layer metric: name, unit, where its value comes from, and
    // the end-to-end metric and workload it is predicted to move.
    use Source::{Span, Value};
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    const PLANE: &str = "grads_per_s, env_steps_per_s on mlp_async_inproc only";
    const WIRE: &str = "grads_per_s, env_steps_per_s on mlp_async_remote only";
    const CNN: &str = "grads_per_s, round_ms_p50 on cnn_sync_serverful; less on the MLPs";
    const SERVER: &str = "grads_per_s on mlp_async_inproc; not cnn_sync_serverful";
    const COUNT: &str = "a count from the jobs' results, not a timing";
    let collect_self_ms =
        (collect.median_ns - cfg.actor_steps as f64 * (act.median_ns + step.median_ns)) / MS;
    let staleness_mean = staleness.iter().sum::<u64>() as f64 / staleness.len().max(1) as f64;
    #[rustfmt::skip]
    let table = [
        ("rl.act_us", "us", Span("rl.act", US), "env_steps_per_s, round_ms_p50 on all three; most on mlp_async_inproc"),
        ("envs.step_us", "us", Span("envs.step", US), "env_steps_per_s, only slightly, on any workload"),
        ("rl.collect_ms", "ms", Span("rl.collect", MS), "env_steps_per_s on all three"),
        ("rl.collect_self_ms", "ms", Value(collect_self_ms), "env_steps_per_s on all three"),
        ("rl.grad_ms", "ms", Span("rl.grad", MS), CNN),
        ("nn.forward_ms", "ms", Span("nn.forward", MS), CNN),
        ("nn.backward_ms", "ms", Span("nn.backward", MS), CNN),
        ("rl.loader_ms", "ms", Span("rl.loader", MS), "none predicted"),
        ("cache.grad_codec_us", "us", Span("cache.grad_codec", US), PLANE),
        ("cache.grad_bytes", "B", Value(extras.grad_bytes), PLANE),
        ("cache.put_take_us", "us", Span("cache.put_take", US), PLANE),
        ("cache.snapshot_publish_us", "us", Span("cache.snapshot_publish", US), PLANE),
        ("cache.lane_push_pop_us", "us", Span("cache.lane_push_pop", US), PLANE),
        ("core.router_send_us", "us", Span("core.router_send", US), SERVER),
        ("core.offer_sharded_us", "us", Span("core.offer_sharded", US), SERVER),
        ("core.offer_classic_us", "us", Span("core.offer_classic", US), "grads_per_s on mlp_async_remote; not cnn_sync_serverful"),
        ("core.snapshot_us", "us", Span("core.snapshot", US), SERVER),
        ("core.updates_per_round", "count", Value(updates as f64 / rounds.max(1) as f64), COUNT),
        ("core.staleness_mean", "count", Value(staleness_mean), COUNT),
        ("core.staleness_max", "count", Value(staleness.iter().copied().max().unwrap_or(0) as f64), COUNT),
        ("serverless.invoke_us", "us", Span("serverless.invoke", US), "env_steps_per_s on both in-process workloads"),
        ("serverless.spawn_ms", "ms", Span("serverless.spawn", MS), "setup_s on mlp_async_remote"),
        ("remote.gradient_rtt_ms", "ms", Span("remote.gradient_rtt", MS), WIRE),
        ("remote.request_bytes", "B", Value(extras.request_bytes), WIRE),
        ("remote.wire_ms", "ms", Value((rtt.median_ns - grad.median_ns) / MS), WIRE),
        ("remote.collect_ms", "ms", Span("remote.collect", MS), WIRE),
        ("remote.policy_bytes_per_round", "B", Value(policy_bytes), "env_steps_per_s on mlp_async_remote only"),
        ("remote.delta_pull_share", "share", Value(delta_share), "env_steps_per_s on mlp_async_remote only (0 today)"),
        ("telemetry.overhead_pct", "%", Value(overhead_pct), "env_steps_per_s traced against untraced, this workload"),
    ];

    println!(
        "per-layer (outside-in spans on this workload's env, model, minibatch {} and seed; \
         median per call, n = spans, self = minus child spans):",
        cfg.minibatch
    );
    let mut metrics = Vec::new();
    for (name, unit, source, moves) in table {
        let (value, timing) = match source {
            Span(span, scale) => {
                let s = stat(span)?;
                let self_v = s.self_ns / scale;
                (
                    s.median_ns / scale,
                    format!("n={:<4} self {self_v:>10.3}", s.count),
                )
            }
            Value(v) => (v, String::from("(derived)")),
        };
        println!("  {name:<30} {value:>12.3} {unit:<5} {timing:<22} moves: {moves}");
        metrics.push((name, value, unit));
    }
    println!(
        "  rl.collect_self_ms = rl.collect - {} x (rl.act + envs.step); remote.wire_ms = \
         remote.gradient_rtt - rl.grad; remote.policy_* from the {policy_src}",
        cfg.actor_steps
    );
    println!(
        "  telemetry: {:.1} steps/s untraced ({} jobs) vs {:.1} traced ({} jobs)",
        rate(&plain),
        plain.len(),
        rate(&traced),
        traced.len()
    );
    stage_table(w, &events, &traced);
    write_dumps(w, seed, &rec, &events)?;

    let attempted = all.iter().map(|j| j.attempted).sum();
    let failed = all.iter().map(|j| j.failed).sum();
    Ok(Output {
        attempted,
        failed,
        metrics,
    })
}

/// A per-layer metric's origin: a span's median per operation, scaled
/// from ns, or a value computed directly.
enum Source {
    Span(&'static str, f64),
    Value(f64),
}

/// The program's own 12-stage attribution of the traced jobs, in ms per
/// round, printed next to the outside-in numbers.
fn stage_table(w: Workload, events: &[telemetry::Event], traced: &[Job]) {
    if w.is_remote() {
        println!(
            "stage table: unavailable on {}: attribution windows only core.round spans and \
             the remote fleet emits fleet.round",
            w.name()
        );
        return;
    }
    let attr_events: Vec<telemetry::AttrEvent> = events
        .iter()
        .map(telemetry::AttrEvent::from_event)
        .collect();
    let attr = telemetry::attribute(&attr_events);
    let rounds = attr.rounds.len().max(1) as f64;
    println!(
        "stage table (program attribution of {} traced jobs: {} round windows, coverage \
         {:.1}%), ms/round blamed | raw:",
        traced.len(),
        attr.rounds.len(),
        100.0 * attr.coverage()
    );
    for (stage, b) in attr.stage_totals() {
        println!(
            "  {:<20} {:>9.2} | {:>9.2}",
            stage.label(),
            b.blamed_us as f64 / 1e3 / rounds,
            b.raw_us as f64 / 1e3 / rounds
        );
    }
}

fn write_dumps(
    w: Workload,
    seed: u64,
    rec: &Recorder,
    events: &[telemetry::Event],
) -> Result<(), String> {
    let base = Path::new(RUN_DIR).join(format!("{}-seed{seed}", w.name()));
    let spans = PathBuf::from(format!("{}.spans.jsonl", base.display()));
    let program = PathBuf::from(format!("{}.program-trace.jsonl", base.display()));
    rec.write_jsonl(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    let mut f = std::fs::File::create(&program)
        .map_err(|e| format!("cannot write {}: {e}", program.display()))?;
    telemetry::write_jsonl(events, &mut f)
        .map_err(|e| format!("cannot write {}: {e}", program.display()))?;
    println!(
        "spans written: {} (benchmark), {} (program)",
        spans.display(),
        program.display()
    );
    Ok(())
}

/// Cores, CPU model and SIMD flags, rustc, and the SIMD features the
/// benchmark was compiled with (the repository's `.cargo/config.toml` asks
/// for `target-cpu=native` when building from the checkout root).
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let flags = field("flags");
    let simd: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| {
            [
                "sse4_2",
                "avx",
                "avx2",
                "fma",
                "avx512f",
                "avx512bw",
                "avx512_vnni",
                "amx_tile",
                "neon",
            ]
            .contains(f)
        })
        .collect();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let compiled: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(n, on)| on.then_some(n))
    .collect();
    format!(
        "nproc {nproc} | cpu {} | simd flags [{}] | {rustc} | compiled for {} with [{}]",
        field("model name"),
        simd.join(" "),
        std::env::consts::ARCH,
        compiled.join(" ")
    )
}
