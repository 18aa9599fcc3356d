//! End-to-end tests of the `stellaris` command-line interface.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stellaris"))
}

#[test]
fn train_eval_checkpoint_roundtrip() {
    let dir = std::env::temp_dir();
    let ckpt = dir.join(format!("cli_test_{}.ckpt", std::process::id()));
    let csv = dir.join(format!("cli_test_{}.csv", std::process::id()));

    let out = bin()
        .args([
            "train",
            "--env",
            "PointMass",
            "--rounds",
            "3",
            "--actors",
            "2",
            "--learners",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("train must run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("final reward"), "{stdout}");
    assert!(stdout.contains("wrote trained checkpoint"));
    let csv_content = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_content.starts_with("round,"));
    assert_eq!(csv_content.lines().count(), 4, "header + 3 rounds");

    let out = bin()
        .args([
            "eval",
            "--env",
            "PointMass",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--episodes",
            "2",
        ])
        .output()
        .expect("eval must run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("mean episodic reward"));

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&csv).ok();
}

#[test]
fn simulate_reports_virtual_time_and_cost() {
    let out = bin()
        .args(["simulate", "--rounds", "3"])
        .output()
        .expect("simulate must run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("virtual time"));
    assert!(stdout.contains("cost $"));
}

#[test]
fn envs_lists_paper_set() {
    let out = bin().arg("envs").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "Hopper",
        "Walker2d",
        "Humanoid",
        "SpaceInvaders",
        "Qbert",
        "Gravitar",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_env_fails_cleanly() {
    let out = bin()
        .args(["train", "--env", "DoesNotExist"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown environment"));
}

/// Runs a command that must be refused as a usage error: exit code 1 (not a
/// panic's 101) and a stderr line naming the offending flag.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = bin().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
}

#[test]
fn zero_worker_counts_are_usage_errors() {
    let train = ["train", "--env", "PointMass", "--rounds", "1"];
    let cases: [(&[&str], &str); 4] = [
        (&["--rule", "sync", "--actors", "0"], "--actors"),
        (&["--actors", "0"], "--actors"),
        (&["--learners", "0"], "--learners"),
        (&["--rule", "sync", "--learners", "0"], "--learners"),
    ];
    for (extra, flag) in cases {
        assert_usage_error(&[&train[..], extra].concat(), flag);
    }
    assert_usage_error(
        &["remote", "--rounds", "1", "--learners", "0"],
        "--learners",
    );
}

#[test]
fn unparsable_numbers_are_usage_errors() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["train", "--env", "PointMass", "--rounds", "abc"],
            "--rounds",
        ),
        (
            &["train", "--env", "PointMass", "--actors", "-2"],
            "--actors",
        ),
        (&["simulate", "--rounds", "1.5"], "--rounds"),
        (&["eval", "--checkpoint", "x.ckpt", "--seed", "s"], "--seed"),
    ];
    for (args, flag) in cases {
        assert_usage_error(args, flag);
    }
}
