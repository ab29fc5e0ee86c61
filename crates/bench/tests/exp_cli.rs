//! The `exp` binary's command line: bad arguments run nothing, and
//! stdout carries only an experiment's deterministic lines.

use neuropuls_bench::{experiments, Scale};
use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp binary runs")
}

#[test]
fn unknown_flag_exits_2_and_runs_nothing() {
    let out = exp(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: exp"), "{stderr}");
    assert!(stderr.contains("E1b"), "usage lists the ids: {stderr}");
}

#[test]
fn unknown_id_exits_2_and_runs_nothing() {
    let out = exp(&["E99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn named_run_prints_only_the_stable_lines() {
    let out = exp(&["--smoke", "E3"]);
    assert!(out.status.success());
    let expected = experiments::table1::run(Scale::Smoke).0;
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected.stable_string()
    );
    // E3's host cost line goes to stderr only.
    let stderr = String::from_utf8_lossy(&out.stderr);
    for line in expected.volatile_lines() {
        let label = &line[..line.find(':').unwrap_or(line.len())];
        assert!(stderr.contains(label), "{label:?} missing from {stderr}");
    }
}
