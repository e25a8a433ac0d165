//! The `fm-serve` daemon's argument parser, driven through the real
//! binary. Every invocation binds `--addr no-port`, which cannot
//! resolve: a command line the parser accepts exits 1 with "cannot
//! bind" instead of starting a daemon, so a parser regression fails
//! these tests rather than hanging them.

use std::process::{Command, Output};

fn fm_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fm-serve"))
        .arg("--addr")
        .arg("no-port")
        .args(args)
        .output()
        .expect("run fm-serve")
}

fn refused(args: &[&str], why: &str) {
    let out = fm_serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(why),
        "{args:?}: expected {why:?} in {stderr}"
    );
    assert!(stderr.contains("usage: fm-serve"), "{args:?}: {stderr}");
}

/// All 12 flags at once. The paths are never touched: the bind fails
/// first.
#[test]
fn every_flag_parses_and_reaches_the_bind() {
    let out = fm_serve(&[
        "--workers",
        "1",
        "--threads",
        "1",
        "--queue",
        "8",
        "--deadline-ms",
        "500",
        "--cache",
        "unused-cache-dir",
        "--max-frame",
        "65536",
        "--session-ttl",
        "30",
        "--fleet",
        "127.0.0.1:9",
        "--fleet-connect-ms",
        "50",
        "--fleet-admit",
        "127.0.0.1:10",
        "--fleet-ledger",
        "unused-ledger.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot bind no-port"), "{stderr}");
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for (flag, value) in [
        ("--stream-every", "4"),
        ("--weighted", "on"),
        ("--weight-decay-tunes", "8"),
        ("--dedup", "off"),
        ("--fleet-attempts", "2"),
        ("--fleet-hedge-ms", "0"),
        ("--cliff-fraction", "0.5"),
        ("--cliff-stall-ms", "100"),
    ] {
        refused(
            &["--fleet", "127.0.0.1:9", flag, value],
            &format!("unknown argument \"{flag}\""),
        );
    }
}

#[test]
fn fleet_knobs_without_a_fleet_are_refused() {
    for args in [
        ["--fleet-connect-ms", "50"],
        ["--fleet-admit", "127.0.0.1:10"],
        ["--fleet-ledger", "unused-ledger.json"],
    ] {
        refused(&args, "--fleet-* knobs need --fleet");
    }
}

#[test]
fn malformed_values_are_refused() {
    refused(&["--workers", "many"], "--workers needs a numeric argument");
    refused(
        &["--fleet-connect-ms", "soon"],
        "--fleet-connect-ms needs a numeric argument",
    );
    refused(&["--fleet", ","], "--fleet needs at least one HOST:PORT");
}
