//! `--json` stdout is exactly one JSON document, even when `--out` (or
//! `--profile-out`) also writes the report to a file: the `wrote FILE`
//! note goes to stderr, so `charon-cli … --json > x.json` always yields a
//! file `check-json` accepts.

use charon::sim::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("charon-cli-{}-{name}", std::process::id()))
}

/// Runs the CLI with `args` plus `--json` and an output-file flag, and
/// checks both stdout and the file hold the same single JSON document.
fn assert_json_stdout(args: &[&str], out_flag: &str, name: &str) {
    let path = scratch(name);
    let path_str = path.to_str().expect("utf8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_charon-cli"))
        .args(args)
        .args(["--json", out_flag, path_str])
        .output()
        .expect("charon-cli spawns");
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{args:?} failed: {stderr}");
    let doc = Json::parse(stdout.trim_end())
        .unwrap_or_else(|e| panic!("{args:?} stdout is not one JSON document ({e}):\n{stdout}"));
    assert!(stderr.contains(&format!("wrote {path_str}")), "{args:?}: the wrote note belongs on stderr: {stderr}");
    let written = std::fs::read_to_string(&path).expect("report file written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(Json::parse(&written).expect("file is JSON"), doc, "{args:?}: stdout and file disagree");
}

#[test]
fn chaos_json_stdout_is_one_document() {
    assert_json_stdout(
        &["chaos", "BS", "--sites", "link,bitmap", "--rates", "0.2", "--steps", "2"],
        "--out",
        "chaos.json",
    );
}

#[test]
fn fleet_json_stdout_is_one_document() {
    assert_json_stdout(&["fleet", "--tenants", "2", "--mix", "BS", "--steps", "1"], "--out", "fleet.json");
    assert_json_stdout(&["fleet", "--tenants", "1", "--mix", "BS", "--steps", "1"], "--out", "fleet1.json");
}

#[test]
fn autotune_json_stdout_is_one_document() {
    assert_json_stdout(&["autotune", "BS", "--policy", "static", "--steps", "1"], "--out", "autotune.json");
}

#[test]
fn profile_json_stdout_is_one_document() {
    assert_json_stdout(&["profile", "BS", "--steps", "1"], "--profile-out", "profile.json");
}

#[test]
fn trend_report_json_stdout_is_one_document() {
    let ledger = concat!(env!("CARGO_MANIFEST_DIR"), "/HISTORY_fixture.json");
    assert_json_stdout(&["trend", "report", ledger], "--out", "trend.json");
}
