//! A bad command line is a usage error (exit 2, one `error:` line and the
//! usage on stderr), not a panic with a backtrace.

use std::process::Command;

/// Runs `bin` with `args` and asserts a usage error whose stderr contains
/// `want` and the usage line of `usage`.
fn assert_usage_error(bin: &str, usage: &str, args: &[&str], want: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(
        stderr.contains(&format!("error: {want}")),
        "{args:?}: stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("usage: {usage}")),
        "{args:?}: stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "{args:?}: stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: printed a row before rejecting the command line"
    );
}

#[test]
fn unknown_flag_exits_2_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_repro_kernels");
    assert_usage_error(
        bin,
        "repro_kernels",
        &["--bogus"],
        "unknown argument --bogus",
    );
}

#[test]
fn flag_without_value_exits_2_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_repro_kernels");
    assert_usage_error(bin, "repro_kernels", &["--out"], "--out needs a value");
}

#[test]
fn repro_rejects_an_unknown_row() {
    let bin = env!("CARGO_BIN_EXE_repro");
    assert_usage_error(bin, "repro", &["fig10"], "unknown row fig10");
    // A known row does not excuse an unknown one after it.
    assert_usage_error(bin, "repro", &["fig3", "fig10"], "unknown row fig10");
}

#[test]
fn repro_rejects_a_flag_the_row_does_not_read() {
    let bin = env!("CARGO_BIN_EXE_repro");
    assert_usage_error(
        bin,
        "repro",
        &["cpu_comparison", "--quick"],
        "--quick is not a flag of `repro cpu_comparison`",
    );
    // Every row named must read every flag given.
    assert_usage_error(
        bin,
        "repro",
        &["fig3", "table1", "--quick"],
        "--quick is not a flag of `repro table1`",
    );
    assert_usage_error(
        bin,
        "repro",
        &["all", "--quick"],
        "`repro all` takes no other argument",
    );
}

#[test]
fn repro_rejects_a_flag_without_a_value() {
    let bin = env!("CARGO_BIN_EXE_repro");
    assert_usage_error(
        bin,
        "repro",
        &["table1", "--carbons"],
        "--carbons needs a value",
    );
    assert_usage_error(
        bin,
        "repro",
        &["trace", "--tiling", "v4"],
        "--tiling: unknown tiling v4",
    );
}
