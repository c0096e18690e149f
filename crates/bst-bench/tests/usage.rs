//! A bad command line is a usage error (exit 2, one `error:` line and the
//! usage on stderr), not a panic with a backtrace.

use std::process::Command;

#[test]
fn unknown_flag_exits_2_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_kernels"))
        .arg("--bogus")
        .output()
        .expect("spawn repro_kernels");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("error: unknown argument --bogus"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: repro_kernels"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
}

#[test]
fn flag_without_value_exits_2_without_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_kernels"))
        .arg("--out")
        .output()
        .expect("spawn repro_kernels");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --out needs a value"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
}
