//! Command-line parsing of the `veridb` binary.

use std::process::{Command, Stdio};

fn veridb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_veridb"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run veridb")
}

#[test]
fn an_unknown_flag_is_refused_with_usage() {
    let out = veridb(&["--verify-threads", "3", "--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--verify-threads"), "stderr: {stderr}");
    assert!(stderr.contains("usage: veridb"), "stderr: {stderr}");
    // The `--flag=value` spelling is refused the same way.
    let out = veridb(&["--verify-threads=3"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn known_flags_take_either_spelling() {
    let out = veridb(&["--workers", "2", "--pool=2", "--help"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: veridb"));
}
