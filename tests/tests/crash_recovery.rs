//! Crash-recovery suite: a child process is killed *at* every durability
//! crash point (and once at an arbitrary instant with SIGKILL), then the
//! survivor's data directory is reopened and must come back consistent —
//! a replayed prefix of the committed history, verified end to end —
//! never silently wrong.
//!
//! The child is this same test binary re-executed with `--exact
//! child_writer`: the `child_writer` "test" is a no-op in a normal run
//! and becomes the victim workload when `VERIDB_CHILD_DIR` is set. The
//! crash itself is `veridb_common::crashpoint` — an `abort()` armed by
//! `VERIDB_CRASH_AT=<point>[:<n>]`, compiled into the WAL append/fsync
//! path and the snapshot/manifest seal path.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use veridb::{Value, VeriDb, VeriDbConfig};

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "veridb-crash-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &Path) -> VeriDbConfig {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.data_dir = Some(dir.display().to_string());
    cfg.group_commit_window_us = 0;
    cfg
}

/// Lay down known committed state: table `t`, rows 1..=5, sealed epoch.
fn baseline(dir: &Path) {
    let db = VeriDb::open(durable_config(dir)).unwrap();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    db.sql("INSERT INTO t VALUES (1),(2),(3),(4),(5)").unwrap();
    db.seal_now().unwrap();
}

/// The victim workload, run in a child process. A no-op unless
/// `VERIDB_CHILD_DIR` points at a data directory.
#[test]
fn child_writer() {
    let Ok(dir) = std::env::var("VERIDB_CHILD_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let db = VeriDb::open(durable_config(&dir)).unwrap();
    if std::env::var("VERIDB_CHILD_SPIN").is_ok() {
        // Keep writing until the parent SIGKILLs us; drop a marker once
        // the first child write is durable so the kill lands mid-stream.
        for k in 10..100_000i64 {
            db.sql(&format!("INSERT INTO t VALUES ({k})")).unwrap();
            if k == 10 {
                std::fs::write(dir.join("child-started"), b"1").unwrap();
            }
        }
        return;
    }
    // Crash-point mode: sequential inserts with periodic seals so every
    // armed point (append, fsync, snapshot, manifest) gets hit. Exiting
    // this loop cleanly means the armed point never fired — the parent
    // treats that as a failure.
    for k in 10..60i64 {
        db.sql(&format!("INSERT INTO t VALUES ({k})")).unwrap();
        if (k - 9) % 10 == 0 {
            db.seal_now().unwrap();
        }
    }
}

fn spawn_child(dir: &Path, crash_at: Option<&str>, spin: bool) -> std::process::Child {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.args(["child_writer", "--exact", "--test-threads=1", "--nocapture"])
        .env("VERIDB_CHILD_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(point) = crash_at {
        cmd.env("VERIDB_CRASH_AT", point);
    }
    if spin {
        cmd.env("VERIDB_CHILD_SPIN", "1");
    }
    cmd.spawn().expect("spawn child workload")
}

/// Reopen the survivor and check the only acceptable outcome: baseline
/// rows intact, child rows a contiguous prefix of the insertion order
/// (each insert was one log record — recovery replays a prefix, so a
/// gap would mean a record was lost *behind* a durable one), the whole
/// store verifies, and new durable writes are accepted.
fn assert_recovered_consistent(dir: &Path) {
    let db = VeriDb::open(durable_config(dir)).unwrap();
    db.verify_now().unwrap();
    let r = db.sql("SELECT id FROM t").unwrap();
    let mut ids: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(i) => i,
            ref v => panic!("unexpected value {v:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert!(
        ids.len() >= 5 && ids[..5] == [1, 2, 3, 4, 5],
        "baseline rows damaged after recovery: {ids:?}"
    );
    for (i, id) in ids[5..].iter().enumerate() {
        assert_eq!(
            *id,
            10 + i as i64,
            "child rows must be a contiguous replayed prefix, got {ids:?}"
        );
    }
    db.sql("INSERT INTO t VALUES (9000)").unwrap();
    let r = db.sql("SELECT id FROM t WHERE id = 9000").unwrap();
    assert_eq!(r.rows.len(), 1, "recovered instance must accept new writes");
}

#[test]
fn crash_at_every_durability_point_recovers_consistent() {
    // `:n` picks the n-th hit so the crash lands mid-stream, with real
    // committed work both before and (attempted) after it.
    for point in [
        "wal-append-buffered:5",
        "wal-pre-write:5",
        "wal-pre-fsync:7",
        "wal-post-fsync:7",
        "seal-snapshot-written:2",
        "seal-manifest-written:2",
    ] {
        let dir = tmpdir("point");
        baseline(&dir);
        let status = spawn_child(&dir, Some(point), false)
            .wait()
            .expect("wait for child");
        assert!(
            !status.success(),
            "{point}: child exited cleanly — the crash point never fired"
        );
        assert_recovered_consistent(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sigkill_mid_write_stream_recovers_consistent() {
    let dir = tmpdir("sigkill");
    baseline(&dir);
    let mut child = spawn_child(&dir, None, true);
    let marker = dir.join("child-started");
    let start = Instant::now();
    while !marker.exists() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "child never started writing"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let it get some distance into the stream, then kill -9: no drop
    // handlers, no WAL flush, torn tail entirely possible.
    std::thread::sleep(Duration::from_millis(100));
    child.kill().expect("SIGKILL child");
    let status = child.wait().expect("reap child");
    assert!(!status.success());
    assert_recovered_consistent(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_then_snapshot_substitution_is_refused_visibly() {
    // Crash during a seal, then let the host swap an older snapshot in
    // under the newest manifest's name: recovery must refuse loudly with
    // RollbackDetected, never serve the stale state.
    let dir = tmpdir("subst");
    baseline(&dir);
    let status = spawn_child(&dir, Some("seal-snapshot-written:2"), false)
        .wait()
        .expect("wait for child");
    assert!(!status.success());
    // The crash left an orphan snapshot with no manifest — recovery
    // rightly ignores that one. The attack that matters targets the
    // newest *manifested* snapshot: swap the oldest sealed state in
    // under its name.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let newest_sealed: u64 = names
        .iter()
        .filter_map(|n| {
            n.strip_prefix("manifest-")?
                .strip_suffix(".sealed")?
                .parse()
                .ok()
        })
        .max()
        .expect("at least one sealed manifest");
    let mut snaps: Vec<&String> = names.iter().filter(|n| n.starts_with("snap-")).collect();
    snaps.sort();
    let oldest_snap = snaps.first().expect("at least one snapshot");
    let target = format!("snap-{newest_sealed:020}.bin");
    assert_ne!(**oldest_snap, target, "need two distinct sealed epochs");
    std::fs::copy(dir.join(oldest_snap), dir.join(&target)).unwrap();
    let err = VeriDb::open(durable_config(&dir)).unwrap_err();
    assert!(
        matches!(err, veridb::Error::RollbackDetected { .. }),
        "substituted snapshot must be refused, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
