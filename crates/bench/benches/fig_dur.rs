//! Durability cost and recovery speed: what the endorsed log charges per
//! protected write, what group commit buys back, and how fast a restart
//! returns to a verified, queryable state.
//!
//! Cells:
//!
//! - `write/ephemeral`   — protected single-row INSERTs, no log (baseline).
//! - `write/durable-sync`— same writes, MAC-chained WAL, fsync per commit
//!   (`group_commit_window_us = 0`): the worst-case durability tax.
//! - `write/durable-group/4w` — 4 concurrent writers under a 200 µs group
//!   commit window: one fsync endorses many records, so per-write cost
//!   amortizes while each writer still waits for *its* record to be
//!   durable.
//! - `recover/tail-replay` — reopen the synced directory with an unsealed
//!   log tail: the whole history replays through the protected write path
//!   (chain verified, `h(WS)` rebuilt).
//! - `seal/snapshot` + `recover/snapshot` — seal an epoch, reopen: the
//!   snapshot loads under its sealed manifest and only the empty tail
//!   replays.
//!
//! Correctness is asserted at every step (recovered row counts, full
//! verification pass); numbers land in `BENCH_dur.json`.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;
use veridb::{Value, VeriDb, VeriDbConfig};
use veridb_bench::{counter, f1, scale_from_env, summarize, FigureTable, OpSummary, Scale};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veridb-figdur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(data_dir: Option<&PathBuf>, window_us: u64) -> VeriDbConfig {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.data_dir = data_dir.map(|d| d.display().to_string());
    cfg.group_commit_window_us = window_us;
    cfg
}

/// Sequential single-row INSERTs `base..base+n`; per-op latencies in s.
fn insert_rows(db: &VeriDb, base: i64, n: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(n);
    for k in 0..n as i64 {
        let start = Instant::now();
        db.sql(&format!("INSERT INTO t VALUES ({}, 'payload')", base + k))
            .unwrap();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples
}

fn main() {
    let scale = scale_from_env();
    let rows: usize = match scale {
        Scale::Paper => 20_000,
        Scale::Small => 1_500,
    };
    println!("Durability sweep — {rows} protected writes per cell (scale {scale:?})");
    let mut t = FigureTable::new(
        "Durability: endorsed-log write tax, group commit amortization, \
         and recovery (tail replay vs sealed snapshot)",
        &[
            "cell",
            "ops",
            "p50 us",
            "p95 us",
            "ops/s",
            "fsyncs",
            "batch avg",
        ],
    );
    let mut summaries: Vec<OpSummary> = Vec::new();
    let cell = |t: &mut FigureTable,
                summaries: &mut Vec<OpSummary>,
                name: &str,
                samples: &[f64],
                wall: f64,
                fsyncs: u64,
                batch_avg: f64| {
        let s = summarize(name, samples, wall, samples.len());
        t.row(vec![
            name.to_owned(),
            samples.len().to_string(),
            f1(s.p50_us),
            f1(s.p95_us),
            f1(s.throughput_per_s),
            fsyncs.to_string(),
            if batch_avg > 0.0 {
                format!("{batch_avg:.1}")
            } else {
                "-".to_owned()
            },
        ]);
        summaries.push(s);
    };

    // --- Ephemeral baseline. ---
    {
        let db = VeriDb::open(config(None, 0)).unwrap();
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        let wall = Instant::now();
        let samples = insert_rows(&db, 0, rows);
        cell(
            &mut t,
            &mut summaries,
            "write/ephemeral",
            &samples,
            wall.elapsed().as_secs_f64(),
            0,
            0.0,
        );
    }

    // --- Durable, fsync per commit. Keep the directory for recovery. ---
    let sync_dir = tmpdir("sync");
    {
        let db = VeriDb::open(config(Some(&sync_dir), 0)).unwrap();
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        let wall = Instant::now();
        let samples = insert_rows(&db, 0, rows);
        let fsyncs = counter(&db, "log.fsync_us.count");
        cell(
            &mut t,
            &mut summaries,
            "write/durable-sync",
            &samples,
            wall.elapsed().as_secs_f64(),
            fsyncs,
            0.0,
        );
        // Dropped unsealed: the WAL flushes, but recovery below must
        // replay the full tail.
    }

    // --- Durable, 4 writers under a 200 µs group commit window. ---
    {
        const WRITERS: usize = 4;
        let dir = tmpdir("group");
        let db = VeriDb::open(config(Some(&dir), 200)).unwrap();
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        let per = rows / WRITERS;
        let barrier = Barrier::new(WRITERS);
        let wall = Instant::now();
        let all: Vec<Vec<f64>> = std::thread::scope(|s| {
            (0..WRITERS)
                .map(|w| {
                    let db = &db;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        insert_rows(db, (w * per) as i64, per)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let wall = wall.elapsed().as_secs_f64();
        let fsyncs = counter(&db, "log.fsync_us.count");
        let batches = counter(&db, "log.group_commit_batch.count");
        let batched = counter(&db, "log.group_commit_batch.sum");
        let batch_avg = if batches > 0 {
            batched as f64 / batches as f64
        } else {
            0.0
        };
        let samples: Vec<f64> = all.into_iter().flatten().collect();
        cell(
            &mut t,
            &mut summaries,
            "write/durable-group/4w",
            &samples,
            wall,
            fsyncs,
            batch_avg,
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Recovery: full tail replay of the synced directory. ---
    let expect_rows = |db: &VeriDb, n: usize| {
        let r = db.sql("SELECT COUNT(id) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(n as i64), "recovery lost rows");
    };
    let sealed_db = {
        let start = Instant::now();
        let db = VeriDb::open(config(Some(&sync_dir), 0)).unwrap();
        let replay = start.elapsed().as_secs_f64();
        expect_rows(&db, rows);
        db.verify_now().unwrap();
        cell(
            &mut t,
            &mut summaries,
            "recover/tail-replay",
            &[replay],
            replay,
            0,
            0.0,
        );
        println!("  tail replay: {rows} record(s) re-executed through the protected path");
        db
    };

    // --- Seal an epoch, then recover from the snapshot. ---
    {
        let start = Instant::now();
        sealed_db.seal_now().unwrap();
        let seal = start.elapsed().as_secs_f64();
        cell(
            &mut t,
            &mut summaries,
            "seal/snapshot",
            &[seal],
            seal,
            0,
            0.0,
        );
        drop(sealed_db);
        let start = Instant::now();
        let db = VeriDb::open(config(Some(&sync_dir), 0)).unwrap();
        let snap = start.elapsed().as_secs_f64();
        expect_rows(&db, rows);
        db.verify_now().unwrap();
        cell(
            &mut t,
            &mut summaries,
            "recover/snapshot",
            &[snap],
            snap,
            0,
            0.0,
        );
    }
    let _ = std::fs::remove_dir_all(&sync_dir);

    t.note("durable-sync pays one fsync per commit; the group window amortizes it.");
    t.note("Both recovery paths end verified: counts checked, full verification pass run.");
    t.print();
    veridb_bench::write_bench_summary("dur", &summaries);
}
