//! Figure 12 (scaling panel) — morsel-driven multi-thread execution of
//! verified scans.
//!
//! Runs the TPC-H analytical mix (Q1, Q6, Q3) with RS/WS maintenance on,
//! sweeping the worker-pool size over 1/2/4/8. Each worker executes
//! verified scans over its own key-range morsels; every batched page read
//! folds its digests under its page's RS/WS partition mutex, like every
//! other protected op, so the parallel runs do exactly the same §5.2
//! completeness checks as the serial one — the table asserts result
//! equivalence at every pool size before reporting a speedup. The
//! `lock_wait_ms` column is the time workers spent blocked on those
//! partition mutexes: it is what would grow if scans re-serialised on them.
//!
//! Scaling gate: on hosts with ≥ 4 cores the bench *fails* (non-zero
//! exit) if Q1 at 8 workers does not reach 2× its 1-worker throughput, or
//! Q3 2.5×. Hosts with fewer cores skip the gate (the pool adds
//! scheduling overhead instead of parallelism there) and only check
//! equivalence.

use std::time::Instant;
use veridb::{Metric, PlanOptions, VeriDb, VeriDbConfig};
use veridb_bench::{f1, rows_equivalent, scale_from_env, summarize, tpch_config, FigureTable};
use veridb_workloads::tpch::{self, TpchData};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Timed repetitions per (query, workers) cell for the p50/p95 summary.
const SAMPLES: usize = 3;
/// Minimum Q1 speedup at 8 workers on a multi-core host (gate).
const MIN_Q1_8W_SPEEDUP: f64 = 2.0;
/// Minimum Q3 speedup at 8 workers on a multi-core host (gate): the
/// work-stealing scheduler, partitioned join build, and parallel sort
/// tail must keep the post-scan pipeline off the serial path.
const MIN_Q3_8W_SPEEDUP: f64 = 2.5;

fn main() {
    let scale = scale_from_env();
    let cfg = tpch_config(scale);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Figure 12 scaling — lineitem: {} rows, part: {} rows, workers {WORKER_COUNTS:?} \
         (scale {scale:?}, host cores: {cores})",
        cfg.lineitem_rows, cfg.part_rows,
    );
    let data = TpchData::generate(&cfg);

    let mut v_cfg = VeriDbConfig::rsws();
    v_cfg.verify_every_ops = None;
    // Pin the shared scheduler pool to the sweep's widest DOP so the
    // worker sweep measures per-query parallelism, not pool sizing (and
    // stays comparable with the per-query-pool numbers of earlier runs).
    v_cfg.pool_threads = *WORKER_COUNTS.iter().max().expect("non-empty sweep");
    let db = VeriDb::open(v_cfg).expect("open");
    data.load(&db).expect("load");

    let opts = PlanOptions::default();
    let cases = [("Q1", tpch::q1()), ("Q6", tpch::q6()), ("Q3", tpch::q3())];

    let mut t = FigureTable::new(
        "Figure 12 scaling: TPC-H under morsel-driven parallel execution \
         (time in ms; speedup vs 1 worker)",
        &[
            "query",
            "workers",
            "time",
            "speedup",
            "morsels",
            "steals",
            "lock_wait_ms",
            "rows",
        ],
    );
    let mut summaries = Vec::new();
    let mut q1_8w_speedup = None;
    let mut q3_8w_speedup = None;
    for (name, sql) in cases {
        let mut serial: Option<(f64, Vec<veridb::Row>)> = None;
        for w in WORKER_COUNTS {
            db.set_workers(w);
            // Warm-up (faults page maps in, primes caches).
            let _ = db.sql_with(sql, &opts).expect("query");
            let before = db.metrics();
            let mut samples = Vec::with_capacity(SAMPLES);
            let mut r = None;
            let wall_start = Instant::now();
            for _ in 0..SAMPLES {
                let start = Instant::now();
                r = Some(db.sql_with(sql, &opts).expect("query"));
                samples.push(start.elapsed().as_secs_f64());
            }
            let wall = wall_start.elapsed().as_secs_f64();
            let r = r.expect("at least one sample ran");
            let secs = veridb_bench::percentile(&samples, 0.5);
            let delta = db.metrics().since(&before);
            let (base_secs, base_rows) = match &serial {
                None => {
                    serial = Some((secs, r.rows.clone()));
                    (secs, &serial.as_ref().expect("just set").1)
                }
                Some((s, rows)) => (*s, rows),
            };
            assert!(
                rows_equivalent(&r.rows, base_rows),
                "{name} at {w} workers must return the serial result"
            );
            let speedup = base_secs / secs;
            if name == "Q1" && w == 8 {
                q1_8w_speedup = Some(speedup);
            }
            if name == "Q3" && w == 8 {
                q3_8w_speedup = Some(speedup);
            }
            let mut s = summarize(&format!("{name}/workers={w}"), &samples, wall, SAMPLES);
            s.speedup_vs_1w = Some(speedup);
            summaries.push(s);
            t.row(vec![
                name.to_string(),
                w.to_string(),
                f1(secs * 1e3),
                format!("{speedup:.2}x"),
                delta.get(Metric::MorselsDispatched).to_string(),
                delta.get(Metric::MorselsStolen).to_string(),
                f1(delta.get(Metric::PartLockWaitNs) as f64 / 1e6),
                r.rows.len().to_string(),
            ]);
        }
    }
    db.set_workers(1);
    db.verify_now().expect("post-run verification must pass");
    t.note(
        "Results verified identical at every pool size; a full RSWS \
         verification pass ran clean after the sweep.",
    );
    t.note(
        "lock_wait_ms: time blocked on RS/WS partition mutexes over the timed \
         samples (wrcm.part_lock_wait_ns); scans, point ops and the verifier \
         all fold under them.",
    );
    t.print();
    veridb_bench::write_bench_summary("scaling", &summaries);

    // Scaling gates (multi-core hosts only).
    let q1 = q1_8w_speedup.expect("Q1 swept to 8 workers");
    let q3 = q3_8w_speedup.expect("Q3 swept to 8 workers");
    if cores >= 4 {
        let mut failed = false;
        if q1 < MIN_Q1_8W_SPEEDUP {
            eprintln!(
                "SCALING REGRESSION: Q1 at 8 workers reached only {q1:.2}x its \
                 1-worker throughput (gate: ≥ {MIN_Q1_8W_SPEEDUP:.1}x on a \
                 {cores}-core host). The verified read path has re-serialized."
            );
            failed = true;
        }
        if q3 < MIN_Q3_8W_SPEEDUP {
            eprintln!(
                "SCALING REGRESSION: Q3 at 8 workers reached only {q3:.2}x its \
                 1-worker throughput (gate: ≥ {MIN_Q3_8W_SPEEDUP:.1}x on a \
                 {cores}-core host). The join build or sort tail has \
                 re-serialized (Amdahl gap reopened)."
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "  scaling gates passed: Q1@8w = {q1:.2}x (≥ {MIN_Q1_8W_SPEEDUP:.1}x), \
             Q3@8w = {q3:.2}x (≥ {MIN_Q3_8W_SPEEDUP:.1}x)"
        );
    } else {
        println!(
            "  scaling gates skipped: host has {cores} core(s); equivalence \
             checks still ran at every pool size (Q1@8w = {q1:.2}x, Q3@8w = {q3:.2}x)"
        );
    }
}
