//! Morsel-driven parallel execution, end to end: TPC-H plans must return
//! the serial engine's rows (same values, same order) at every worker
//! count, and tampering discovered by a worker's verified scan must
//! surface exactly as it does serially.

use veridb::{Metric, PlanOptions, Row, Value, VeriDb, VeriDbConfig};
use veridb_workloads::tpch;
use veridb_wrcm::tamper;

fn tpch_db(workers: usize) -> VeriDb {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.workers = workers;
    let db = VeriDb::open(cfg).unwrap();
    let data = veridb_workloads::TpchData::generate(&veridb_workloads::TpchConfig::tiny());
    data.load(&db).unwrap();
    db
}

/// Same shape and order; float cells compare with a relative epsilon
/// (parallel partial sums associate differently than a serial left-fold).
fn assert_rows_equivalent(actual: &[Row], expected: &[Row], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: row count");
    for (i, (a, b)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.values().len(), b.values().len(), "{what}: row {i} width");
        for (x, y) in a.values().iter().zip(b.values()) {
            match (x, y) {
                (Value::Float(fx), Value::Float(fy)) => {
                    let scale = fx.abs().max(fy.abs()).max(1.0);
                    assert!(
                        (fx - fy).abs() <= 1e-9 * scale,
                        "{what}: row {i}: {fx} vs {fy}"
                    );
                }
                _ => assert_eq!(x, y, "{what}: row {i}"),
            }
        }
    }
}

#[test]
fn tpch_q1_q3_q6_parallel_matches_serial() {
    let serial_db = tpch_db(1);
    let opts = PlanOptions::default();
    for (name, sql) in [("Q1", tpch::q1()), ("Q3", tpch::q3()), ("Q6", tpch::q6())] {
        let expected = serial_db.sql_with(sql, &opts).unwrap();
        for workers in [2usize, 8] {
            serial_db.set_workers(workers);
            let got = serial_db.sql_with(sql, &opts).unwrap();
            serial_db.set_workers(1);
            assert_eq!(got.columns, expected.columns, "{name}");
            // Q1/Q3 carry ORDER BY; Q6 is a single aggregate row. Order
            // must match exactly in all cases.
            assert_rows_equivalent(&got.rows, &expected.rows, &format!("{name}@{workers}"));
        }
    }
    serial_db.verify_now().unwrap();
}

#[test]
fn ordered_scan_row_order_survives_parallelism() {
    // No ORDER BY: the row order is the verified scan's chain order, which
    // the morsel-index merge must reproduce bit-for-bit (int columns, so
    // exact equality).
    let db = tpch_db(1);
    let sql = "SELECT l_id, l_orderkey, l_quantity FROM lineitem \
               WHERE l_quantity < 10";
    let expected = db.sql(sql).unwrap();
    for workers in [2usize, 4, 8] {
        db.set_workers(workers);
        let got = db.sql(sql).unwrap();
        assert_eq!(got.rows, expected.rows, "workers={workers}");
    }
}

#[test]
fn parallel_region_metrics_are_recorded() {
    let db = tpch_db(4);
    let before = db.metrics();
    db.sql("SELECT COUNT(*) FROM lineitem").unwrap();
    let delta = db.metrics().since(&before);
    assert_eq!(
        delta.get(Metric::ParallelRegions),
        1,
        "one Exchange region ran"
    );
    assert!(
        delta.get(Metric::MorselsDispatched) > 1,
        "2000 rows must split into multiple morsels (got {})",
        delta.get(Metric::MorselsDispatched)
    );
    let per_worker: u64 = (0..veridb_common::obs::MAX_TRACKED_WORKERS)
        .map(|w| delta.get_at(Metric::WorkerRows, w))
        .sum();
    assert!(
        per_worker > 0,
        "per-worker row counters must see the scan rows"
    );
}

/// Parallel scans actually spread over the pool: every dispatched
/// morsel is claimed by some worker.
#[test]
fn morsel_claims_engage_at_8_workers() {
    let db = tpch_db(8);
    let before = db.metrics();
    db.sql("SELECT COUNT(*) FROM lineitem").unwrap();
    let delta = db.metrics().since(&before);
    let claims: u64 = (0..veridb_common::obs::MAX_TRACKED_WORKERS)
        .map(|w| delta.get_at(Metric::WorkerMorsels, w))
        .sum();
    assert!(
        claims > 0 && claims == delta.get(Metric::MorselsDispatched),
        "every dispatched morsel is claimed by some worker ({claims} of {})",
        delta.get(Metric::MorselsDispatched)
    );
    // The workers' batched reads folded like serial ones, so the epoch
    // still balances.
    db.verify_now().unwrap();
}

#[test]
fn tamper_under_parallel_scan_is_detected() {
    let db = tpch_db(4);
    // Overwrite one live cell directly in untrusted memory.
    let mem = db.memory();
    let mut hit = false;
    'outer: for page in mem.page_ids() {
        for slot in 0..16u16 {
            if tamper::overwrite_cell(mem, veridb_wrcm::CellAddr { page, slot }, b"evil").is_ok() {
                hit = true;
                break 'outer;
            }
        }
    }
    assert!(hit, "no live cell to tamper");
    // A parallel scan either alarms immediately (a worker's verified scan
    // hits the poisoned cell) or the deferred pass catches it — never a
    // silently wrong answer (Theorem 5.1 under parallel execution).
    match db.sql("SELECT COUNT(*) FROM lineitem") {
        Ok(_) => assert!(db.verify_now().is_err(), "deferred detection must fire"),
        Err(e) => assert!(e.is_security_violation(), "unexpected error class: {e}"),
    }
}

/// `set_workers` sets the verification DOP too: a pass over 16 partitions
/// run as pool jobs at DOP 4 reports exactly what a DOP-1 pass on an
/// identical database reports, and records nothing under `query.*`.
#[test]
fn set_workers_sets_the_verification_dop() {
    let open = || {
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        cfg.rsws_partitions = 16;
        cfg.workers = 1;
        let db = VeriDb::open_with_entropy(cfg, "verify-dop", [7u8; 32]).unwrap();
        db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for chunk in (0..2_000).collect::<Vec<i64>>().chunks(200) {
            let values: Vec<String> = chunk
                .iter()
                .map(|k| format!("({k}, 'value-{k:06}-padding-padding')"))
                .collect();
            db.sql(&format!("INSERT INTO kv VALUES {}", values.join(", ")))
                .unwrap();
        }
        db
    };
    let parallel = open();
    let serial = open();
    parallel.set_workers(4);
    assert_eq!(parallel.memory().workers(), 4);
    let query_rows = |db: &VeriDb| -> Vec<(&'static str, u64)> {
        let mut rows = db.metrics().counters();
        rows.retain(|(name, _)| name.starts_with("query."));
        rows
    };
    let before = query_rows(&parallel);
    let got = parallel.verify_now().unwrap();
    assert_eq!(
        query_rows(&parallel),
        before,
        "verification moved query.* rows"
    );
    assert_eq!(parallel.metrics().get(Metric::ParallelRegions), 0);
    let expected = serial.verify_now().unwrap();
    assert!(expected.pages_processed > 16, "every partition holds pages");
    assert_eq!(got.pages_processed, expected.pages_processed);
    assert_eq!(got.epochs, expected.epochs);
    assert_eq!(got.fingerprint, expected.fingerprint);
}
