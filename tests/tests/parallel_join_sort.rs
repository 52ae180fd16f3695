//! Work-stealing scheduler, partitioned hash join, and parallel sort
//! tail, end to end: Q3-shaped pipelines must return the serial engine's
//! bytes at every worker count, skew must drain through steals instead of
//! idle workers, and tampering discovered mid-build or mid-merge must
//! surface as a security violation — never a wrong answer.

use veridb::{Metric, OperatorKind, PlanOptions, VeriDb, VeriDbConfig};
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

fn corrupt_one_live_cell(db: &VeriDb) {
    let mem = db.memory();
    for page in mem.page_ids() {
        for slot in 0..16u16 {
            if tamper::overwrite_cell(mem, veridb_wrcm::CellAddr { page, slot }, b"evil").is_ok() {
                return;
            }
        }
    }
    panic!("no live cell to tamper");
}

/// Q3's joins must actually run through the partitioned parallel build —
/// and still produce the serial plan's bytes. (The broader Q1/Q3/Q6
/// equivalence lives in parallel_exec.rs; this pins the operator choice.)
#[test]
fn q3_runs_partitioned_join_and_matches_serial() {
    let db = tpch_db(1);
    let opts = PlanOptions::default();
    let expected = db.sql_with(tpch::q3(), &opts).unwrap();

    for workers in [2usize, 8] {
        db.set_workers(workers);
        let before = db.metrics();
        let got = db.sql_with(tpch::q3(), &opts).unwrap();
        let delta = db.metrics().since(&before);
        db.set_workers(1);
        assert!(
            delta.get_at(Metric::OperatorRows, OperatorKind::PartitionedJoin as usize) > 0,
            "Q3@{workers} must route joins through PartitionedJoin"
        );
        assert_eq!(
            delta.get_at(Metric::OperatorRows, OperatorKind::HashJoin as usize),
            0,
            "Q3@{workers} must not fall back to the serial hash join"
        );
        // Exact equality, not epsilon: the partitioned build preserves
        // the serial insertion order, so even float cells must be
        // byte-identical.
        assert_eq!(got.rows, expected.rows, "Q3@{workers} vs serial");
    }
    db.verify_now().unwrap();
}

/// A full-table ORDER BY large enough for the run/merge tail must be
/// byte-identical to the serial stable sort, including duplicate-key
/// runs whose order is only pinned by run-index tie-breaking.
#[test]
fn parallel_sort_tail_matches_serial_bytes() {
    let db = tpch_db(1);
    // ~2000 rows >= PARALLEL_SORT_MIN_ROWS, duplicate-heavy key first so
    // ties cross run boundaries, unique key second to catch any reorder.
    let sql = "SELECT l_quantity, l_id, l_extendedprice FROM lineitem \
               ORDER BY l_quantity DESC, l_extendedprice";
    let expected = db.sql(sql).unwrap();
    for workers in [2usize, 8] {
        db.set_workers(workers);
        let got = db.sql(sql).unwrap();
        db.set_workers(1);
        assert_eq!(got.rows, expected.rows, "ORDER BY @{workers} vs serial");
    }
    db.verify_now().unwrap();
}

/// Tampering with a live cell before a parallel partitioned join: a
/// worker's verified scan hits the poisoned cell during build or probe
/// and alarms, or the deferred pass catches it — never a wrong result.
#[test]
fn tamper_under_parallel_join_is_detected() {
    let db = tpch_db(8);
    corrupt_one_live_cell(&db);
    match db.sql_with(tpch::q3(), &PlanOptions::default()) {
        Ok(_) => assert!(db.verify_now().is_err(), "deferred detection must fire"),
        Err(e) => assert!(e.is_security_violation(), "unexpected error class: {e}"),
    }
}

/// Same contract for the parallel sort tail: the sorted runs are fed by
/// verified scans and stored in spill-capable buffers, so a corrupted
/// page surfaces as TamperDetected, not as reordered or wrong rows.
#[test]
fn tamper_under_parallel_sort_is_detected() {
    let db = tpch_db(8);
    corrupt_one_live_cell(&db);
    let sql = "SELECT l_id, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC";
    match db.sql(sql) {
        Ok(_) => assert!(db.verify_now().is_err(), "deferred detection must fire"),
        Err(e) => assert!(e.is_security_violation(), "unexpected error class: {e}"),
    }
}

/// Skewed range: a predicate that concentrates the surviving rows in a
/// narrow key band makes some morsels much heavier than others. The
/// work-stealing pool must still return the serial bytes, and the steal
/// counters must reconcile (aggregate == per-worker sum) so skew is
/// observable from `.stats`. The hard ≤2×-mean claims bound is enforced
/// deterministically in `crates/query`'s scheduler unit test, where
/// morsel cost is controlled; here scheduling noise on a loaded host
/// could make that bound flaky.
#[test]
fn skewed_range_results_match_serial_and_steals_reconcile() {
    let db = tpch_db(1);
    // l_orderkey < 100 keeps only the head of the chain: the leading
    // morsels carry all the output rows, the tail morsels are empty.
    let sql = "SELECT l_id, l_orderkey, l_quantity FROM lineitem WHERE l_orderkey < 100";
    let expected = db.sql(sql).unwrap();
    db.set_workers(8);
    let before = db.metrics();
    let got = db.sql(sql).unwrap();
    let delta = db.metrics().since(&before);
    db.set_workers(1);
    assert_eq!(got.rows, expected.rows, "skewed range vs serial");
    let claims: u64 = delta.members(Metric::WorkerMorsels).iter().sum();
    assert_eq!(
        claims,
        delta.get(Metric::MorselsDispatched),
        "every dispatched morsel claimed exactly once"
    );
    assert_eq!(
        delta.members(Metric::WorkerSteals).iter().sum::<u64>(),
        delta.get(Metric::MorselsStolen),
        "per-worker steal counters must reconcile with the aggregate"
    );
    db.verify_now().unwrap();
}

/// Hash joins build on their smaller estimated input. Over random two- and
/// three-table equi-joins where either input may be the smaller, with NULL
/// and duplicate keys and a residual, the hash plan returns the forced
/// block nested-loop plan's rows as a multiset, and the same bytes at 1
/// and 8 workers. At 8 workers the joins run as partitioned joins, built
/// on the left whenever the left input is the smaller.
#[test]
fn hash_join_build_side_matches_nested_loop_and_is_worker_invariant() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use veridb::{PreferredJoin, Row, Value};
    use veridb_common::rng::check;
    let queries = [
        "SELECT * FROM a, b WHERE a_k = b_k AND a_v < b_v",
        "SELECT * FROM b, a WHERE b_k = a_k",
        "SELECT * FROM a, b, c WHERE a_k = b_k AND c_k = b_k AND a_v + c_v > 60",
    ];
    let hash = PlanOptions {
        prefer_join: PreferredJoin::Hash,
        workers: 0,
    };
    let nested = PlanOptions {
        prefer_join: PreferredJoin::NestedLoop,
        workers: 1,
    };
    let (left_builds, right_builds) = (AtomicUsize::new(0), AtomicUsize::new(0));
    check(12, |rng| {
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        cfg.workers = 1;
        let db = VeriDb::open(cfg).unwrap();
        // At most one table is large enough to split into several morsels.
        let big = rng.gen_range(0usize..4);
        for (ti, t) in ["a", "b", "c"].into_iter().enumerate() {
            db.sql(&format!(
                "CREATE TABLE {t} ({t}_id INT PRIMARY KEY, {t}_k INT, {t}_v INT)"
            ))
            .unwrap();
            let table = db.table(t).unwrap();
            let rows = if ti == big {
                rng.gen_range(520usize..700)
            } else {
                rng.gen_range(0usize..40)
            };
            for id in 0..rows as i64 {
                let k = if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0i64..8))
                };
                let v = Value::Int(rng.gen_range(0i64..100));
                table.insert(Row::new(vec![Value::Int(id), k, v])).unwrap();
            }
        }
        for sql in queries {
            let plan = db.explain(sql, &hash).unwrap();
            left_builds.fetch_add(plan.matches("build left").count(), Ordering::Relaxed);
            right_builds.fetch_add(plan.matches("build right").count(), Ordering::Relaxed);
            let serial = db.sql_with(sql, &hash).unwrap().rows;
            let mut oracle = db.sql_with(sql, &nested).unwrap().rows;
            let mut sorted = serial.clone();
            sorted.sort();
            oracle.sort();
            assert_eq!(sorted, oracle, "{sql}\n{plan}");

            db.set_workers(8);
            let plan8 = db.explain(sql, &hash).unwrap();
            let parallel = db.sql_with(sql, &hash).unwrap().rows;
            db.set_workers(1);
            assert!(plan8.contains("PartitionedHashJoin"), "{plan8}");
            assert_eq!(parallel, serial, "{sql} at 8 workers\n{plan8}");
        }
        db.verify_now().unwrap();
    });
    assert!(left_builds.into_inner() > 0, "no case built on the left");
    assert!(right_builds.into_inner() > 0, "no case built on the right");
}
