//! Whole-stack integration: SQL over verified storage over write-read
//! consistent memory over the simulated enclave, with the background
//! verifier live.

use std::sync::Arc;
use veridb::{Metric, PlanOptions, PreferredJoin, Value, VeriDb, VeriDbConfig};
use veridb_common::obs::{ECALL_CYCLES, EPC_SWAP_CYCLES, OCALL_CYCLES};

fn db_with_verifier() -> VeriDb {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = Some(100);
    cfg.rsws_partitions = 4;
    VeriDb::open(cfg).unwrap()
}

#[test]
fn mixed_workload_with_live_verifier() {
    let db = db_with_verifier();
    db.sql("CREATE TABLE orders (id INT PRIMARY KEY, cust INT CHAINED, total FLOAT)")
        .unwrap();
    db.sql("CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    for i in 1..=20 {
        db.sql(&format!("INSERT INTO customers VALUES ({i}, 'cust-{i}')"))
            .unwrap();
    }
    for i in 1..=300 {
        db.sql(&format!(
            "INSERT INTO orders VALUES ({i}, {}, {})",
            i % 20 + 1,
            (i * 7 % 100) as f64
        ))
        .unwrap();
    }
    // Point, range, join, aggregate — all while the verifier scans.
    let r = db.sql("SELECT * FROM orders WHERE id = 250").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db.sql("SELECT id FROM orders WHERE cust = 5").unwrap();
    assert_eq!(r.rows.len(), 15);
    let r = db
        .sql(
            "SELECT c.name, COUNT(*) AS n, SUM(o.total) AS sum_total \
             FROM orders o, customers c WHERE o.cust = c.id \
             GROUP BY c.name ORDER BY name",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 20);
    let total: i64 = r.rows.iter().map(|row| row[1].as_i64().unwrap()).sum();
    assert_eq!(total, 300);

    db.sql("DELETE FROM orders WHERE cust = 5").unwrap();
    let r = db.sql("SELECT COUNT(*) FROM orders").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(285));

    assert!(db.stop_verifier().is_none(), "honest workload must verify");
    db.verify_now().unwrap();
}

#[test]
fn all_join_algorithms_agree_on_every_query() {
    let db = db_with_verifier();
    db.sql("CREATE TABLE a (id INT PRIMARY KEY, bref INT, w INT)")
        .unwrap();
    db.sql("CREATE TABLE b (id INT PRIMARY KEY, x INT)")
        .unwrap();
    for i in 1..=50 {
        db.sql(&format!(
            "INSERT INTO a VALUES ({i}, {}, {})",
            i % 12 + 1,
            i % 5
        ))
        .unwrap();
    }
    for i in 1..=12 {
        db.sql(&format!("INSERT INTO b VALUES ({i}, {})", i * 10))
            .unwrap();
    }
    let sql = "SELECT a.id, b.x FROM a, b WHERE a.bref = b.id AND a.w > 1 ORDER BY id";
    let mut answers = Vec::new();
    for prefer in [
        PreferredJoin::Auto,
        PreferredJoin::Hash,
        PreferredJoin::Merge,
        PreferredJoin::NestedLoop,
    ] {
        let r = db
            .sql_with(
                sql,
                &PlanOptions {
                    prefer_join: prefer,
                    ..Default::default()
                },
            )
            .unwrap();
        answers.push((prefer, r.rows));
    }
    for window in answers.windows(2) {
        assert_eq!(
            window[0].1, window[1].1,
            "{:?} and {:?} disagree",
            window[0].0, window[1].0
        );
    }
    assert!(!answers[0].1.is_empty());
}

#[test]
fn recovery_mid_workload() {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let db = VeriDb::open(cfg.clone()).unwrap();
    db.sql("CREATE TABLE s (id INT PRIMARY KEY, v INT CHAINED)")
        .unwrap();
    for i in 0..100 {
        db.sql(&format!("INSERT INTO s VALUES ({i}, {})", i * 3 % 17))
            .unwrap();
    }
    let replica = db.snapshot_replica().unwrap();
    drop(db); // power failure

    let recovered = VeriDb::recover_from_replica(cfg, &replica).unwrap();
    // Chains and secondary access still work after the replay.
    let r = recovered.sql("SELECT COUNT(*) FROM s WHERE v = 0").unwrap();
    assert!(r.rows[0][0].as_i64().unwrap() > 0);
    recovered.sql("INSERT INTO s VALUES (1000, 5)").unwrap();
    recovered.sql("DELETE FROM s WHERE id = 3").unwrap();
    recovered.verify_now().unwrap();
}

#[test]
fn enclave_cost_accounting_reflects_work() {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE c (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let before = db.metrics();
    for i in 0..50 {
        db.sql(&format!("INSERT INTO c VALUES ({i}, {i})")).unwrap();
    }
    let after = db.metrics();
    let delta = after.since(&before);
    assert!(
        delta.get(Metric::PrfEvals) > 0,
        "verified inserts must evaluate PRFs"
    );
    assert!(delta.get(Metric::VerifiedWrites) >= 50);
    db.verify_now().unwrap();
    let after_scan = db.metrics().since(&after);
    assert!(after_scan.get(Metric::PagesScanned) > 0);
}

#[test]
fn epc_budget_is_tracked_per_page() {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE big (id INT PRIMARY KEY, pad TEXT)")
        .unwrap();
    let t = db.table("big").unwrap();
    for i in 0..2_000i64 {
        t.insert(veridb::Row::new(vec![
            Value::Int(i),
            Value::Str("x".repeat(100)),
        ]))
        .unwrap();
    }
    // Page metadata in the enclave is accounted against EPC.
    let allocated = db.enclave().epc().allocated();
    assert!(
        allocated > 0,
        "per-page enclave metadata must be EPC-accounted"
    );
    assert!(
        allocated < db.enclave().epc().budget(),
        "laptop-scale DB must fit the 96 MB EPC budget"
    );
    let _ = Arc::strong_count(&t);
}

/// Going over the EPC budget charges swaps to the one registry: `costs()`
/// and `metrics()` agree on them, and the cycle total prices them.
#[test]
fn epc_swaps_over_budget_are_counted_and_priced() {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.page_size = 512;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
        .unwrap();
    let t = db.table("t").unwrap();
    // Pin all but 8 KiB of the EPC budget, so a small load goes over it.
    let epc = db.enclave().epc();
    let _pinned = epc
        .allocate(epc.budget() - epc.allocated() - 8 * 1024)
        .unwrap();
    let mut id = 0i64;
    while db.metrics().get(Metric::EpcSwaps) == 0 {
        assert!(id < 10_000, "loading never went over the EPC budget");
        t.insert(veridb::Row::new(vec![
            Value::Int(id),
            Value::Str("x".repeat(100)),
        ]))
        .unwrap();
        id += 1;
    }
    let snap = db.metrics();
    let costs: std::collections::HashMap<_, _> = db.costs().into_iter().collect();
    let swaps = snap.get(Metric::EpcSwaps);
    assert!(swaps > 0);
    assert_eq!(costs["enclave.epc_swaps"], swaps);
    assert_eq!(
        costs["enclave.simulated_cycles"],
        snap.get(Metric::Ecalls) * ECALL_CYCLES
            + snap.get(Metric::Ocalls) * OCALL_CYCLES
            + swaps * EPC_SWAP_CYCLES
    );
    assert!(costs["enclave.simulated_cycles"] >= swaps * EPC_SWAP_CYCLES);
    let _ = Arc::strong_count(&t);
}

#[test]
fn intermediate_state_spills_to_verified_storage() {
    // §5.4: materialization points overflow into verified storage; the
    // answer is unchanged and the spilled cells are protocol-covered.
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE l (id INT PRIMARY KEY, k INT)")
        .unwrap();
    db.sql("CREATE TABLE r (id INT PRIMARY KEY, k INT, pad TEXT)")
        .unwrap();
    for i in 0..60 {
        db.sql(&format!("INSERT INTO l VALUES ({i}, {})", i % 10))
            .unwrap();
    }
    for i in 0..200 {
        db.sql(&format!(
            "INSERT INTO r VALUES ({i}, {}, 'padding-{i}')",
            i % 10
        ))
        .unwrap();
    }
    // Force the block-NLJ plan (materializes the right side) and compare
    // spilled vs unspilled answers.
    let opts = PlanOptions {
        prefer_join: PreferredJoin::NestedLoop,
        ..Default::default()
    };
    let sql = "SELECT l.id, r.id FROM l, r WHERE l.k = r.k ORDER BY 1, 2";
    let unspilled = db.sql_with(sql, &opts).unwrap();

    db.set_spill_threshold(Some(128)); // absurdly small: force spilling
    let before = db.metrics();
    let spilled = db.sql_with(sql, &opts).unwrap();
    let delta = db.metrics().since(&before);
    db.set_spill_threshold(None);

    assert_eq!(
        unspilled.rows, spilled.rows,
        "spilling must not change answers"
    );
    assert_eq!(spilled.rows.len(), 60 * 20);
    assert!(
        delta.get(Metric::VerifiedWrites) > 100,
        "spilled rows must be written through the protected path \
         (saw {} verified writes)",
        delta.get(Metric::VerifiedWrites)
    );
    // The scratch cells were freed on drop; digests balance.
    db.verify_now().unwrap();
}

/// `VeriDbConfig::cell_cache_bytes` is a leftover that nothing reads:
/// repeated point reads of a small hot set return the same rows and cost
/// the same PRF evaluations whatever it is set to.
#[test]
fn leftover_cell_cache_bytes_field_is_inert() {
    let run = |cell_cache_bytes: usize| {
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        cfg.cell_cache_bytes = cell_cache_bytes;
        let db = VeriDb::open(cfg).unwrap();
        db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for k in 0..16 {
            db.sql(&format!("INSERT INTO kv VALUES ({k}, 'v{k}')"))
                .unwrap();
        }
        let before = db.metrics();
        let rows: Vec<_> = (0..200)
            .map(|i| {
                db.sql(&format!("SELECT v FROM kv WHERE k = {}", i % 16))
                    .unwrap()
                    .rows
            })
            .collect();
        let prf_evals = db.metrics().since(&before).get(Metric::PrfEvals);
        db.verify_now().unwrap();
        (rows, prf_evals)
    };
    let (rows_set, prf_set) = run(4 << 20);
    let (rows_zero, prf_zero) = run(0);
    assert!(prf_zero > 0, "point reads must run the verified protocol");
    assert_eq!(
        prf_set, prf_zero,
        "enclave.prf_evals must not depend on the field"
    );
    assert!(
        rows_set == rows_zero,
        "answers must not depend on the field"
    );
}
