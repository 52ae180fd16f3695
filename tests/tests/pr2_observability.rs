//! PR 2 integration coverage: the `veridb-obs` metrics registry wired
//! through every layer, plus regression tests for the portal replay
//! window, qid-on-endorsement consumption, spill-page reclamation, and
//! batched-scan behaviour under concurrent splices.

use std::sync::Arc;
use veridb::{Error, Metric, PlanOptions, PreferredJoin, VeriDb, VeriDbConfig};
use veridb_query::replay::DEFAULT_REPLAY_WINDOW;
use veridb_query::SignedQuery;

fn db() -> VeriDb {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    VeriDb::open(cfg).unwrap()
}

/// Hand-sign a query under the portal's channel key — lets tests replay
/// the exact same `SignedQuery` (a `Client` would mint a fresh qid).
fn sign(portal: &veridb::QueryPortal, qid: u64, sql: &str) -> SignedQuery {
    let key = portal.channel_key_for_attested_client();
    SignedQuery {
        qid,
        sql: sql.to_owned(),
        mac: key.sign(&[&qid.to_le_bytes(), sql.as_bytes()]),
    }
}

#[test]
fn metrics_smoke_counters_move_under_tpch_workload() {
    let db = db();
    let data = veridb_workloads::TpchData::generate(&veridb_workloads::TpchConfig::tiny());
    data.load(&db).unwrap();

    // Before any epoch close, per-partition verification lag is visible.
    let lag: u64 = db.verification_lag().iter().map(|(_, l)| *l).sum();
    assert!(
        lag > 0,
        "loading must leave unverified protected ops behind"
    );

    // Drive the paper's queries through the authenticated portal so the
    // ECall counter moves too.
    let portal = db.portal("obs-smoke");
    for (qid, sql) in [
        (1, veridb_workloads::tpch::q1()),
        (2, veridb_workloads::tpch::q6()),
    ] {
        portal.submit(&sign(&portal, qid, sql)).unwrap();
    }
    db.verify_now().unwrap();

    let snap = db.metrics();
    assert!(snap.protected_ops() > 0, "protected ops: {snap}");
    assert!(
        snap.get(Metric::PrfEvals) > 0,
        "PRF evaluations must be counted"
    );
    assert!(
        snap.get(Metric::Ecalls) > 0,
        "portal submissions are ECalls"
    );
    assert!(snap.get(Metric::EpcHighWaterBytes) > 0);
    assert!(
        snap.get(Metric::EpochCloses) > 0,
        "verify_now closes epochs"
    );
    assert!(
        snap.hist(Metric::VerificationLagOps).count > 0
            && snap.hist(Metric::VerificationLagOps).sum > 0,
        "closes with pending ops must be sampled"
    );
    assert!(
        snap.get(Metric::ScanBatchedRounds) > 0,
        "Q1/Q6 sequential scans must take the batched path"
    );
    assert!(snap.get(Metric::QueriesExecuted) >= 2);
    assert!(
        snap.get_at(Metric::OperatorRows, veridb::OperatorKind::Scan as usize) > 0,
        "per-operator row counts must move"
    );
    // Catalog sanity: every counter has a stable dotted name.
    let counters = snap.counters();
    assert!(counters
        .iter()
        .any(|(n, v)| *n == "enclave.prf_evals" && *v > 0));
    assert!(counters
        .iter()
        .any(|(n, v)| *n == "wrcm.protected_reads" && *v > 0));
}

#[test]
fn sha_hw_gauge_reports_the_sha256_body_after_open() {
    let want = u64::from(veridb_common::sha256::hardware_accelerated());
    assert_eq!(db().metrics().get(Metric::ShaHw), want);
}

#[test]
fn replay_rejection_survives_watermark_eviction() {
    let db = db();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    db.sql("INSERT INTO t VALUES (1,'a')").unwrap();
    let portal = db.portal("replay");

    let sql = "SELECT * FROM t WHERE id = 1";
    let early = sign(&portal, 1, sql);
    portal.submit(&early).unwrap();

    // Push qid 1 well below the watermark.
    let total = DEFAULT_REPLAY_WINDOW as u64 + 16;
    for qid in 2..=total {
        portal.submit(&sign(&portal, qid, sql)).unwrap();
    }

    // qid 1 fell off the exact window long ago — replaying it must still
    // be rejected (it now sits at/below the watermark)…
    let err = portal.submit(&early).unwrap_err();
    assert!(matches!(err, Error::ReplayDetected { qid: 1 }), "{err}");
    // …as must a qid that is still exactly tracked.
    let err = portal.submit(&sign(&portal, total, sql)).unwrap_err();
    assert!(matches!(err, Error::ReplayDetected { qid } if qid == total));

    // Fresh qids keep working after eviction.
    portal.submit(&sign(&portal, total + 1, sql)).unwrap();

    let snap = db.metrics();
    assert!(
        snap.get(Metric::ReplaysRejected) >= 2,
        "{}",
        snap.get(Metric::ReplaysRejected)
    );
}

#[test]
fn failed_query_leaves_qid_retryable() {
    let db = db();
    let portal = db.portal("retry");
    let q = sign(&portal, 7, "SELECT * FROM not_yet_here");

    // The table does not exist: the submission fails, but NOT as a replay
    // or a security violation — the qid stays unspent.
    let err = portal.submit(&q).unwrap_err();
    assert!(!matches!(err, Error::ReplayDetected { .. }), "{err}");
    assert!(!err.is_security_violation(), "{err}");

    // Fix the environment, retry the *same* signed query: it succeeds.
    db.sql("CREATE TABLE not_yet_here (id INT PRIMARY KEY)")
        .unwrap();
    let endorsed = portal.submit(&q).unwrap();
    assert_eq!(endorsed.qid, 7);

    // Only now is the qid spent.
    let err = portal.submit(&q).unwrap_err();
    assert!(matches!(err, Error::ReplayDetected { qid: 7 }));
}

#[test]
fn repeated_spilling_queries_keep_page_count_stable() {
    let db = db();
    db.sql("CREATE TABLE l (id INT PRIMARY KEY, k INT)")
        .unwrap();
    db.sql("CREATE TABLE r (id INT PRIMARY KEY, k INT, pad TEXT)")
        .unwrap();
    for i in 0..50 {
        db.sql(&format!("INSERT INTO l VALUES ({i}, {})", i % 10))
            .unwrap();
    }
    for i in 0..400 {
        db.sql(&format!(
            "INSERT INTO r VALUES ({i}, {}, 'padding-padding-{i}')",
            i % 10
        ))
        .unwrap();
    }
    // A block nested-loop join materializes the inner side; a tiny
    // threshold forces it into verified-storage scratch pages.
    db.set_spill_threshold(Some(256));
    let opts = PlanOptions {
        prefer_join: PreferredJoin::NestedLoop,
        ..Default::default()
    };
    let sql = "SELECT COUNT(*) FROM l, r WHERE l.k = r.k";
    let mut counts = Vec::new();
    let mut answers = Vec::new();
    for _ in 0..5 {
        let r = db.sql_with(sql, &opts).unwrap();
        answers.push(r.rows[0][0].clone());
        counts.push(db.memory().page_count());
    }
    assert!(
        counts.windows(2).all(|w| w[1] == w[0]),
        "scratch pages must be reclaimed between queries: {counts:?}"
    );
    assert!(answers.windows(2).all(|w| w[1] == w[0]));
    let snap = db.metrics();
    assert!(
        snap.get(Metric::SpillEvents) > 0,
        "the workload must actually spill"
    );
    assert!(
        snap.get(Metric::PagesReused) > 0,
        "later rounds must reuse freed pages"
    );
    db.verify_now().unwrap();
}

#[test]
fn concurrent_splices_during_batched_scans_never_alarm() {
    let db = db();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..256 {
        db.sql(&format!("INSERT INTO t VALUES ({i}, 'val-{i}')"))
            .unwrap();
    }
    let table = db.table("t").unwrap();

    std::thread::scope(|s| {
        // Mutators: deletes + re-inserts + growing updates force chain
        // splices and cell moves in the pages the scanner is batching.
        for m in 0..2 {
            let db = &db;
            s.spawn(move || {
                for round in 0..20 {
                    let id = (m * 128) + (round * 7) % 128 + 1;
                    db.sql(&format!("DELETE FROM t WHERE id = {id}")).unwrap();
                    db.sql(&format!(
                        "INSERT INTO t VALUES ({id}, 'resized-{id}-{round}-xxxxxxxxxxxx')"
                    ))
                    .unwrap();
                }
            });
        }
        // Scanner: full verified scans concurrent with the splices. An
        // honest run may see rows appear/disappear, but must never raise
        // a tamper alarm from a mid-batch slot reuse.
        for _ in 0..2 {
            let table = Arc::clone(&table);
            s.spawn(move || {
                for _ in 0..30 {
                    let mut n = 0usize;
                    for row in table.seq_scan() {
                        row.expect("honest concurrent scan must not alarm");
                        n += 1;
                    }
                    assert!(n > 200, "most rows stay visible: {n}");
                }
            });
        }
    });

    db.verify_now().unwrap();
    let snap = db.metrics();
    assert!(
        snap.get(Metric::ScanBatchedRounds) > 0,
        "scans must use the fast path"
    );
}
