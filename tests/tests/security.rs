//! Cross-layer security integration: attacks mounted at one layer must be
//! caught by the defenses of another, matching the paper's end-to-end
//! argument (§5.5).

use std::sync::Arc;
use veridb::{Client, VeriDb, VeriDbConfig};
use veridb_enclave::sealing::Sealer;
use veridb_wrcm::tamper;

fn db() -> VeriDb {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    db.sql("INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d')")
        .unwrap();
    db
}

fn tamper_one_cell(db: &VeriDb) {
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

#[test]
fn integrity_theorem_5_1_detection_is_eventual_but_certain() {
    // Theorem 5.1: every returned tuple satisfies Q, or the breach is
    // (eventually) detected. Tampering mid-stream is caught by the next
    // verification pass even if a query read the bad data first.
    let db = db();
    tamper_one_cell(&db);
    // The engine may or may not surface an immediate decode error; the
    // deferred verification MUST fail regardless.
    let _ = db.sql("SELECT * FROM t");
    assert!(db.verify_now().is_err());
    assert!(db.poisoned().unwrap().is_security_violation());
}

#[test]
fn completeness_theorem_5_2_omission_needs_the_chain() {
    // Deleting a record via the protected path is legal; omitting one
    // behind the chain's back is not possible without breaking either the
    // chain evidence or the digests. (Touched-page tracking defers
    // detection of cold-page tampering until the page is next read — see
    // wrcm's tamper tests — so this test scans every page each pass.)
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.track_touched_pages = false;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    db.sql("INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d')")
        .unwrap();
    // Legal path: verified absence afterwards.
    db.sql("DELETE FROM t WHERE id = 2").unwrap();
    let r = db.sql("SELECT * FROM t WHERE id = 2").unwrap();
    assert!(r.rows.is_empty());
    db.verify_now().unwrap();

    // Illegal path: resurrect the deleted record's bytes directly — the
    // WriteSet no longer covers them, so verification fails.
    let mem = db.memory();
    let resurrected = mem
        .page_ids()
        .into_iter()
        .any(|page| tamper::resurrect_cell(mem, page, b"\x01resurrected", 1).is_ok());
    assert!(resurrected, "resurrection insert must land somewhere");
    assert!(db.verify_now().is_err());
}

#[test]
fn freshness_stale_read_is_detected() {
    let db = db();
    let mem = db.memory();
    // Snapshot everything, update, replay one superseded cell.
    let mut snaps = Vec::new();
    for page in mem.page_ids() {
        for slot in 0..16u16 {
            let addr = veridb_wrcm::CellAddr { page, slot };
            if let Ok(s) = tamper::snapshot_cell(mem, addr) {
                snaps.push((addr, s));
            }
        }
    }
    db.sql("UPDATE t SET v = 'fresh' WHERE id = 1").unwrap();
    db.sql("UPDATE t SET v = 'fresh' WHERE id = 2").unwrap();
    db.sql("UPDATE t SET v = 'fresh' WHERE id = 3").unwrap();
    db.sql("UPDATE t SET v = 'fresh' WHERE id = 4").unwrap();
    let (addr, (data, ts)) = snaps
        .into_iter()
        .find(|(a, s)| {
            tamper::snapshot_cell(mem, *a)
                .map(|c| c != *s)
                .unwrap_or(false)
        })
        .expect("superseded cell");
    tamper::replay_cell(mem, addr, &data, ts).unwrap();
    // A read may now return stale data — freshness violated — but the
    // epoch close detects it.
    let _ = db.sql("SELECT * FROM t");
    assert!(db.verify_now().is_err());
}

#[test]
fn sealed_checkpoint_cannot_be_tampered_or_cross_loaded() {
    let db = db();
    let sealer = Sealer::new(db.enclave().derive_key("checkpoint"));
    let state = b"rsws digests + ts high-water";
    let mut blob = sealer.seal(state, [3u8; 16]);
    assert_eq!(sealer.unseal(&blob).unwrap(), state);

    // Host corruption detected.
    blob.corrupt_for_test();
    assert!(sealer.unseal(&blob).is_err());

    // A different enclave identity cannot unseal.
    let other = VeriDb::open(VeriDbConfig::baseline()).unwrap();
    let foreign = Sealer::new(other.enclave().derive_key("checkpoint"));
    let blob = sealer.seal(state, [4u8; 16]);
    assert!(foreign.unseal(&blob).is_err());
}

#[test]
fn full_attack_story_portal_refuses_after_background_detection() {
    // Attack during live operation: background verifier catches it and
    // every subsequent portal interaction fails closed.
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = Some(10);
    let dbx = VeriDb::open(cfg).unwrap();
    dbx.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    dbx.sql("INSERT INTO t VALUES (1,'a'),(2,'b')").unwrap();
    let portal = Arc::new(dbx.portal("c"));
    let mut client = Client::with_key(portal.channel_key_for_attested_client());

    tamper_one_cell(&dbx);
    // Drive ops so the background verifier scans the tampered page.
    for i in 0..400 {
        let q = client.sign_query(&format!("SELECT * FROM t WHERE id = {}", i % 2 + 1));
        match portal.submit(&q) {
            Ok(e) => {
                let _ = client.verify_result(&q, &e);
            }
            Err(err) => {
                assert!(err.is_security_violation(), "unexpected: {err}");
                return; // detection happened — test passes
            }
        }
        std::thread::yield_now();
    }
    // If the background thread raced slower than 400 queries, force it.
    assert!(dbx.verify_now().is_err());
}

#[test]
fn client_detects_split_view_between_two_portals() {
    // The same client key talking through two portal instances still sees
    // one strictly-increasing sequence space (the counter lives in the
    // enclave, not the portal).
    let dbx = db();
    let p1 = dbx.portal("shared");
    let p2 = dbx.portal("shared");
    let mut client = Client::with_key(p1.channel_key_for_attested_client());
    let mut seqs = Vec::new();
    for i in 0..10 {
        let portal = if i % 2 == 0 { &p1 } else { &p2 };
        let q = client.sign_query("SELECT COUNT(*) FROM t");
        let e = portal.submit(&q).unwrap();
        client.verify_result(&q, &e).unwrap();
        seqs.push(e.sequence);
    }
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), seqs.len(), "no sequence number may repeat");
}

#[test]
fn tpch_analytics_over_tampered_data_is_detected() {
    // End-to-end: analytical answers over silently tampered base data are
    // never endorsed — the scan-level digests catch the modification.
    use veridb_workloads::tpch::{q6, TpchConfig, TpchData};
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let dbx = VeriDb::open(cfg).unwrap();
    let data = TpchData::generate(&TpchConfig::tiny());
    data.load(&dbx).unwrap();
    let honest = dbx.sql(q6()).unwrap();

    // The host rewrites one lineitem record in place (e.g. inflating a
    // discount). The very next verification pass must fail.
    tamper_one_cell(&dbx);
    let _maybe_wrong = dbx.sql(q6()); // may silently differ from `honest`
    assert!(
        dbx.verify_now().is_err(),
        "tampered analytics must be detected"
    );
    assert!(dbx.poisoned().is_some());
    // And the portal refuses endorsement from here on.
    let portal = dbx.portal("analyst");
    let mut client = Client::with_key(portal.channel_key_for_attested_client());
    let q = client.sign_query(q6());
    assert!(portal.submit(&q).unwrap_err().is_security_violation());
    let _ = honest;
}

// ---- planning from untrusted estimates -------------------------------------

/// A database whose `lineitem` is TPC-H's (tiny), with both chain indexes
/// lying on demand. The rows are copied from an honestly loaded database.
fn lying_lineitem() -> (VeriDb, [Arc<veridb_storage::MaliciousIndex>; 2]) {
    use veridb_storage::{IndexOracle, MaliciousIndex};
    use veridb_workloads::tpch::{TpchConfig, TpchData};
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let honest = VeriDb::open(cfg.clone()).unwrap();
    TpchData::generate(&TpchConfig::tiny())
        .load(&honest)
        .unwrap();
    let source = honest.table("lineitem").unwrap();

    let db = VeriDb::open(cfg).unwrap();
    let mal = [
        Arc::new(MaliciousIndex::new()),
        Arc::new(MaliciousIndex::new()),
    ];
    let t = db
        .catalog()
        .create_table_with_indexes(
            "lineitem",
            source.schema().clone(),
            mal.iter()
                .map(|m| Box::new(Arc::clone(m)) as Box<dyn IndexOracle>)
                .collect(),
        )
        .unwrap();
    for row in honest.sql("SELECT * FROM lineitem").unwrap().rows {
        t.insert(row).unwrap();
    }
    (db, mal)
}

fn date_key(s: &str) -> veridb_storage::ChainKey {
    veridb_storage::ChainKey::val(veridb::Value::parse_date(s).unwrap())
}

/// Same rows in the same order; floats within a relative 1e-9, because a
/// sum follows its access path's order.
fn assert_same_answer(got: &[veridb::Row], want: &[veridb::Row], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.iter().zip(want) {
        for (x, y) in g.values().iter().zip(w.values()) {
            match (x, y) {
                (veridb::Value::Float(a), veridb::Value::Float(b)) => {
                    assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                        "{what}"
                    )
                }
                _ => assert_eq!(x, y, "{what}"),
            }
        }
    }
}

#[test]
fn lying_key_bounds_change_the_plan_never_the_answer() {
    use veridb_workloads::tpch::{q1, q6};
    let (db, mal) = lying_lineitem();
    let plan = |sql| db.explain(sql, &veridb::PlanOptions::default()).unwrap();
    let honest_q1 = db.sql(q1()).unwrap();
    let honest_q6 = db.sql(q6()).unwrap();
    assert!(
        plan(q1()).contains("SeqScan on lineitem [filtered"),
        "{}",
        plan(q1())
    );
    assert!(
        plan(q6()).contains("RangeScan(chain 1) on lineitem"),
        "{}",
        plan(q6())
    );

    // Bounds far wider than the data: Q1's 96% range looks narrow and is
    // walked on chain 1.
    mal[1].lie_about_bounds(date_key("1992-01-01"), date_key("2100-01-01"));
    assert!(
        plan(q1()).contains("RangeScan(chain 1) on lineitem"),
        "{}",
        plan(q1())
    );
    assert_same_answer(&db.sql(q1()).unwrap().rows, &honest_q1.rows, "Q1, wide lie");

    // Bounds inside Q6's year: its 14% range looks full and is read in
    // chain-0 order, and Q1 stays a chain-0 scan.
    mal[1].lie_about_bounds(date_key("1994-02-01"), date_key("1994-03-01"));
    assert!(
        plan(q6()).contains("SeqScan on lineitem [filtered"),
        "{}",
        plan(q6())
    );
    assert!(
        plan(q1()).contains("SeqScan on lineitem [filtered"),
        "{}",
        plan(q1())
    );
    assert_same_answer(
        &db.sql(q6()).unwrap().rows,
        &honest_q6.rows,
        "Q6, narrow lie",
    );
    assert_same_answer(
        &db.sql(q1()).unwrap().rows,
        &honest_q1.rows,
        "Q1, narrow lie",
    );

    mal[1].disarm();
    db.verify_now().unwrap();
}

#[test]
fn tamper_under_either_q1_plan_alarms() {
    use veridb_storage::IndexOracle;
    use veridb_workloads::tpch::q1;
    for (lie, access) in [(false, "SeqScan"), (true, "RangeScan(chain 1)")] {
        let (db, mal) = lying_lineitem();
        if lie {
            mal[1].lie_about_bounds(date_key("1992-01-01"), date_key("2100-01-01"));
        }
        let plan = db.explain(q1(), &veridb::PlanOptions::default()).unwrap();
        assert!(plan.contains(&format!("{access} on lineitem")), "{plan}");
        // A row inside Q1's range, so both plans read its cell.
        let inside = db
            .sql("SELECT l_id FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' LIMIT 1")
            .unwrap();
        let addr = mal[0]
            .find_exact(&veridb_storage::ChainKey::val(inside.rows[0][0].clone()))
            .unwrap();
        tamper::overwrite_cell(db.memory(), addr, b"evil").unwrap();
        match db.sql(q1()) {
            Err(e) => assert!(e.is_security_violation(), "{access}: {e}"),
            Ok(_) => panic!("{access}: Q1 over a tampered cell returned an answer"),
        }
        assert!(db.verify_now().is_err(), "{access}");
    }
}
