//! End-to-end SQL tests: DDL/DML, verified scans behind every plan shape,
//! joins under every algorithm, aggregation, and the authenticated
//! portal/client protocol.

use std::sync::Arc;
use veridb_common::{Error, Row, Value, VeriDbConfig};
use veridb_enclave::Enclave;
use veridb_query::{Client, PlanOptions, PreferredJoin, QueryEngine, QueryPortal};
use veridb_storage::Catalog;
use veridb_wrcm::VerifiedMemory;

fn setup() -> (Arc<VerifiedMemory>, Arc<QueryEngine>) {
    let enclave = Enclave::create("sql-test", 1 << 24, [9u8; 32]);
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    // Serial unless a test raises the DOP itself, whatever VERIDB_WORKERS
    // says: these tests check plan shapes against an explicit DOP.
    cfg.workers = 1;
    let mem = VerifiedMemory::new(enclave, &cfg);
    let catalog = Arc::new(Catalog::new(Arc::clone(&mem)));
    (mem, Arc::new(QueryEngine::new(catalog)))
}

fn ints(rows: &[Row], col: usize) -> Vec<i64> {
    rows.iter().map(|r| r[col].as_i64().unwrap()).collect()
}

/// The paper's Figure 8 tables.
fn setup_quote_inventory() -> (Arc<VerifiedMemory>, Arc<QueryEngine>) {
    let (mem, eng) = setup();
    eng.execute("CREATE TABLE quote (id INT PRIMARY KEY, count INT, price INT)")
        .unwrap();
    eng.execute("CREATE TABLE inventory (id INT PRIMARY KEY, count INT, descr TEXT)")
        .unwrap();
    eng.execute("INSERT INTO quote VALUES (1,100,100),(2,100,200),(3,500,100),(4,600,100)")
        .unwrap();
    eng.execute(
        "INSERT INTO inventory VALUES (1,50,'desc1'),(3,200,'desc3'),\
         (4,100,'desc4'),(6,100,'desc6')",
    )
    .unwrap();
    (mem, eng)
}

#[test]
fn create_insert_select_roundtrip() {
    let (mem, eng) = setup();
    eng.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score FLOAT)")
        .unwrap();
    let r = eng
        .execute("INSERT INTO t VALUES (1,'alice',9.5),(2,'bob',7.25),(3,'carol',8.0)")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    let r = eng.execute("SELECT * FROM t").unwrap();
    assert_eq!(r.columns, vec!["id", "name", "score"]);
    assert_eq!(ints(&r.rows, 0), vec![1, 2, 3]);
    mem.verify_now().unwrap();
}

#[test]
fn duplicate_table_and_unknown_table_errors() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    assert!(matches!(
        eng.execute("CREATE TABLE t (id INT PRIMARY KEY)"),
        Err(Error::TableExists(_))
    ));
    assert!(matches!(
        eng.execute("SELECT * FROM ghost"),
        Err(Error::TableNotFound(_))
    ));
}

#[test]
fn point_lookup_uses_index_search_plan() {
    let (mem, eng) = setup_quote_inventory();
    let plan = eng
        .explain("SELECT * FROM quote WHERE id = 3", &PlanOptions::default())
        .unwrap();
    assert!(plan.contains("IndexSearch"), "plan was:\n{plan}");
    let r = eng.execute("SELECT * FROM quote WHERE id = 3").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1], Value::Int(500));
    // Verified miss.
    let r = eng.execute("SELECT * FROM quote WHERE id = 99").unwrap();
    assert!(r.rows.is_empty());
    mem.verify_now().unwrap();
}

#[test]
fn range_predicates_become_range_scans() {
    let (_m, eng) = setup_quote_inventory();
    let plan = eng
        .explain(
            "SELECT * FROM quote WHERE id >= 2 AND id < 4",
            &PlanOptions::default(),
        )
        .unwrap();
    assert!(plan.contains("RangeScan"), "plan was:\n{plan}");
    let r = eng
        .execute("SELECT * FROM quote WHERE id >= 2 AND id < 4")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 3]);
    // BETWEEN sugar.
    let r = eng
        .execute("SELECT * FROM quote WHERE id BETWEEN 2 AND 3")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 3]);
}

#[test]
fn residual_predicates_filter_after_scan() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute("SELECT id FROM quote WHERE price = 100 AND count > 400")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![3, 4]);
}

#[test]
fn example_5_4_join_quote_exceeds_inventory() {
    // SELECT q.id, q.count, i.count FROM quote q, inventory i
    // WHERE q.id = i.id AND q.count > i.count  →  (1,100,50), (3,500,200),
    // (4,600,100).
    let (mem, eng) = setup_quote_inventory();
    for prefer in [
        PreferredJoin::Auto,
        PreferredJoin::Hash,
        PreferredJoin::Merge,
        PreferredJoin::NestedLoop,
    ] {
        let opts = PlanOptions {
            prefer_join: prefer,
            ..Default::default()
        };
        let r = eng
            .execute_with(
                "SELECT q.id, q.count, i.count FROM quote as q, inventory as i \
                 WHERE q.id = i.id and q.count > i.count",
                &opts,
            )
            .unwrap();
        let mut got: Vec<(i64, i64, i64)> = r
            .rows
            .iter()
            .map(|row| {
                (
                    row[0].as_i64().unwrap(),
                    row[1].as_i64().unwrap(),
                    row[2].as_i64().unwrap(),
                )
            })
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(1, 100, 50), (3, 500, 200), (4, 600, 100)],
            "join algorithm {prefer:?} returned wrong rows"
        );
    }
    mem.verify_now().unwrap();
}

#[test]
fn explicit_join_on_syntax() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute("SELECT q.id FROM quote q JOIN inventory i ON q.id = i.id")
        .unwrap();
    assert_eq!(ints(&r.rows, 0).len(), 3); // ids 1, 3, 4
}

#[test]
fn join_plans_match_preferences() {
    let (_m, eng) = setup_quote_inventory();
    let sql = "SELECT q.id FROM quote q, inventory i WHERE q.id = i.id";
    let auto = eng.explain(sql, &PlanOptions::default()).unwrap();
    assert!(auto.contains("IndexNestedLoopJoin"), "auto plan:\n{auto}");
    let hash = eng
        .explain(
            sql,
            &PlanOptions {
                prefer_join: PreferredJoin::Hash,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(hash.contains("HashJoin"), "hash plan:\n{hash}");
    let merge = eng
        .explain(
            sql,
            &PlanOptions {
                prefer_join: PreferredJoin::Merge,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(merge.contains("MergeJoin"), "merge plan:\n{merge}");
}

#[test]
fn aggregation_with_group_by_and_order() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, amount FLOAT)")
        .unwrap();
    eng.execute(
        "INSERT INTO sales VALUES (1,'east',10.0),(2,'west',20.0),\
         (3,'east',30.0),(4,'west',5.0),(5,'north',1.0)",
    )
    .unwrap();
    let r = eng
        .execute(
            "SELECT region, SUM(amount) AS total, COUNT(*) AS n, \
             AVG(amount) AS mean, MIN(amount), MAX(amount) \
             FROM sales GROUP BY region ORDER BY region",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    // east, north, west (sorted).
    assert_eq!(r.rows[0][0], Value::Str("east".into()));
    assert_eq!(r.rows[0][1], Value::Float(40.0));
    assert_eq!(r.rows[0][2], Value::Int(2));
    assert_eq!(r.rows[0][3], Value::Float(20.0));
    assert_eq!(r.rows[0][4], Value::Float(10.0));
    assert_eq!(r.rows[0][5], Value::Float(30.0));
    assert_eq!(r.rows[1][0], Value::Str("north".into()));
    assert_eq!(r.rows[2][0], Value::Str("west".into()));
}

#[test]
fn global_aggregate_over_empty_input() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE e (id INT PRIMARY KEY, x FLOAT)")
        .unwrap();
    let r = eng
        .execute("SELECT COUNT(*), SUM(x), AVG(x) FROM e")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Null);
    assert_eq!(r.rows[0][2], Value::Null);
}

#[test]
fn arithmetic_in_aggregates() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE li (id INT PRIMARY KEY, price FLOAT, disc FLOAT)")
        .unwrap();
    eng.execute("INSERT INTO li VALUES (1,100.0,0.1),(2,200.0,0.25)")
        .unwrap();
    let r = eng
        .execute("SELECT SUM(price * (1 - disc)) AS revenue FROM li")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Float(100.0 * 0.9 + 200.0 * 0.75));
}

#[test]
fn order_by_desc_and_limit() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute("SELECT id, count FROM quote ORDER BY count DESC, id ASC LIMIT 2")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![4, 3]);
}

#[test]
fn update_and_delete_with_filters() {
    let (mem, eng) = setup_quote_inventory();
    let r = eng
        .execute("UPDATE quote SET count = count + 1 WHERE price = 100")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    let r = eng.execute("SELECT count FROM quote WHERE id = 3").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(501));

    let r = eng.execute("DELETE FROM quote WHERE count > 500").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2)); // counts 501 and 601
    let r = eng.execute("SELECT * FROM quote").unwrap();
    assert_eq!(r.rows.len(), 2);
    mem.verify_now().unwrap();
}

#[test]
fn update_of_primary_key_rechains() {
    let (mem, eng) = setup_quote_inventory();
    eng.execute("UPDATE quote SET id = 10 WHERE id = 2")
        .unwrap();
    let r = eng.execute("SELECT id FROM quote").unwrap();
    assert_eq!(ints(&r.rows, 0), vec![1, 3, 4, 10]);
    mem.verify_now().unwrap();
}

#[test]
fn in_list_and_or_predicates() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute("SELECT id FROM quote WHERE id IN (1, 4, 99)")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![1, 4]);
    let r = eng
        .execute("SELECT id FROM quote WHERE count = 600 OR price = 200")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 4]);
    let r = eng
        .execute("SELECT id FROM quote WHERE NOT (price = 100)")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2]);
}

#[test]
fn secondary_chain_accelerates_range() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE ev (id INT PRIMARY KEY, ts INT CHAINED, kind TEXT)")
        .unwrap();
    for i in 0..50 {
        eng.execute(&format!(
            "INSERT INTO ev VALUES ({i}, {}, 'k{}')",
            1000 - i * 10,
            i % 3
        ))
        .unwrap();
    }
    let plan = eng
        .explain(
            "SELECT id FROM ev WHERE ts >= 600 AND ts <= 700",
            &PlanOptions::default(),
        )
        .unwrap();
    assert!(plan.contains("RangeScan(chain 1)"), "plan:\n{plan}");
    let r = eng
        .execute("SELECT id, ts FROM ev WHERE ts >= 600 AND ts <= 700")
        .unwrap();
    assert_eq!(r.rows.len(), 11);
    // Output arrives in ts order (chain order).
    let ts = ints(&r.rows, 1);
    assert!(ts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn three_way_join() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE a (id INT PRIMARY KEY, bx INT)")
        .unwrap();
    eng.execute("CREATE TABLE b (id INT PRIMARY KEY, cx INT)")
        .unwrap();
    eng.execute("CREATE TABLE c (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    eng.execute("INSERT INTO a VALUES (1,10),(2,20),(3,30)")
        .unwrap();
    eng.execute("INSERT INTO b VALUES (10,100),(20,200)")
        .unwrap();
    eng.execute("INSERT INTO c VALUES (100,'x'),(200,'y')")
        .unwrap();
    let r = eng
        .execute(
            "SELECT a.id, c.name FROM a, b, c \
             WHERE a.bx = b.id AND b.cx = c.id ORDER BY id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][1], Value::Str("x".into()));
    assert_eq!(r.rows[1][1], Value::Str("y".into()));
}

#[test]
fn cross_join_without_equi_condition() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE l (id INT PRIMARY KEY)").unwrap();
    eng.execute("CREATE TABLE r (id INT PRIMARY KEY)").unwrap();
    eng.execute("INSERT INTO l VALUES (1),(2)").unwrap();
    eng.execute("INSERT INTO r VALUES (10),(20),(30)").unwrap();
    let res = eng
        .execute("SELECT l.id, r.id FROM l, r WHERE l.id < r.id")
        .unwrap();
    assert_eq!(res.rows.len(), 6);
}

#[test]
fn ambiguous_and_unknown_columns_error() {
    let (_m, eng) = setup_quote_inventory();
    assert!(matches!(
        eng.execute("SELECT count FROM quote, inventory WHERE quote.id = inventory.id"),
        Err(Error::Plan(_))
    ));
    assert!(eng.execute("SELECT nothere FROM quote").is_err());
}

// ---- portal / client protocol ---------------------------------------------------

fn portal_setup() -> (Arc<VerifiedMemory>, Arc<QueryPortal>, Client) {
    let (mem, eng) = setup_quote_inventory();
    let portal = Arc::new(QueryPortal::new(
        Arc::clone(&eng),
        Arc::clone(&mem),
        "client-1",
    ));
    let client = Client::with_key(portal.channel_key_for_attested_client());
    (mem, portal, client)
}

#[test]
fn authenticated_query_round_trip() {
    let (_mem, portal, mut client) = portal_setup();
    let q = client.sign_query("SELECT id, count FROM quote WHERE id = 3");
    let endorsed = portal.submit(&q).unwrap();
    let rows = client.verify_result(&q, &endorsed).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], Value::Int(500));
}

#[test]
fn forged_query_mac_rejected() {
    let (_mem, portal, mut client) = portal_setup();
    let mut q = client.sign_query("SELECT * FROM quote");
    q.sql = "DELETE FROM quote".into(); // host alters the query in flight
    let err = portal.submit(&q).unwrap_err();
    assert!(matches!(err, Error::AuthFailed(_)));
}

#[test]
fn replayed_qid_rejected() {
    let (_mem, portal, mut client) = portal_setup();
    let q = client.sign_query("SELECT * FROM quote");
    portal.submit(&q).unwrap();
    let err = portal.submit(&q).unwrap_err();
    assert!(matches!(err, Error::ReplayDetected { .. }));
}

#[test]
fn tampered_result_rejected_by_client() {
    let (_mem, portal, mut client) = portal_setup();
    let q = client.sign_query("SELECT id FROM quote WHERE id = 1");
    let mut endorsed = portal.submit(&q).unwrap();
    endorsed.result.rows[0] = Row::new(vec![Value::Int(999)]);
    let err = client.verify_result(&q, &endorsed).unwrap_err();
    assert!(matches!(err, Error::AuthFailed(_)));
}

#[test]
fn rollback_attack_detected_via_sequence_numbers() {
    let (_mem, portal, mut client) = portal_setup();
    let q1 = client.sign_query("SELECT * FROM quote WHERE id = 1");
    let e1 = portal.submit(&q1).unwrap();
    client.verify_result(&q1, &e1).unwrap();
    // The adversary replays the old endorsed result for a new query — or
    // equivalently rolls the server back so it re-issues old sequence
    // numbers. Either way the client sees a repeated sequence number.
    let q2 = client.sign_query("SELECT * FROM quote WHERE id = 1");
    let replayed = veridb_query::EndorsedResult {
        qid: q2.qid,
        sequence: e1.sequence, // stale sequence number
        result: e1.result.clone(),
        mac: portal.channel_key_for_attested_client().sign(&[
            &q2.qid.to_le_bytes(),
            &e1.sequence.to_le_bytes(),
            &result_digest_for_test(&e1.result),
        ]),
    };
    let err = client.verify_result(&q2, &replayed).unwrap_err();
    assert!(matches!(err, Error::RollbackDetected { .. }));
}

// Local copy of the digest (the portal's is crate-private by design).
fn result_digest_for_test(result: &veridb_query::QueryResult) -> [u8; 32] {
    let mut buf = Vec::new();
    for c in &result.columns {
        buf.extend_from_slice(c.as_bytes());
        buf.push(0);
    }
    for r in &result.rows {
        r.encode(&mut buf);
    }
    veridb_enclave::mac::sha256(&[b"result", &buf])
}

#[test]
fn portal_refuses_endorsement_after_tampering() {
    let (mem, portal, mut client) = portal_setup();
    // Tamper with the storage directly (first page holding a live cell —
    // the page map's ordering is arbitrary), then force a verification
    // pass.
    let mut tampered = false;
    for page in mem.page_ids() {
        for slot in 0..8u16 {
            if veridb_wrcm::tamper::overwrite_cell(
                &mem,
                veridb_wrcm::CellAddr { page, slot },
                b"garbage!",
            )
            .is_ok()
            {
                tampered = true;
                break;
            }
        }
        if tampered {
            break;
        }
    }
    assert!(tampered, "no live cell found to tamper with");
    let _ = mem.verify_now(); // poisons the memory
    assert!(mem.poisoned().is_some());
    let q = client.sign_query("SELECT * FROM quote");
    let err = portal.submit(&q).unwrap_err();
    assert!(err.is_security_violation());
}

#[test]
fn attestation_flow_establishes_channel() {
    let (mem, eng) = setup_quote_inventory();
    let portal = Arc::new(QueryPortal::new(
        Arc::clone(&eng),
        Arc::clone(&mem),
        "attested",
    ));
    let enclave = mem.enclave();
    let qe = veridb_enclave::QuotingEnclave::new([77u8; 32]);
    let mut client = Client::attest(
        enclave,
        &qe,
        &qe.verifier(),
        enclave.measurement(),
        portal.channel_key_for_attested_client(),
        b"fresh-nonce",
    )
    .unwrap();
    let q = client.sign_query("SELECT COUNT(*) FROM quote");
    let e = portal.submit(&q).unwrap();
    let rows = client.verify_result(&q, &e).unwrap();
    assert_eq!(rows[0][0], Value::Int(4));
}

// ---- DISTINCT / HAVING / EXPLAIN (engine extensions) ----------------------

#[test]
fn select_distinct_removes_duplicates() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE d (id INT PRIMARY KEY, grp INT, tag TEXT)")
        .unwrap();
    eng.execute("INSERT INTO d VALUES (1,1,'a'),(2,1,'a'),(3,2,'b'),(4,2,'b'),(5,3,'a')")
        .unwrap();
    let r = eng
        .execute("SELECT DISTINCT grp, tag FROM d ORDER BY grp")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    let r = eng.execute("SELECT DISTINCT tag FROM d").unwrap();
    assert_eq!(r.rows.len(), 2);
    // DISTINCT on unique output is a no-op.
    let r = eng.execute("SELECT DISTINCT id FROM d").unwrap();
    assert_eq!(r.rows.len(), 5);
}

#[test]
fn having_filters_groups() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE h (id INT PRIMARY KEY, grp TEXT, amt INT)")
        .unwrap();
    eng.execute("INSERT INTO h VALUES (1,'a',10),(2,'a',20),(3,'b',1),(4,'b',2),(5,'c',100)")
        .unwrap();
    // HAVING over an aggregate that also appears in the select list.
    let r = eng
        .execute(
            "SELECT grp, SUM(amt) AS total FROM h GROUP BY grp \
             HAVING SUM(amt) > 5 ORDER BY grp",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Str("a".into()));
    assert_eq!(r.rows[1][0], Value::Str("c".into()));
    // HAVING over an aggregate NOT in the select list.
    let r = eng
        .execute("SELECT grp FROM h GROUP BY grp HAVING COUNT(*) > 1 ORDER BY grp")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // HAVING without aggregates/groups is rejected.
    assert!(eng.execute("SELECT id FROM h HAVING id > 1").is_err());
}

#[test]
fn explain_statement_renders_plan() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute("EXPLAIN SELECT q.id FROM quote q, inventory i WHERE q.id = i.id")
        .unwrap();
    assert_eq!(r.columns, vec!["plan"]);
    let text: String = r
        .rows
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("IndexNestedLoopJoin"), "plan text:\n{text}");
    assert!(text.contains("SeqScan"), "plan text:\n{text}");
}

#[test]
fn distinct_having_combined() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE dh (id INT PRIMARY KEY, grp INT, v INT)")
        .unwrap();
    for i in 0..20 {
        eng.execute(&format!(
            "INSERT INTO dh VALUES ({i}, {}, {})",
            i % 4,
            i % 2
        ))
        .unwrap();
    }
    let r = eng
        .execute("SELECT DISTINCT COUNT(*) FROM dh GROUP BY grp HAVING COUNT(*) >= 5")
        .unwrap();
    // All four groups have exactly 5 members → one distinct count value.
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(5));
}

// ---- nested queries (§3.2's named extension) --------------------------------

#[test]
fn scalar_subquery_in_where() {
    let (_m, eng) = setup_quote_inventory();
    // Rows with count above the average count.
    let r = eng
        .execute(
            "SELECT id FROM quote WHERE count > \
             (SELECT AVG(count) FROM quote)",
        )
        .unwrap();
    // avg(count) = (100+100+500+600)/4 = 325 → ids 3, 4.
    assert_eq!(ints(&r.rows, 0), vec![3, 4]);
}

#[test]
fn scalar_subquery_in_select_list() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute("SELECT id, (SELECT MAX(count) FROM inventory) FROM quote WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Int(200));
}

#[test]
fn in_subquery() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute("SELECT id FROM quote WHERE id IN (SELECT id FROM inventory)")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![1, 3, 4]);
    let r = eng
        .execute("SELECT id FROM quote WHERE id NOT IN (SELECT id FROM inventory)")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2]);
}

#[test]
fn nested_subqueries_two_levels() {
    let (_m, eng) = setup_quote_inventory();
    let r = eng
        .execute(
            "SELECT id FROM quote WHERE count = \
             (SELECT MAX(count) FROM quote WHERE id IN \
              (SELECT id FROM inventory))",
        )
        .unwrap();
    // Inventory ids ∩ quote: 1, 3, 4 → max count = 600 → id 4.
    assert_eq!(ints(&r.rows, 0), vec![4]);
}

#[test]
fn subquery_error_cases() {
    let (_m, eng) = setup_quote_inventory();
    // Scalar subquery with several rows.
    assert!(matches!(
        eng.execute("SELECT id FROM quote WHERE count = (SELECT count FROM quote)"),
        Err(Error::Plan(_))
    ));
    // Scalar subquery with several columns.
    assert!(matches!(
        eng.execute("SELECT id FROM quote WHERE count = (SELECT id, count FROM quote)"),
        Err(Error::Plan(_))
    ));
    // Empty scalar subquery yields NULL → no rows, no error.
    let r = eng
        .execute(
            "SELECT id FROM quote WHERE count = \
             (SELECT count FROM quote WHERE id = 999)",
        )
        .unwrap();
    assert!(r.rows.is_empty());
    // Correlated subqueries are rejected, not silently misevaluated.
    assert!(eng
        .execute(
            "SELECT id FROM quote q WHERE count = \
             (SELECT count FROM inventory i WHERE i.id = q.id)"
        )
        .is_err());
}

#[test]
fn subquery_equality_can_drive_index_search() {
    let (_m, eng) = setup_quote_inventory();
    // The lowered literal becomes a pushed-down point predicate.
    let r = eng
        .execute(
            "EXPLAIN SELECT * FROM quote WHERE id = \
             (SELECT MIN(id) FROM inventory)",
        )
        .unwrap();
    let text: String = r
        .rows
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("IndexSearch"), "plan:\n{text}");
}

// ---- LIKE and scalar functions ----------------------------------------------

#[test]
fn like_predicates() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE parts (id INT PRIMARY KEY, brand TEXT)")
        .unwrap();
    eng.execute(
        "INSERT INTO parts VALUES (1,'Brand#12'),(2,'Brand#13'),\
         (3,'Brand#23'),(4,'Other')",
    )
    .unwrap();
    let r = eng
        .execute("SELECT id FROM parts WHERE brand LIKE 'Brand#1%'")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![1, 2]);
    let r = eng
        .execute("SELECT id FROM parts WHERE brand LIKE '%#_3'")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 3]);
    let r = eng
        .execute("SELECT id FROM parts WHERE brand NOT LIKE 'Brand#%'")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![4]);
}

#[test]
fn scalar_functions() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE s (id INT PRIMARY KEY, name TEXT, x INT)")
        .unwrap();
    eng.execute("INSERT INTO s VALUES (1,'Hello',-5),(2,'wOrLd',7)")
        .unwrap();
    let r = eng
        .execute("SELECT UPPER(name), LOWER(name), LENGTH(name), ABS(x) FROM s")
        .unwrap();
    assert_eq!(r.rows[0].values()[0], Value::Str("HELLO".into()));
    assert_eq!(r.rows[0].values()[1], Value::Str("hello".into()));
    assert_eq!(r.rows[0].values()[2], Value::Int(5));
    assert_eq!(r.rows[0].values()[3], Value::Int(5));
    assert_eq!(r.rows[1].values()[1], Value::Str("world".into()));

    let r = eng
        .execute("SELECT SUBSTR(name, 2, 3) FROM s WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Str("ell".into()));
    let r = eng
        .execute("SELECT SUBSTR(name, 3) FROM s WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Str("llo".into()));

    // Functions compose with filters, grouping, and aggregates.
    let r = eng
        .execute("SELECT id FROM s WHERE LENGTH(name) = 5 AND UPPER(name) LIKE 'H%'")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![1]);
    let r = eng
        .execute("SELECT UPPER(name), COUNT(*) FROM s GROUP BY UPPER(name) ORDER BY 1")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn function_arity_and_type_errors() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE s (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    eng.execute("INSERT INTO s VALUES (1,'x')").unwrap();
    assert!(eng.execute("SELECT SUBSTR(name) FROM s").is_err());
    assert!(eng.execute("SELECT UPPER(id) FROM s").is_err());
    assert!(eng.execute("SELECT id FROM s WHERE id LIKE 'x%'").is_err());
    assert!(eng.execute("SELECT NOSUCHFN(id) FROM s").is_err());
}

#[test]
fn merge_join_with_duplicates_on_both_sides() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT)")
        .unwrap();
    eng.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT)")
        .unwrap();
    // k=5 appears 3× on the left and 2× on the right → 6 joined rows;
    // k=7 appears 1× and 3× → 3 rows; k=9 left-only → 0.
    eng.execute("INSERT INTO l VALUES (1,5),(2,5),(3,5),(4,7),(5,9)")
        .unwrap();
    eng.execute("INSERT INTO r VALUES (10,5),(11,5),(12,7),(13,7),(14,7),(15,8)")
        .unwrap();
    for prefer in [
        PreferredJoin::Merge,
        PreferredJoin::Hash,
        PreferredJoin::Auto,
    ] {
        let res = eng
            .execute_with(
                "SELECT l.id, r.id FROM l, r WHERE l.k = r.k",
                &PlanOptions {
                    prefer_join: prefer,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(res.rows.len(), 3 * 2 + 3, "{prefer:?}");
    }
}

#[test]
fn distinct_with_order_and_limit() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE d (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..30 {
        eng.execute(&format!("INSERT INTO d VALUES ({i}, {})", i % 6))
            .unwrap();
    }
    let r = eng
        .execute("SELECT DISTINCT v FROM d ORDER BY v DESC LIMIT 3")
        .unwrap();
    assert_eq!(ints(&r.rows, 0), vec![5, 4, 3]);
}

// ---- morsel-driven parallel execution -----------------------------------

/// A table big enough for the morsel splitter to engage (>= 512 rows).
fn setup_wide() -> (Arc<VerifiedMemory>, Arc<QueryEngine>) {
    let (mem, eng) = setup();
    eng.execute("CREATE TABLE w (id INT PRIMARY KEY, grp INT, x INT)")
        .unwrap();
    let mut vals = Vec::new();
    for i in 0..1500i64 {
        vals.push(format!("({},{},{})", i, i % 5, i % 13));
    }
    eng.execute(&format!("INSERT INTO w VALUES {}", vals.join(",")))
        .unwrap();
    (mem, eng)
}

#[test]
fn parallelize_inserts_exchange_and_gather() {
    let (_m, eng) = setup_wide();
    let sql = "SELECT id, x FROM w WHERE x > 3";
    let serial = eng.explain(sql, &PlanOptions::default()).unwrap();
    assert!(
        !serial.contains("Exchange") && !serial.contains("Gather"),
        "workers=1 plan must be bit-identical to the serial plan:\n{serial}"
    );
    let par = eng
        .explain(
            sql,
            &PlanOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(par.contains("Gather"), "parallel plan:\n{par}");
    assert!(
        par.contains("Exchange [4 workers]"),
        "parallel plan:\n{par}"
    );

    // Grouped aggregation parallelizes without a Gather funnel: the
    // Exchange sits directly under the Aggregate.
    let agg = eng
        .explain(
            "SELECT grp, COUNT(*) FROM w GROUP BY grp",
            &PlanOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(agg.contains("Aggregate"), "agg plan:\n{agg}");
    assert!(agg.contains("Exchange"), "agg plan:\n{agg}");
    assert!(!agg.contains("Gather"), "agg plan:\n{agg}");
}

#[test]
fn engine_default_workers_apply_when_opts_say_inherit() {
    let (_m, eng) = setup_wide();
    let sql = "SELECT id FROM w";
    eng.set_workers(3);
    let plan = eng.explain(sql, &PlanOptions::default()).unwrap();
    assert!(plan.contains("Exchange [3 workers]"), "plan:\n{plan}");
    // An explicit workers=1 overrides the engine default back to serial.
    let serial = eng
        .explain(
            sql,
            &PlanOptions {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(!serial.contains("Exchange"), "plan:\n{serial}");
    eng.set_workers(1);
}

#[test]
fn parallel_scan_matches_serial_rows_and_order() {
    let (mem, eng) = setup_wide();
    let sql = "SELECT id, grp, x FROM w WHERE x > 2 AND id < 1200";
    let serial = eng.execute(sql).unwrap();
    for workers in [2usize, 8] {
        let par = eng
            .execute_with(
                sql,
                &PlanOptions {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            par.rows, serial.rows,
            "workers={workers} must reproduce the serial rows in order"
        );
    }
    mem.verify_now().unwrap();
}

#[test]
fn parallel_aggregate_matches_serial() {
    let (_m, eng) = setup_wide();
    let sql = "SELECT grp, COUNT(*), SUM(x), MIN(id), MAX(id) \
               FROM w GROUP BY grp ORDER BY grp";
    let serial = eng.execute(sql).unwrap();
    for workers in [2usize, 8] {
        let par = eng
            .execute_with(
                sql,
                &PlanOptions {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap();
        // Integer aggregates merge exactly; ORDER BY pins the group order.
        assert_eq!(par.rows, serial.rows, "workers={workers}");
    }
}

#[test]
fn parallel_empty_and_tiny_inputs_degenerate_cleanly() {
    let (_m, eng) = setup();
    eng.execute("CREATE TABLE e (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let opts = PlanOptions {
        workers: 4,
        ..Default::default()
    };
    // Empty table: global aggregate still emits its identity row.
    let r = eng.execute_with("SELECT COUNT(*) FROM e", &opts).unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(0)])]);
    let r = eng.execute_with("SELECT * FROM e", &opts).unwrap();
    assert!(r.rows.is_empty());
    // Tiny table (below the morsel floor): runs as one morsel.
    eng.execute("INSERT INTO e VALUES (1,10),(2,20)").unwrap();
    let r = eng.execute_with("SELECT SUM(v) FROM e", &opts).unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(30)])]);
}

// ---- GROUP BY rewrites reach every child of BETWEEN / IN -------------------

/// Rows `(id, g, v)`: group 10 sums to 12, group 20 to 101.
fn setup_groups() -> (Arc<VerifiedMemory>, Arc<QueryEngine>) {
    let (mem, eng) = setup();
    eng.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)")
        .unwrap();
    eng.execute("INSERT INTO t VALUES (1,10,5),(2,10,7),(3,20,100),(4,20,1)")
        .unwrap();
    (mem, eng)
}

fn int_rows(eng: &QueryEngine, sql: &str) -> Vec<Vec<i64>> {
    let r = eng.execute(sql).unwrap();
    (0..r.rows.len())
        .map(|i| {
            (0..r.columns.len())
                .map(|c| ints(&r.rows[i..=i], c)[0])
                .collect()
        })
        .collect()
}

#[test]
fn group_key_inside_between_and_in_list() {
    let (_m, eng) = setup_groups();
    // BETWEEN / IN test the group key `g`, not the aggregate beside it.
    assert_eq!(
        int_rows(
            &eng,
            "SELECT g BETWEEN 10 AND 15, COUNT(*) FROM t GROUP BY g ORDER BY 1 DESC"
        ),
        vec![vec![1, 2], vec![0, 2]]
    );
    assert_eq!(
        int_rows(
            &eng,
            "SELECT g IN (10), COUNT(*) FROM t GROUP BY g ORDER BY 1 DESC"
        ),
        vec![vec![1, 2], vec![0, 2]]
    );
    assert_eq!(
        int_rows(
            &eng,
            "SELECT g, COUNT(*) FROM t GROUP BY g HAVING g BETWEEN 10 AND 15"
        ),
        vec![vec![10, 2]]
    );
}

#[test]
fn ungrouped_column_inside_between_is_rejected() {
    let (_m, eng) = setup_groups();
    let err = eng
        .execute("SELECT g, v BETWEEN 0 AND 6, SUM(v), COUNT(*) FROM t GROUP BY g")
        .unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "{err:?}");
}

#[test]
fn aggregate_inside_between_and_in_list() {
    let (_m, eng) = setup_groups();
    assert_eq!(
        int_rows(
            &eng,
            "SELECT g, SUM(v) BETWEEN 0 AND 50 FROM t GROUP BY g ORDER BY g"
        ),
        vec![vec![10, 1], vec![20, 0]]
    );
    assert_eq!(
        int_rows(
            &eng,
            "SELECT g, SUM(v) IN (12, 101) FROM t GROUP BY g ORDER BY g"
        ),
        vec![vec![10, 1], vec![20, 1]]
    );
    assert_eq!(
        int_rows(
            &eng,
            "SELECT g FROM t GROUP BY g HAVING SUM(v) BETWEEN 0 AND 50"
        ),
        vec![vec![10]]
    );
}

#[test]
fn a_lying_index_cannot_answer_sql_with_another_tables_row() {
    use veridb_storage::index::IndexLie;
    use veridb_storage::{ChainKey, IndexOracle, MaliciousIndex};
    let (mem, eng) = setup();
    let schema = || {
        veridb_common::Schema::new(vec![
            veridb_common::ColumnDef::new("id", veridb_common::ColumnType::Int),
            veridb_common::ColumnDef::new("count", veridb_common::ColumnType::Int),
            veridb_common::ColumnDef::new("price", veridb_common::ColumnType::Int),
        ])
        .unwrap()
    };
    let lying = |name: &str| {
        let mal = Arc::new(MaliciousIndex::new());
        eng.catalog()
            .create_table_with_indexes(name, schema(), vec![Box::new(Arc::clone(&mal))])
            .unwrap();
        mal
    };
    let victim = lying("victim");
    let other = lying("other");
    eng.execute("INSERT INTO victim VALUES (1,100,100),(2,100,200),(3,500,100),(4,600,100)")
        .unwrap();
    eng.execute("INSERT INTO other VALUES (2,999,999)").unwrap();
    let forged = other.find_exact(&ChainKey::val(Value::Int(2))).unwrap();
    victim.arm(IndexLie::WrongRecord(forged));

    for sql in [
        "SELECT * FROM victim WHERE id = 2",
        "SELECT * FROM victim WHERE id >= 2",
    ] {
        match eng.execute(sql) {
            Err(Error::TamperDetected(_)) => {}
            other => panic!("{sql}: {other:?}"),
        }
    }
    victim.disarm();
    let r = eng.execute("SELECT * FROM victim WHERE id >= 2").unwrap();
    assert_eq!(ints(&r.rows, 0), vec![2, 3, 4]);
    mem.verify_now().unwrap();
}
