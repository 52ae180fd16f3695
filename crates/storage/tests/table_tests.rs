//! Integration tests for the verifiable table layer: CRUD, chain
//! maintenance, the paper's worked examples, verified scans, and attacks
//! through the untrusted index.

use std::ops::Bound;
use std::sync::Arc;
use veridb_common::{ColumnDef, ColumnType, Error, Row, Schema, Value, VeriDbConfig};
use veridb_enclave::Enclave;
use veridb_storage::index::IndexLie;
use veridb_storage::{Catalog, ChainIndex, IndexOracle, MaliciousIndex, Table};
use veridb_wrcm::VerifiedMemory;

fn memory() -> Arc<VerifiedMemory> {
    let enclave = Enclave::create("table-test", 1 << 22, [6u8; 32]);
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None; // verification driven manually in tests
    VerifiedMemory::new(enclave, &cfg)
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// The quote relation of Figure 4: id (pk), count, price.
fn quote_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", ColumnType::Int),
        ColumnDef::new("count", ColumnType::Int),
        ColumnDef::new("price", ColumnType::Int),
    ])
    .unwrap()
}

fn quote_table(mem: &Arc<VerifiedMemory>) -> Arc<Table> {
    let t = Table::create(Arc::clone(mem), "quote", quote_schema()).unwrap();
    // Figure 4's contents: (id1..id4, count, price).
    for (id, count, price) in [(1, 100, 100), (2, 100, 200), (3, 500, 100), (4, 600, 100)] {
        t.insert(Row::new(vec![int(id), int(count), int(price)]))
            .unwrap();
    }
    t
}

#[test]
fn figure_4_point_lookups_with_evidence() {
    let mem = memory();
    let t = quote_table(&mem);

    // ⟨id1, id2, (100,$100)⟩ proves the existence of id1 (Example 4.3).
    let row = t.get_by_pk(&int(1)).unwrap().unwrap();
    assert_eq!(row.values(), &[int(1), int(100), int(100)]);

    // A query for id > id4 returns null with evidence ⟨id4, ⊤, …⟩.
    assert_eq!(t.get_by_pk(&int(99)).unwrap(), None);
    // A query below the minimum is proven absent by the sentinel ⟨⊥, id1⟩.
    assert_eq!(t.get_by_pk(&int(0)).unwrap(), None);
    // A gap inside the table.
    t.delete(&int(2)).unwrap();
    assert_eq!(t.get_by_pk(&int(2)).unwrap(), None);

    mem.verify_now().unwrap();
}

#[test]
fn figure_6_multi_column_chain_evolution() {
    // Two-chain relation; insert ⟨1, 4, d1⟩ then ⟨3, 2, d2⟩ and check the
    // chains evolve exactly as Figure 6 shows.
    let mem = memory();
    let schema = Schema::new(vec![
        ColumnDef::new("c1", ColumnType::Int),
        ColumnDef::chained("c2", ColumnType::Int),
        ColumnDef::new("data", ColumnType::Str),
    ])
    .unwrap();
    let t = Table::create(Arc::clone(&mem), "fig6", schema).unwrap();

    t.insert(Row::new(vec![int(1), int(4), Value::Str("data1".into())]))
        .unwrap();
    // Chain 1: ⊥ → 1 → ⊤, chain 2: ⊥ → 4 → ⊤.
    let c1: Vec<Row> = t.seq_scan().collect_rows().unwrap();
    assert_eq!(c1.len(), 1);

    t.insert(Row::new(vec![int(3), int(2), Value::Str("data2".into())]))
        .unwrap();
    // Chain 1 order: 1, 3. Chain 2 order: 2 (pk 3), 4 (pk 1).
    let by_c1: Vec<i64> = t
        .seq_scan()
        .collect_rows()
        .unwrap()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert_eq!(by_c1, vec![1, 3]);
    let by_c2: Vec<(i64, i64)> = t
        .range_scan(1, Bound::Unbounded, Bound::Unbounded)
        .collect_rows()
        .unwrap()
        .iter()
        .map(|r| (r[1].as_i64().unwrap(), r[0].as_i64().unwrap()))
        .collect();
    assert_eq!(by_c2, vec![(2, 3), (4, 1)]);

    mem.verify_now().unwrap();
}

#[test]
fn range_scan_bounds_and_evidence_records() {
    let mem = memory();
    let t = quote_table(&mem); // ids 1..4

    // Inclusive range hitting interior keys (Example 5.1's shape).
    let rows = t
        .range_scan(0, Bound::Included(int(2)), Bound::Included(int(3)))
        .collect_rows()
        .unwrap();
    let ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![2, 3]);

    // Exclusive bounds.
    let rows = t
        .range_scan(0, Bound::Excluded(int(1)), Bound::Excluded(int(4)))
        .collect_rows()
        .unwrap();
    let ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![2, 3]);

    // Range entirely below / above / between keys → verified empty.
    assert!(t
        .range_scan(0, Bound::Included(int(-10)), Bound::Included(int(0)))
        .collect_rows()
        .unwrap()
        .is_empty());
    assert!(t
        .range_scan(0, Bound::Included(int(100)), Bound::Included(int(200)))
        .collect_rows()
        .unwrap()
        .is_empty());

    // Unbounded = SeqScan: every record, in key order.
    let all = t.seq_scan().collect_rows().unwrap();
    assert_eq!(all.len(), 4);

    // A scan counts its evidence records: [2,3] needs floor(2)=2... plus
    // the stop happens via nKey(3)=4 > 3, so only the in-range records are
    // read — 2 records.
    let mut scan = t.range_scan(0, Bound::Included(int(2)), Bound::Included(int(3)));
    let mut n = 0;
    for r in scan.by_ref() {
        r.unwrap();
        n += 1;
    }
    assert_eq!(n, 2);
    assert_eq!(scan.records_read(), 2);

    mem.verify_now().unwrap();
}

#[test]
fn range_scan_left_evidence_record_consumed_not_emitted() {
    let mem = memory();
    let t = quote_table(&mem);
    // Range (1.5, 3.5] style: lower bound between keys → the floor record
    // (key 1) is evidence only.
    let mut scan = t.range_scan(0, Bound::Included(int(2)), Bound::Included(int(3)));
    // floor(2) == 2 exactly here; use a between-keys bound instead:
    drop(scan);
    t.delete(&int(2)).unwrap(); // keys now 1,3,4
    scan = t.range_scan(0, Bound::Included(int(2)), Bound::Included(int(3)));
    let rows: Vec<Row> = scan.by_ref().map(|r| r.unwrap()).collect();
    let ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![3]);
    // floor(2) = record 1 (evidence), then 3 (emitted); nKey(3)=4 > 3 stops.
    assert_eq!(scan.records_read(), 2);
    mem.verify_now().unwrap();
}

#[test]
fn secondary_chain_with_duplicate_values() {
    let mem = memory();
    let schema = Schema::new(vec![
        ColumnDef::new("id", ColumnType::Int),
        ColumnDef::chained("grp", ColumnType::Int),
        ColumnDef::new("payload", ColumnType::Str),
    ])
    .unwrap();
    let t = Table::create(Arc::clone(&mem), "dups", schema).unwrap();
    for (id, grp) in [(1, 10), (2, 20), (3, 10), (4, 10), (5, 30)] {
        t.insert(Row::new(vec![
            int(id),
            int(grp),
            Value::Str(format!("p{id}")),
        ]))
        .unwrap();
    }
    // Equality on the secondary chain returns all three grp=10 rows.
    let rows = t.scan_eq(1, &int(10)).collect_rows().unwrap();
    let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 3, 4]);

    // Range [10, 20] picks up grp 10 and 20.
    let rows = t
        .range_scan(1, Bound::Included(int(10)), Bound::Included(int(20)))
        .collect_rows()
        .unwrap();
    assert_eq!(rows.len(), 4);

    // Verified-empty equality for a missing group.
    assert!(t.scan_eq(1, &int(99)).collect_rows().unwrap().is_empty());
    mem.verify_now().unwrap();
}

#[test]
fn duplicate_primary_key_rejected() {
    let mem = memory();
    let t = quote_table(&mem);
    let err = t
        .insert(Row::new(vec![int(1), int(0), int(0)]))
        .unwrap_err();
    assert!(matches!(err, Error::DuplicateKey(_)));
    mem.verify_now().unwrap();
}

#[test]
fn delete_missing_key_is_verified_absent() {
    let mem = memory();
    let t = quote_table(&mem);
    assert!(matches!(t.delete(&int(42)), Err(Error::KeyNotFound(_))));
    mem.verify_now().unwrap();
}

#[test]
fn update_in_place_and_key_changing() {
    let mem = memory();
    let t = quote_table(&mem);
    // In-place: no chained column changes.
    t.update(&int(3), Row::new(vec![int(3), int(555), int(101)]))
        .unwrap();
    assert_eq!(
        t.get_by_pk(&int(3)).unwrap().unwrap().values(),
        &[int(3), int(555), int(101)]
    );
    // Key-changing: pk 4 → 40 (delete + insert).
    t.update(&int(4), Row::new(vec![int(40), int(600), int(100)]))
        .unwrap();
    assert!(t.get_by_pk(&int(4)).unwrap().is_none());
    assert!(t.get_by_pk(&int(40)).unwrap().is_some());
    let ids: Vec<i64> = t
        .seq_scan()
        .collect_rows()
        .unwrap()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3, 40]);
    mem.verify_now().unwrap();
}

#[test]
fn update_with_closure() {
    let mem = memory();
    let t = quote_table(&mem);
    t.update_with(&int(1), |row| {
        let c = row[1].as_i64().unwrap();
        *row = Row::new(vec![row[0].clone(), int(c - 10), row[2].clone()]);
    })
    .unwrap();
    assert_eq!(t.get_by_pk(&int(1)).unwrap().unwrap()[1], int(90));
    mem.verify_now().unwrap();
}

#[test]
fn growing_updates_relocate_and_stay_verified() {
    let mem = memory();
    let schema = Schema::new(vec![
        ColumnDef::new("id", ColumnType::Int),
        ColumnDef::new("blob", ColumnType::Str),
    ])
    .unwrap();
    let t = Table::create(Arc::clone(&mem), "grow", schema).unwrap();
    for i in 0..50 {
        t.insert(Row::new(vec![int(i), Value::Str("tiny".into())]))
            .unwrap();
    }
    // Grow each row by ~50×, forcing relocations across pages.
    for i in 0..50 {
        t.update(&int(i), Row::new(vec![int(i), Value::Str("X".repeat(200))]))
            .unwrap();
    }
    for i in 0..50 {
        let row = t.get_by_pk(&int(i)).unwrap().unwrap();
        assert_eq!(row[1].as_str().unwrap().len(), 200);
    }
    let ids: Vec<i64> = t
        .seq_scan()
        .collect_rows()
        .unwrap()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert_eq!(ids, (0..50).collect::<Vec<_>>());
    mem.verify_now().unwrap();
}

#[test]
fn thousands_of_rows_span_pages_and_verify() {
    let mem = memory();
    let t = quote_table(&mem);
    for i in 5..2000 {
        t.insert(Row::new(vec![int(i), int(i % 7), int(i % 11)]))
            .unwrap();
    }
    assert_eq!(t.row_count(), 1999);
    assert!(mem.page_count() > 1, "rows must span multiple pages");
    let all = t.seq_scan().collect_rows().unwrap();
    assert_eq!(all.len(), 1999);
    // Spot-check ordering.
    assert!(all.windows(2).all(|w| w[0][0] < w[1][0]));
    mem.verify_now().unwrap();
}

// ---- attacks through the untrusted index --------------------------------

fn malicious_table(mem: &Arc<VerifiedMemory>) -> (Arc<Table>, Arc<MaliciousIndex>) {
    // Build a table whose primary index we control. The IndexOracle must be
    // shared, so wrap it in an Arc-backed shim.
    struct Shim(Arc<MaliciousIndex>);
    impl IndexOracle for Shim {
        fn find_floor(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
            self.0.find_floor(k)
        }
        fn find_below(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
            self.0.find_below(k)
        }
        fn find_exact(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
            self.0.find_exact(k)
        }
        fn upsert(&self, k: veridb_storage::ChainKey, a: veridb_wrcm::CellAddr) {
            self.0.upsert(k, a)
        }
        fn remove(&self, k: &veridb_storage::ChainKey) {
            self.0.remove(k)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn next_entries(
            &self,
            from: &veridb_storage::ChainKey,
            limit: usize,
        ) -> Vec<(veridb_storage::ChainKey, veridb_wrcm::CellAddr)> {
            self.0.next_entries(from, limit)
        }
    }
    let mal = Arc::new(MaliciousIndex::new());
    let t = Table::create_with_indexes(
        Arc::clone(mem),
        "victim",
        quote_schema(),
        vec![Box::new(Shim(Arc::clone(&mal)))],
    )
    .unwrap();
    for (id, count, price) in [(1, 100, 100), (2, 100, 200), (3, 500, 100), (4, 600, 100)] {
        t.insert(Row::new(vec![int(id), int(count), int(price)]))
            .unwrap();
    }
    (t, mal)
}

#[test]
fn index_denying_existing_key_is_detected() {
    let mem = memory();
    let (t, mal) = malicious_table(&mem);
    mal.arm(IndexLie::DenyAll);
    let err = t.get_by_pk(&int(2)).unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)));
    mal.disarm();
    assert!(t.get_by_pk(&int(2)).unwrap().is_some());
}

#[test]
fn index_returning_wrong_record_is_detected() {
    let mem = memory();
    let (t, mal) = malicious_table(&mem);
    // Point the index at record id=4's address for every query.
    let addr4 = {
        mal.disarm();
        mal.find_exact(&veridb_storage::ChainKey::val(int(4)))
            .unwrap()
    };
    mal.arm(IndexLie::WrongRecord(addr4));
    // Asking for key 2 and getting record ⟨4, ⊤⟩ must be rejected.
    let err = t.get_by_pk(&int(2)).unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)));
}

#[test]
fn index_undershoot_hides_existing_key_and_is_detected() {
    let mem = memory();
    let (t, mal) = malicious_table(&mem);
    // The undershooting index returns record 1 as floor(2); record 1's
    // nKey is 2, so "key 2 absent" would require 1 < 2 < 2 — false. The
    // check catches the omission.
    mal.arm(IndexLie::Undershoot);
    let err = t.get_by_pk(&int(2)).unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)));
}

#[test]
fn range_scan_omission_via_denying_index_is_detected() {
    let mem = memory();
    let (t, mal) = malicious_table(&mem);
    mal.arm(IndexLie::DenyAll);
    let result: Result<Vec<Row>, Error> = t
        .range_scan(0, Bound::Included(int(1)), Bound::Included(int(4)))
        .collect();
    assert!(matches!(result, Err(Error::TamperDetected(_))));
}

// ---- records bound to their table -----------------------------------------

/// Figure 4's quote relation with `count` as a secondary chain.
fn chained_quote_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", ColumnType::Int),
        ColumnDef::chained("count", ColumnType::Int),
        ColumnDef::new("price", ColumnType::Int),
    ])
    .unwrap()
}

/// `victim` over [`chained_quote_schema`], both of its chain indexes
/// lying on demand, loaded with Figure 4's rows.
fn chained_victim(mem: &Arc<VerifiedMemory>) -> (Arc<Table>, [Arc<MaliciousIndex>; 2]) {
    let mal = [
        Arc::new(MaliciousIndex::new()),
        Arc::new(MaliciousIndex::new()),
    ];
    let t = Table::create_with_indexes(
        Arc::clone(mem),
        "victim",
        chained_quote_schema(),
        mal.iter()
            .map(|m| Box::new(Arc::clone(m)) as Box<dyn IndexOracle>)
            .collect(),
    )
    .unwrap();
    for (id, count, price) in [(1, 100, 100), (2, 100, 200), (3, 500, 100), (4, 600, 100)] {
        t.insert(Row::new(vec![int(id), int(count), int(price)]))
            .unwrap();
    }
    (t, mal)
}

fn ids(rows: &[Row]) -> Vec<i64> {
    rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
}

#[test]
fn an_index_cannot_answer_with_another_tables_record() {
    let mem = memory();
    let (victim, mal) = malicious_table(&mem);
    let other = Table::create(Arc::clone(&mem), "other", quote_schema()).unwrap();
    // `other`'s only record ⟨2, ⊤, (999, 999)⟩: its key matches the query
    // and its nKey closes the chain, so every §5.2 condition holds on it.
    let forged = other
        .insert(Row::new(vec![int(2), int(999), int(999)]))
        .unwrap();
    mal.arm(IndexLie::WrongRecord(forged));

    let err = victim.get_by_pk(&int(2)).unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)), "{err:?}");
    // Without the table binding this scan returned only other's row,
    // hiding victim's rows 2, 3 and 4 behind its nKey = ⊤.
    let err = victim
        .range_scan(0, Bound::Included(int(2)), Bound::Unbounded)
        .collect_rows()
        .unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)), "{err:?}");

    mal.disarm();
    assert_eq!(
        victim.get_by_pk(&int(2)).unwrap().unwrap().values(),
        &[int(2), int(100), int(200)]
    );
    mem.verify_now().unwrap();
}

#[test]
fn a_secondary_index_cannot_answer_with_another_tables_record() {
    let mem = memory();
    let (victim, mal) = chained_victim(&mem);
    let other = Table::create(Arc::clone(&mem), "other", chained_quote_schema()).unwrap();
    // ⟨(50, 2), ⊤⟩ on chain 1 covers the left end of `count >= 100` and
    // claims nothing follows it.
    let forged = other
        .insert(Row::new(vec![int(2), int(50), int(999)]))
        .unwrap();
    mal[1].arm(IndexLie::WrongRecord(forged));

    let err = victim.scan_eq(1, &int(100)).collect_rows().unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)), "{err:?}");
    let err = victim
        .range_scan(1, Bound::Included(int(100)), Bound::Unbounded)
        .collect_rows()
        .unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)), "{err:?}");

    mal[1].disarm();
    assert_eq!(
        ids(&victim.scan_eq(1, &int(100)).collect_rows().unwrap()),
        [1, 2]
    );
    mem.verify_now().unwrap();
}

/// Every live cell address in the memory, in page order.
fn live_cells(mem: &VerifiedMemory) -> Vec<veridb_wrcm::CellAddr> {
    let mut pages = mem.page_ids();
    pages.sort_unstable();
    pages
        .into_iter()
        .flat_map(|page| {
            mem.with_page_mut(page, |p| p.live_slot_ids())
                .unwrap()
                .into_iter()
                .map(move |slot| veridb_wrcm::CellAddr { page, slot })
        })
        .collect()
}

#[test]
fn any_verified_address_a_lying_index_names_yields_the_honest_answer_or_an_alarm() {
    let mem = memory();
    let (victim, mal) = chained_victim(&mem);
    let other = Table::create(Arc::clone(&mem), "other", chained_quote_schema()).unwrap();
    for (id, count) in [(1, 100), (2, 50), (3, 500), (5, 100)] {
        other
            .insert(Row::new(vec![int(id), int(count), int(999)]))
            .unwrap();
    }
    // A cell outside every table — as a spill buffer's would be — whose
    // bytes claim to be victim's record 2 on both chains.
    let foreign = veridb_storage::StoredRecord::new(
        vec![
            (
                veridb_storage::ChainKey::val(int(2)),
                veridb_storage::ChainKey::PosInf,
            ),
            (
                veridb_storage::ChainKey::pair(int(100), int(2)),
                veridb_storage::ChainKey::PosInf,
            ),
        ],
        Row::new(vec![int(2), int(999), int(999)]),
    );
    let scratch = mem.allocate_page();
    mem.insert_in(scratch, &foreign.encode_to_vec()).unwrap();

    let get = || victim.get_by_pk(&int(2));
    let range = || {
        victim
            .range_scan(0, Bound::Included(int(2)), Bound::Included(int(3)))
            .collect_rows()
    };
    let eq = || victim.scan_eq(1, &int(100)).collect_rows();
    let (honest_get, honest_range, honest_eq) = (get().unwrap(), range().unwrap(), eq().unwrap());
    assert_eq!(ids(&honest_range), [2, 3]);
    assert_eq!(ids(&honest_eq), [1, 2]);

    let cells = live_cells(&mem);
    assert_eq!(
        cells.len(),
        2 * (2 + 4) + 1,
        "sentinels, rows and the foreign cell"
    );
    for addr in cells {
        for m in &mal {
            m.arm(IndexLie::WrongRecord(addr));
        }
        match get() {
            Ok(row) => assert_eq!(row, honest_get, "get_by_pk via {addr}"),
            Err(e) => assert!(matches!(e, Error::TamperDetected(_)), "{addr}: {e:?}"),
        }
        match range() {
            Ok(rows) => assert_eq!(rows, honest_range, "range_scan via {addr}"),
            Err(e) => assert!(matches!(e, Error::TamperDetected(_)), "{addr}: {e:?}"),
        }
        match eq() {
            Ok(rows) => assert_eq!(rows, honest_eq, "scan_eq via {addr}"),
            Err(e) => assert!(matches!(e, Error::TamperDetected(_)), "{addr}: {e:?}"),
        }
        for m in &mal {
            m.disarm();
        }
    }
    mem.verify_now().unwrap();
}

#[test]
fn a_forged_record_of_the_wrong_shape_is_tampering_not_a_panic() {
    let mem = memory();
    let (victim, _mal) = chained_victim(&mem);
    let addr = victim
        .insert(Row::new(vec![int(9), int(700), int(1)]))
        .unwrap();
    // The host rewrites the cell as a well-formed record with one chain
    // where the table has two.
    let short = veridb_storage::StoredRecord::new(
        vec![(
            veridb_storage::ChainKey::val(int(9)),
            veridb_storage::ChainKey::PosInf,
        )],
        Row::new(vec![int(9), int(700), int(1)]),
    );
    veridb_wrcm::tamper::overwrite_cell(&mem, addr, &short.encode_to_vec()).unwrap();
    for scan in [
        victim.range_scan(1, Bound::Included(int(650)), Bound::Unbounded),
        victim.seq_scan(),
    ] {
        let err = scan.collect_rows().unwrap_err();
        assert!(matches!(err, Error::TamperDetected(_)), "{err:?}");
    }
    let err = victim.get_by_pk(&int(9)).unwrap_err();
    assert!(matches!(err, Error::TamperDetected(_)), "{err:?}");
}

// ---- concurrency ---------------------------------------------------------

#[test]
fn concurrent_readers_and_writers_stay_consistent() {
    let mem = memory();
    let t = quote_table(&mem);
    for i in 5..500 {
        t.insert(Row::new(vec![int(i), int(i), int(i)])).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    // Two writer threads inserting disjoint key ranges + updating.
    for w in 0..2i64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let base = 1000 + w * 10_000;
            let mut i = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) && i < 300 {
                t.insert(Row::new(vec![int(base + i), int(i), int(i)]))
                    .unwrap();
                if i % 3 == 0 {
                    t.update_with(&int(base + i), |row| {
                        *row = Row::new(vec![row[0].clone(), int(-1), row[2].clone()]);
                    })
                    .unwrap();
                }
                i += 1;
            }
        }));
    }
    // Reader threads doing point gets and short scans.
    for r in 0..2u64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = r as i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) && i < 2000 {
                let _ = t.get_by_pk(&int(5 + (i % 400)));
                i += 13;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    mem.verify_now().unwrap();
    assert!(mem.poisoned().is_none());
}

#[test]
fn catalog_end_to_end_with_verification() {
    let mem = memory();
    let catalog = Catalog::new(Arc::clone(&mem));
    let t = catalog.create_table("quote", quote_schema()).unwrap();
    t.insert(Row::new(vec![int(1), int(2), int(3)])).unwrap();
    assert_eq!(catalog.table("quote").unwrap().row_count(), 1);
    mem.verify_now().unwrap();
}

#[test]
fn honest_chain_index_basics() {
    // Regression guard for the floor semantics the whole layer rests on.
    let idx = ChainIndex::new();
    assert!(idx.is_empty());
    idx.upsert(
        veridb_storage::ChainKey::NegInf,
        veridb_wrcm::CellAddr { page: 1, slot: 0 },
    );
    assert_eq!(
        idx.find_floor(&veridb_storage::ChainKey::val(int(5))),
        Some(veridb_wrcm::CellAddr { page: 1, slot: 0 })
    );
    assert_eq!(idx.find_below(&veridb_storage::ChainKey::NegInf), None);
}

// ---- batched scan fast path ----------------------------------------------

/// An honest index that refuses prefetch hints: `next_entries` stays the
/// trait default (empty), so every scan takes the per-record path.
struct NoPrefetch(ChainIndex);
impl IndexOracle for NoPrefetch {
    fn find_floor(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
        self.0.find_floor(k)
    }
    fn find_below(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
        self.0.find_below(k)
    }
    fn find_exact(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
        self.0.find_exact(k)
    }
    fn upsert(&self, k: veridb_storage::ChainKey, a: veridb_wrcm::CellAddr) {
        self.0.upsert(k, a)
    }
    fn remove(&self, k: &veridb_storage::ChainKey) {
        self.0.remove(k)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

#[test]
fn batched_scan_matches_per_record_scan() {
    let mem = memory();
    let fast = quote_table(&mem);
    let slow = Table::create_with_indexes(
        Arc::clone(&mem),
        "quote_slow",
        quote_schema(),
        vec![Box::new(NoPrefetch(ChainIndex::new()))],
    )
    .unwrap();
    // Mirror quote_table's seed rows so both tables hold identical data.
    for (id, count, price) in [(1, 100, 100), (2, 100, 200), (3, 500, 100), (4, 600, 100)] {
        slow.insert(Row::new(vec![int(id), int(count), int(price)]))
            .unwrap();
    }
    for i in 5..1200 {
        let row = Row::new(vec![int(i), int(i % 7), int(i % 11)]);
        fast.insert(row.clone()).unwrap();
        slow.insert(row).unwrap();
    }
    assert!(mem.page_count() > 1, "rows must span multiple pages");

    let mut s_fast = fast.seq_scan();
    let rows_fast: Vec<Row> = s_fast.by_ref().collect::<Result<_, _>>().unwrap();
    assert!(
        s_fast.batched_rounds() > 0,
        "prefetching index must engage the batch path"
    );
    let mut s_slow = slow.seq_scan();
    let rows_slow: Vec<Row> = s_slow.by_ref().collect::<Result<_, _>>().unwrap();
    assert_eq!(
        s_slow.batched_rounds(),
        0,
        "default next_entries must disable batching"
    );
    assert_eq!(rows_fast, rows_slow);
    assert_eq!(rows_fast.len(), 1199);

    // Bounded ranges agree too (evidence records trimmed identically).
    for (lo, hi) in [
        (Bound::Included(int(100)), Bound::Excluded(int(200))),
        (Bound::Excluded(int(7)), Bound::Included(int(7 + 40))),
        (Bound::Unbounded, Bound::Included(int(3))),
        (Bound::Included(int(5000)), Bound::Unbounded),
    ] {
        let a = fast
            .range_scan(0, lo.clone(), hi.clone())
            .collect_rows()
            .unwrap();
        let b = slow.range_scan(0, lo, hi).collect_rows().unwrap();
        assert_eq!(a, b);
    }
    mem.verify_now().unwrap();
}

/// A prefetcher that answers `next_entries` with honest keys but rotated
/// addresses — every hint points at the wrong record. The scan must fall
/// back to per-record resolution and still return only correct rows; an
/// advisory lie can never surface as data.
struct RotatedPrefetch(ChainIndex);
impl IndexOracle for RotatedPrefetch {
    fn find_floor(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
        self.0.find_floor(k)
    }
    fn find_below(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
        self.0.find_below(k)
    }
    fn find_exact(&self, k: &veridb_storage::ChainKey) -> Option<veridb_wrcm::CellAddr> {
        self.0.find_exact(k)
    }
    fn upsert(&self, k: veridb_storage::ChainKey, a: veridb_wrcm::CellAddr) {
        self.0.upsert(k, a)
    }
    fn remove(&self, k: &veridb_storage::ChainKey) {
        self.0.remove(k)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn next_entries(
        &self,
        from: &veridb_storage::ChainKey,
        limit: usize,
    ) -> Vec<(veridb_storage::ChainKey, veridb_wrcm::CellAddr)> {
        let mut entries = self.0.next_entries(from, limit);
        if entries.len() > 1 {
            let addrs: Vec<_> = entries.iter().map(|(_, a)| *a).collect();
            let n = addrs.len();
            for (i, e) in entries.iter_mut().enumerate() {
                e.1 = addrs[(i + 1) % n];
            }
        }
        entries
    }
}

#[test]
fn lying_prefetch_hints_cannot_corrupt_scan_results() {
    let mem = memory();
    let t = Table::create_with_indexes(
        Arc::clone(&mem),
        "rotated",
        quote_schema(),
        vec![Box::new(RotatedPrefetch(ChainIndex::new()))],
    )
    .unwrap();
    for i in 0..300 {
        t.insert(Row::new(vec![int(i), int(i % 3), int(i % 5)]))
            .unwrap();
    }
    let rows = t.seq_scan().collect_rows().unwrap();
    let ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, (0..300).collect::<Vec<_>>());
    mem.verify_now().unwrap();
}

#[test]
fn batched_scans_race_writers_without_false_alarms() {
    let mem = memory();
    let t = quote_table(&mem);
    for i in 5..600 {
        t.insert(Row::new(vec![int(i), int(i), int(i)])).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..2i64 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let base = 10_000 + w * 10_000;
            let mut i = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) && i < 200 {
                t.insert(Row::new(vec![int(base + i), int(i), int(i)]))
                    .unwrap();
                i += 1;
            }
        }));
    }
    // Scanners drive the batched path while the chain is being spliced:
    // stale prefetch hints must degrade to the fallback, never alarm.
    for _ in 0..2 {
        let t = Arc::clone(&t);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let rows = t.seq_scan().collect_rows().unwrap();
                assert!(rows.len() >= 599, "concurrent inserts only ever add rows");
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(250));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    mem.verify_now().unwrap();
    assert!(mem.poisoned().is_none());
}

// ---- morsel splitting (parallel scan support) ----------------------------

/// A table large enough for `morsel_ranges` to actually split (the
/// splitter refuses to cut tables under 512 rows).
fn big_table(mem: &Arc<VerifiedMemory>, rows: i64) -> Arc<Table> {
    let t = Table::create(Arc::clone(mem), "big", quote_schema()).unwrap();
    for i in 0..rows {
        t.insert(Row::new(vec![int(i), int(i % 7), int(i % 11)]))
            .unwrap();
    }
    t
}

#[test]
fn morsel_ranges_tile_the_full_range() {
    let mem = memory();
    let t = big_table(&mem, 2_000);
    let ranges = t.morsel_ranges(0, &Bound::Unbounded, &Bound::Unbounded, 8);
    assert!(
        ranges.len() > 1,
        "2000 rows at target 8 must split (got {} range(s))",
        ranges.len()
    );
    // Tiling shape: opens unbounded, closes unbounded, and every interior
    // seam pairs Excluded(b) with Included(b) for the same boundary.
    assert!(matches!(ranges.first().unwrap().0, Bound::Unbounded));
    assert!(matches!(ranges.last().unwrap().1, Bound::Unbounded));
    for pair in ranges.windows(2) {
        match (&pair[0].1, &pair[1].0) {
            (Bound::Excluded(a), Bound::Included(b)) => assert_eq!(a, b),
            other => panic!("seam must be Excluded|Included, got {other:?}"),
        }
    }
    // Completeness: per-morsel verified scans, concatenated in morsel
    // order, must equal the serial verified scan exactly.
    let serial = t.seq_scan().collect_rows().unwrap();
    let mut tiled = Vec::new();
    for (lo, hi) in ranges {
        tiled.extend(t.range_scan(0, lo, hi).collect_rows().unwrap());
    }
    assert_eq!(tiled, serial);
    mem.verify_now().unwrap();
}

#[test]
fn morsel_ranges_respect_explicit_bounds() {
    let mem = memory();
    let t = big_table(&mem, 2_000);
    let lo = Bound::Included(int(200));
    let hi = Bound::Excluded(int(1_800));
    let ranges = t.morsel_ranges(0, &lo, &hi, 6);
    assert_eq!(ranges.first().unwrap().0, lo);
    assert_eq!(ranges.last().unwrap().1, hi);
    let serial = t
        .range_scan(0, lo.clone(), hi.clone())
        .collect_rows()
        .unwrap();
    let mut tiled = Vec::new();
    for (l, h) in ranges {
        tiled.extend(t.range_scan(0, l, h).collect_rows().unwrap());
    }
    assert_eq!(tiled, serial);
}

#[test]
fn morsel_ranges_small_table_stays_whole() {
    let mem = memory();
    let t = quote_table(&mem);
    let ranges = t.morsel_ranges(0, &Bound::Unbounded, &Bound::Unbounded, 8);
    assert_eq!(ranges.len(), 1);
    assert!(matches!(ranges[0], (Bound::Unbounded, Bound::Unbounded)));
}

#[test]
fn morsel_ranges_lying_index_cannot_break_completeness() {
    // An index that refuses to enumerate (returns nothing) degrades the
    // split to one whole-range morsel; the verified scan is unaffected.
    let mem = memory();
    let (t, malicious) = malicious_table(&mem);
    for i in 10..1_500 {
        t.insert(Row::new(vec![int(i), int(i), int(i)])).unwrap();
    }
    malicious.arm(IndexLie::DenyAll);
    let ranges = t.morsel_ranges(0, &Bound::Unbounded, &Bound::Unbounded, 8);
    malicious.disarm();
    assert_eq!(
        ranges.len(),
        1,
        "a silent index yields a single whole-range morsel"
    );
    let rows = {
        let (lo, hi) = ranges.into_iter().next().unwrap();
        t.range_scan(0, lo, hi).collect_rows().unwrap()
    };
    assert_eq!(rows.len(), t.row_count() as usize);
}
