//! Property-based model checking of the table layer: any sequence of
//! inserts/deletes/updates against a two-chain table matches an in-memory
//! model, every scan result is sorted and complete, and the memory always
//! passes verification afterwards.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use veridb_common::rng::{check, Rng};
use veridb_common::{ColumnDef, ColumnType, Row, Schema, Value, VeriDbConfig};
use veridb_enclave::Enclave;
use veridb_storage::Table;
use veridb_wrcm::VerifiedMemory;

#[derive(Debug, Clone)]
enum Op {
    Insert { pk: i64, grp: i64 },
    Delete { pk: i64 },
    Update { pk: i64, grp: i64 },
    Get { pk: i64 },
    Range { lo: i64, hi: i64 },
    RangeSecondary { lo: i64, hi: i64 },
    Verify,
}

/// Weighted 4:2:2:3:2:1:1.
fn arb_op(rng: &mut Rng) -> Op {
    let key = |r: &mut Rng| r.gen_range(-20i64..20);
    let grp = |r: &mut Rng| r.gen_range(0i64..6);
    match rng.gen_range(0..15u8) {
        0..=3 => Op::Insert {
            pk: key(rng),
            grp: grp(rng),
        },
        4..=5 => Op::Delete { pk: key(rng) },
        6..=7 => Op::Update {
            pk: key(rng),
            grp: grp(rng),
        },
        8..=10 => Op::Get { pk: key(rng) },
        11..=12 => {
            let (a, b) = (key(rng), key(rng));
            Op::Range {
                lo: a.min(b),
                hi: a.max(b),
            }
        }
        13 => {
            let (a, b) = (grp(rng), grp(rng));
            Op::RangeSecondary {
                lo: a.min(b),
                hi: a.max(b),
            }
        }
        _ => Op::Verify,
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("pk", ColumnType::Int),
        ColumnDef::chained("grp", ColumnType::Int),
        ColumnDef::new("note", ColumnType::Str),
    ])
    .unwrap()
}

#[test]
fn table_matches_model() {
    check(40, |rng| {
        let ops = rng.vec(0..120, arb_op);
        let enclave = Enclave::create("prop-table", 1 << 22, [8u8; 32]);
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        cfg.page_size = 1024; // force page churn
        let mem = VerifiedMemory::new(enclave, &cfg);
        let table = Table::create(Arc::clone(&mem), "model", schema()).unwrap();

        // model: pk -> grp
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert { pk, grp } => {
                    let row = Row::new(vec![
                        Value::Int(pk),
                        Value::Int(grp),
                        Value::Str(format!("n{pk}")),
                    ]);
                    let res = table.insert(row);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(pk) {
                        res.unwrap();
                        e.insert(grp);
                    } else {
                        assert!(res.is_err(), "duplicate insert must fail");
                    }
                }
                Op::Delete { pk } => {
                    let res = table.delete(&Value::Int(pk));
                    if model.remove(&pk).is_some() {
                        res.unwrap();
                    } else {
                        assert!(res.is_err());
                    }
                }
                Op::Update { pk, grp } => {
                    let row = Row::new(vec![
                        Value::Int(pk),
                        Value::Int(grp),
                        Value::Str(format!("u{pk}")),
                    ]);
                    let res = table.update(&Value::Int(pk), row);
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(pk) {
                        res.unwrap();
                        e.insert(grp);
                    } else {
                        assert!(res.is_err());
                    }
                }
                Op::Get { pk } => {
                    let got = table.get_by_pk(&Value::Int(pk)).unwrap();
                    match model.get(&pk) {
                        Some(&grp) => {
                            let row = got.expect("model says present");
                            assert_eq!(row[1].as_i64().unwrap(), grp);
                        }
                        None => assert!(got.is_none()),
                    }
                }
                Op::Range { lo, hi } => {
                    let rows = table
                        .range_scan(
                            0,
                            Bound::Included(Value::Int(lo)),
                            Bound::Included(Value::Int(hi)),
                        )
                        .collect_rows()
                        .unwrap();
                    let got: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
                    let want: Vec<i64> = model.range(lo..=hi).map(|(&k, _)| k).collect();
                    assert_eq!(got, want, "primary range [{},{}]", lo, hi);
                }
                Op::RangeSecondary { lo, hi } => {
                    let rows = table
                        .range_scan(
                            1,
                            Bound::Included(Value::Int(lo)),
                            Bound::Included(Value::Int(hi)),
                        )
                        .collect_rows()
                        .unwrap();
                    let mut got: Vec<(i64, i64)> = rows
                        .iter()
                        .map(|r| (r[1].as_i64().unwrap(), r[0].as_i64().unwrap()))
                        .collect();
                    let mut want: Vec<(i64, i64)> = model
                        .iter()
                        .filter(|(_, &g)| g >= lo && g <= hi)
                        .map(|(&k, &g)| (g, k))
                        .collect();
                    want.sort_unstable();
                    assert!(
                        got.windows(2).all(|w| w[0] <= w[1]),
                        "secondary scan must be ordered"
                    );
                    got.sort_unstable();
                    assert_eq!(got, want, "secondary range [{},{}]", lo, hi);
                }
                Op::Verify => {
                    mem.verify_now().unwrap();
                }
            }
        }
        // Final checks: row count, full contents, verification.
        assert_eq!(table.row_count() as usize, model.len());
        let all: Vec<i64> = table
            .seq_scan()
            .collect_rows()
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        let want: Vec<i64> = model.keys().copied().collect();
        assert_eq!(all, want);
        mem.verify_now().unwrap();
        assert!(mem.poisoned().is_none());
    });
}
