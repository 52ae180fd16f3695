//! Golden TPC-H plans: the EXPLAIN of Q1, Q6, Q3 and Q19 (MergeJoin) on
//! the default 60k-row `lineitem` dataset, row estimates included, must
//! equal `tests/golden/tpch_plans.txt`. The plans are serial (`workers =
//! 1`) whatever `VERIDB_WORKERS` says, so a parallel CI lane checks the
//! same text.
//!
//! The estimates come from the chain indexes' key bounds and the tables'
//! row counts. The file pins the two choices they drive: Q1's 96% range on
//! `l_shipdate` reads as a chain-0 scan, and Q3's joins build on their
//! smaller (left) input, while Q6's and Q3's narrower ranges keep their
//! chain-1 walks.

use veridb::{PlanOptions, PreferredJoin, VeriDb, VeriDbConfig};
use veridb_workloads::{tpch, TpchConfig, TpchData};

const GOLDEN: &str = include_str!("../golden/tpch_plans.txt");

fn explain_all(db: &VeriDb) -> String {
    let serial = PlanOptions {
        workers: 1,
        ..PlanOptions::default()
    };
    let merge = PlanOptions {
        prefer_join: PreferredJoin::Merge,
        workers: 1,
    };
    let mut out = String::new();
    for (name, sql, opts) in [
        ("Q1", tpch::q1(), &serial),
        ("Q6", tpch::q6(), &serial),
        ("Q3", tpch::q3(), &serial),
        ("Q19 (Merge)", tpch::q19(), &merge),
    ] {
        out.push_str(&format!("-- {name}\n"));
        out.push_str(&db.explain(sql, opts).unwrap());
    }
    out
}

#[test]
fn tpch_plans_match_golden() {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.workers = 1;
    let db = VeriDb::open(cfg).unwrap();
    TpchData::generate(&TpchConfig::default())
        .load(&db)
        .unwrap();
    let got = explain_all(&db);
    assert_eq!(
        got, GOLDEN,
        "EXPLAIN drifted from tests/golden/tpch_plans.txt:\n{got}"
    );

    let section = |name: &str| {
        let start = GOLDEN.find(&format!("-- {name}\n")).unwrap();
        let rest = &GOLDEN[start + 1..];
        &rest[..rest.find("\n-- ").unwrap_or(rest.len())]
    };
    assert!(section("Q1").contains("SeqScan on lineitem [filtered, "));
    assert!(section("Q6").contains("RangeScan(chain 1) on lineitem"));
    let q3 = section("Q3");
    assert!(q3.contains("RangeScan(chain 1) on lineitem"));
    assert!(q3.contains("RangeScan(chain 1) on orders"));
    assert_eq!(q3.matches("HashJoin [build left: ").count(), 2, "{q3}");
    assert!(section("Q19 (Merge)").contains("MergeJoin"));
}
