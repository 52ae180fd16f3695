//! Planner-behavior tests: access-path selection, bound tightening,
//! residual re-application, and OR-factor hoisting — checked both through
//! EXPLAIN plan shapes and through answer correctness.

use std::sync::Arc;
use veridb_common::{Value, VeriDbConfig};
use veridb_enclave::Enclave;
use veridb_query::{PlanOptions, QueryEngine};
use veridb_storage::Catalog;
use veridb_wrcm::VerifiedMemory;

fn setup() -> Arc<QueryEngine> {
    let enclave = Enclave::create("planner-test", 1 << 24, [17u8; 32]);
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    // Serial unless a test raises the DOP itself, whatever VERIDB_WORKERS
    // says: these tests check plan shapes against an explicit DOP.
    cfg.workers = 1;
    let mem = VerifiedMemory::new(enclave, &cfg);
    let eng = Arc::new(QueryEngine::new(Arc::new(Catalog::new(mem))));
    eng.execute("CREATE TABLE m (id INT PRIMARY KEY, ts INT CHAINED, grp INT CHAINED, note TEXT)")
        .unwrap();
    for i in 0..100 {
        eng.execute(&format!(
            "INSERT INTO m VALUES ({i}, {}, {}, 'n{i}')",
            1000 + i,
            i % 7
        ))
        .unwrap();
    }
    eng
}

fn plan(eng: &QueryEngine, sql: &str) -> String {
    eng.explain(sql, &PlanOptions::default()).unwrap()
}

fn ids(eng: &QueryEngine, sql: &str) -> Vec<i64> {
    eng.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect()
}

#[test]
fn bounds_tighten_to_the_narrowest_range() {
    let eng = setup();
    // id > 10 AND id > 50 AND id <= 60 AND id <= 70 → (50, 60]
    let sql = "SELECT id FROM m WHERE id > 10 AND id > 50 AND id <= 60 AND id <= 70";
    assert!(plan(&eng, sql).contains("RangeScan"), "{}", plan(&eng, sql));
    assert_eq!(ids(&eng, sql), (51..=60).collect::<Vec<_>>());
}

#[test]
fn flipped_literal_comparisons_push_down() {
    let eng = setup();
    // `50 < id` must behave exactly like `id > 50`.
    let sql = "SELECT id FROM m WHERE 50 < id AND 60 >= id";
    assert!(plan(&eng, sql).contains("RangeScan"), "{}", plan(&eng, sql));
    assert_eq!(ids(&eng, sql), (51..=60).collect::<Vec<_>>());
}

#[test]
fn contradictory_bounds_give_verified_empty() {
    let eng = setup();
    let sql = "SELECT id FROM m WHERE id > 60 AND id < 40";
    assert!(ids(&eng, sql).is_empty());
}

#[test]
fn equality_beats_range_in_access_path_choice() {
    let eng = setup();
    let sql = "SELECT id FROM m WHERE id = 42 AND id > 10";
    let p = plan(&eng, sql);
    assert!(p.contains("IndexSearch"), "{p}");
    assert_eq!(ids(&eng, sql), vec![42]);
}

#[test]
fn unchosen_chain_bounds_are_reapplied_as_residuals() {
    let eng = setup();
    // Bounds exist on two chained columns; one becomes the access path,
    // the other MUST still filter (as a residual).
    let sql = "SELECT id FROM m WHERE ts >= 1010 AND ts <= 1040 AND grp = 3";
    let got = ids(&eng, sql);
    let want: Vec<i64> = (10..=40).filter(|i| i % 7 == 3).collect();
    assert_eq!(got, want);

    // And the symmetric case.
    let sql = "SELECT id FROM m WHERE grp = 3 AND ts >= 1010 AND ts <= 1040";
    let mut got = ids(&eng, sql);
    got.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn non_chained_predicates_never_panic_the_pusher() {
    let eng = setup();
    let sql = "SELECT id FROM m WHERE note = 'n33'";
    let p = plan(&eng, sql);
    assert!(p.contains("SeqScan"), "{p}");
    assert_eq!(ids(&eng, sql), vec![33]);
}

#[test]
fn or_common_factor_hoisting_enables_real_joins() {
    let eng = setup();
    eng.execute("CREATE TABLE dim (id INT PRIMARY KEY, tag TEXT)")
        .unwrap();
    for i in 0..7 {
        eng.execute(&format!("INSERT INTO dim VALUES ({i}, 'tag{i}')"))
            .unwrap();
    }
    // The equi condition lives inside both OR branches; hoisting lets the
    // planner pick an index nested-loop join instead of a cross product.
    let sql = "SELECT m.id FROM m, dim WHERE \
               (dim.id = m.grp AND m.ts < 1050 AND dim.tag = 'tag3') OR \
               (dim.id = m.grp AND m.ts >= 1050 AND dim.tag = 'tag5')";
    let p = eng.explain(sql, &PlanOptions::default()).unwrap();
    assert!(
        p.contains("IndexNestedLoopJoin") || p.contains("HashJoin"),
        "hoisting failed, plan:\n{p}"
    );
    let mut got = ids(&eng, sql);
    got.sort_unstable();
    let want: Vec<i64> = (0..100)
        .filter(|i| {
            let ts = 1000 + i;
            let grp = i % 7;
            (grp == 3 && ts < 1050) || (grp == 5 && ts >= 1050)
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn between_pushes_both_bounds() {
    let eng = setup();
    let sql = "SELECT id FROM m WHERE ts BETWEEN 1020 AND 1030";
    let p = plan(&eng, sql);
    assert!(p.contains("RangeScan(chain 1)"), "{p}");
    assert_eq!(ids(&eng, sql), (20..=30).collect::<Vec<_>>());
}

#[test]
fn near_full_secondary_ranges_read_in_chain_zero_order() {
    let eng = setup();
    // `ts` runs 1000..=1099, so `ts >= 1010` keeps ~90% of the rows: read
    // in chain-0 order with the range as a residual.
    let wide = "SELECT id FROM m WHERE ts >= 1010";
    assert!(
        plan(&eng, wide).contains("SeqScan on m [filtered, ~90 rows]"),
        "{}",
        plan(&eng, wide)
    );
    assert_eq!(ids(&eng, wide), (10..100).collect::<Vec<_>>());
    // ~20% keeps the chain-1 walk.
    let narrow = "SELECT id FROM m WHERE ts >= 1080";
    assert!(plan(&eng, narrow).contains("RangeScan(chain 1) on m [~19 rows]"));
    // Chain-0 ranges and equalities are never switched.
    assert!(plan(&eng, "SELECT id FROM m WHERE id >= 5").contains("RangeScan(chain 0)"));
    assert!(plan(&eng, "SELECT id FROM m WHERE grp = 3").contains("IndexSearch(chain 2 = 3)"));
    // A range on a column an equi-join compares keeps its chain order.
    eng.execute("CREATE TABLE n (id INT PRIMARY KEY, ts INT CHAINED)")
        .unwrap();
    eng.execute("INSERT INTO n VALUES (1, 1050), (2, 1060)")
        .unwrap();
    let join = "SELECT m.id FROM m, n WHERE m.ts = n.ts AND m.ts >= 1010";
    assert!(
        plan(&eng, join).contains("RangeScan(chain 1) on m"),
        "{}",
        plan(&eng, join)
    );
    assert_eq!(ids(&eng, join), vec![50, 60]);
}

#[test]
fn order_by_position_and_name() {
    let eng = setup();
    let r = eng
        .execute("SELECT grp, COUNT(*) AS n FROM m GROUP BY grp ORDER BY 2 DESC, grp")
        .unwrap();
    // 100 rows over 7 groups: groups 0 and 1 have 15, rest 14.
    assert_eq!(r.rows[0][1], Value::Int(15));
    assert!(r.rows[6][1] == Value::Int(14));
    // By alias.
    let r2 = eng
        .execute("SELECT grp, COUNT(*) AS n FROM m GROUP BY grp ORDER BY n DESC, grp")
        .unwrap();
    assert_eq!(r.rows, r2.rows);
}

#[test]
fn aggregate_without_group_by_rejects_bare_columns() {
    let eng = setup();
    assert!(eng.execute("SELECT id, COUNT(*) FROM m").is_err());
    assert!(eng
        .execute("SELECT grp, COUNT(*) FROM m GROUP BY ts")
        .is_err());
}

#[test]
fn duplicate_aliases_rejected() {
    let eng = setup();
    assert!(eng
        .execute("SELECT * FROM m a, m a WHERE a.id = a.id")
        .is_err());
}

#[test]
fn map_inputs_with_identity_is_the_identity_on_every_variant() {
    use veridb_query::ast::{AggFunc, Expr};
    use veridb_query::planner::{AccessPath, BuildSide, PhysicalPlan};
    let eng = setup();
    let table = eng.catalog().table("m").unwrap();
    let scan = || {
        Box::new(PhysicalPlan::TableScan {
            table: Arc::clone(&table),
            access: AccessPath::Full,
            residual: Some(Expr::ColumnRef(1)),
            est_rows: 100.0,
        })
    };
    let residual = || Some(Expr::Literal(Value::Int(1)));
    let plans = vec![
        *scan(),
        PhysicalPlan::Filter {
            input: scan(),
            pred: Expr::ColumnRef(0),
        },
        PhysicalPlan::Project {
            input: scan(),
            exprs: vec![Expr::ColumnRef(3)],
            names: vec!["note".into()],
        },
        PhysicalPlan::IndexNlJoin {
            outer: scan(),
            inner: Arc::clone(&table),
            inner_chain: 1,
            outer_key: 2,
            residual: residual(),
        },
        PhysicalPlan::HashJoin {
            left: scan(),
            right: scan(),
            left_key: 0,
            right_key: 1,
            build: BuildSide::Left,
            residual: residual(),
        },
        PhysicalPlan::MergeJoin {
            left: scan(),
            right: scan(),
            left_key: 1,
            right_key: 0,
            residual: None,
        },
        PhysicalPlan::BlockNlJoin {
            left: scan(),
            right: scan(),
            pred: residual(),
        },
        PhysicalPlan::Distinct { input: scan() },
        PhysicalPlan::Aggregate {
            input: scan(),
            group: vec![Expr::ColumnRef(2)],
            aggs: vec![
                (AggFunc::Count, None),
                (AggFunc::Sum, Some(Expr::ColumnRef(1))),
            ],
        },
        PhysicalPlan::Sort {
            input: scan(),
            keys: vec![(Expr::ColumnRef(1), true)],
        },
        PhysicalPlan::Limit {
            input: scan(),
            n: 7,
        },
        PhysicalPlan::Exchange {
            input: scan(),
            workers: 3,
        },
        PhysicalPlan::Gather { input: scan() },
        PhysicalPlan::PartitionedJoin {
            left: scan(),
            right: scan(),
            left_key: 0,
            right_key: 2,
            build: BuildSide::Right,
            residual: residual(),
            workers: 4,
        },
    ];
    // Adding a variant breaks this match until the variant has an
    // instance above.
    let mut covered = [false; 14];
    for p in &plans {
        covered[match p {
            PhysicalPlan::TableScan { .. } => 0,
            PhysicalPlan::Filter { .. } => 1,
            PhysicalPlan::Project { .. } => 2,
            PhysicalPlan::IndexNlJoin { .. } => 3,
            PhysicalPlan::HashJoin { .. } => 4,
            PhysicalPlan::MergeJoin { .. } => 5,
            PhysicalPlan::BlockNlJoin { .. } => 6,
            PhysicalPlan::Distinct { .. } => 7,
            PhysicalPlan::Aggregate { .. } => 8,
            PhysicalPlan::Sort { .. } => 9,
            PhysicalPlan::Limit { .. } => 10,
            PhysicalPlan::Exchange { .. } => 11,
            PhysicalPlan::Gather { .. } => 12,
            PhysicalPlan::PartitionedJoin { .. } => 13,
        }] = true;
    }
    assert!(covered.iter().all(|&c| c), "{covered:?}");
    for p in plans {
        let before = format!("{p:?}");
        let visited: Vec<String> = p.inputs().map(|c| format!("{c:?}")).collect();
        let mut mapped = Vec::new();
        let same = p.map_inputs(|c| {
            mapped.push(format!("{c:?}"));
            c
        });
        assert_eq!(visited, mapped, "{before}");
        assert_eq!(format!("{same:?}"), before);
    }
}
