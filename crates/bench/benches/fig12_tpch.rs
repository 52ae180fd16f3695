//! Figure 12 — "Execution time on TPC-H dataset."
//!
//! Reproduces §6.3's analytical experiment: TPC-H Q1, Q6 and Q19 run under
//!
//! - **Baseline**: verifiability disabled,
//! - **VeriDB**: RS/WS maintenance on (the figure's "w/ RSWS" bars),
//!
//! with each query's time split into **scan nodes** (the verified leaf
//! access methods, where all of VeriDB's overhead lives) and **other
//! nodes** (joins/aggregation inside the enclave, which the paper observes
//! add *no* extra overhead). Q19 runs under both plans the paper
//! discusses: MergeJoin and NestedLoopJoin.
//!
//! Paper's claims to reproduce in shape: overhead concentrated in the scan
//! nodes; relative overhead 9% (Q19 NLJ, compute-bound) to 39% (Q1/Q6,
//! scan-bound).

use std::time::Instant;
use veridb::{PlanOptions, PreferredJoin, VeriDb, VeriDbConfig};
use veridb_bench::{f1, percentile, scale_from_env, FigureTable, Scale};
use veridb_query::ast::Statement;
use veridb_query::exec;
use veridb_query::parser::parse;
use veridb_query::planner::{plan_select, PhysicalPlan};
use veridb_workloads::tpch::{self, TpchConfig, TpchData};

fn config(scale: Scale) -> TpchConfig {
    match scale {
        Scale::Paper => TpchConfig {
            lineitem_rows: 600_000,
            part_rows: 20_000,
            ..TpchConfig::default()
        },
        Scale::Small => TpchConfig::default(), // 60k lineitem / 2k part
    }
}

struct Measured {
    total_s: f64,
    scan_s: f64,
    rows: usize,
}

/// The plan's verified scan leaves, in plan order. An index nested-loop
/// join's inner side is point lookups, not a leaf: its time is "other".
fn scan_leaves<'a>(plan: &'a PhysicalPlan, out: &mut Vec<&'a PhysicalPlan>) {
    match plan {
        PhysicalPlan::TableScan { .. } => out.push(plan),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Aggregate { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input }
        | PhysicalPlan::Exchange { input, .. }
        | PhysicalPlan::Gather { input } => scan_leaves(input, out),
        PhysicalPlan::IndexNlJoin { outer, .. } => scan_leaves(outer, out),
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::MergeJoin { left, right, .. }
        | PhysicalPlan::BlockNlJoin { left, right, .. }
        | PhysicalPlan::PartitionedJoin { left, right, .. } => {
            scan_leaves(left, out);
            scan_leaves(right, out);
        }
    }
}

/// Timed runs per case, each of the query and then of its scans; the
/// table reports medians (one run on a shared host is mostly noise).
const RUNS: usize = 5;

/// Time a query, plus the time of the verified scans its own plan runs
/// (the "scan nodes" share of the figure's stacked bars): each `TableScan`
/// leaf of the plan, with its table, chain, bounds and residual, drained
/// on its own. The split is not clipped to the total, so a scan share that
/// does not fit inside the query shows.
fn measure(db: &VeriDb, sql: &str, opts: &PlanOptions) -> Measured {
    let mut plan_opts = *opts;
    if plan_opts.workers == 0 {
        plan_opts.workers = db.config().workers;
    }
    let Statement::Select(stmt) = parse(sql).expect("parse") else {
        panic!("a TPC-H query is a SELECT")
    };
    let planned = plan_select(db.catalog(), stmt, &plan_opts).expect("plan");
    let mut leaves = Vec::new();
    scan_leaves(&planned.plan, &mut leaves);

    // Warm-up run (first touch marks pages, faults page maps in).
    let rows = db.sql_with(sql, opts).expect("query").rows.len();
    let (mut totals, mut scans) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        let start = Instant::now();
        std::hint::black_box(db.sql_with(sql, opts).expect("query"));
        totals.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for leaf in &leaves {
            let mut op = exec::open(leaf).expect("open scan");
            while let Some(row) = op.next().expect("verified row") {
                std::hint::black_box(row);
            }
        }
        scans.push(start.elapsed().as_secs_f64());
    }
    Measured {
        total_s: percentile(&totals, 0.5),
        scan_s: percentile(&scans, 0.5),
        rows,
    }
}

fn ms(s: f64) -> String {
    f1(s * 1e3)
}

fn main() {
    let scale = scale_from_env();
    let cfg = config(scale);
    println!(
        "Figure 12 reproduction — lineitem: {} rows, part: {} rows (scale {scale:?})",
        cfg.lineitem_rows, cfg.part_rows
    );
    let data = TpchData::generate(&cfg);

    let mut base_cfg = VeriDbConfig::baseline();
    base_cfg.verify_every_ops = None;
    let baseline_db = VeriDb::open(base_cfg).expect("open");
    data.load(&baseline_db).expect("load baseline");

    let mut v_cfg = VeriDbConfig::rsws();
    v_cfg.verify_every_ops = Some(1000);
    let veridb_db = VeriDb::open(v_cfg).expect("open");
    data.load(&veridb_db).expect("load veridb");

    let auto = PlanOptions::default();
    let merge = PlanOptions {
        prefer_join: PreferredJoin::Merge,
        ..Default::default()
    };
    let nlj = PlanOptions {
        prefer_join: PreferredJoin::NestedLoop,
        ..Default::default()
    };

    let cases: Vec<(&str, &str, PlanOptions)> = vec![
        ("Q1", tpch::q1(), auto),
        ("Q6", tpch::q6(), auto),
        ("Q19 (MergeJoin)", tpch::q19(), merge),
        ("Q19 (NestedLoopJoin)", tpch::q19(), nlj),
        // Beyond the paper's set: a 3-way join with grouping/order/limit,
        // showing the engine generalizes past the evaluated queries.
        ("Q3 (extra)", tpch::q3(), auto),
    ];

    let mut t = FigureTable::new(
        "Figure 12: TPC-H execution time (ms), split scan-nodes vs other-nodes",
        &[
            "query",
            "base scan",
            "base other",
            "base total",
            "veridb scan",
            "veridb other",
            "veridb total",
            "overhead",
        ],
    );
    for (name, sql, opts) in cases {
        let b = measure(&baseline_db, sql, &opts);
        let obs_before = veridb_db.metrics();
        let v = measure(&veridb_db, sql, &opts);
        println!(
            "  obs Δ {name}: {}",
            veridb_db.metrics().since(&obs_before).summary_line()
        );
        assert_eq!(b.rows, v.rows, "both configs must return the same answer");
        let overhead = (v.total_s - b.total_s) / b.total_s;
        t.row(vec![
            name.to_string(),
            ms(b.scan_s),
            ms(b.total_s - b.scan_s),
            ms(b.total_s),
            ms(v.scan_s),
            ms(v.total_s - v.scan_s),
            ms(v.total_s),
            format!("{:.0}%", overhead * 100.0),
        ]);
    }
    // Sanity: verified run detects nothing (honest host) and answers match
    // the reference implementation.
    veridb_db.verify_now().expect("honest run verifies");
    let q6_ref = tpch::q6_expected(&data);
    let got = veridb_db.sql(tpch::q6()).expect("q6").rows[0][0]
        .as_f64()
        .unwrap_or(0.0);
    assert!(
        (got - q6_ref).abs() < 1e-6 * q6_ref.abs().max(1.0),
        "Q6 must match the reference: {got} vs {q6_ref}"
    );

    t.note("paper claim: overhead dominated by scan nodes; in-enclave operators add none");
    t.note("paper overheads: Q1/Q6 up to 39% (scan-bound); Q19 NLJ ~9% (compute-bound)");
    t.print();
}
