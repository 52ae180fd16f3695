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
//!
//! The two configs are measured in pairs: each pair is one baseline run
//! and one VeriDB run back to back, the order alternating from pair to
//! pair, and a case's overhead is the median of its per-pair ratios with
//! the quartiles beside it. Host drift then moves both sides of a pair
//! together instead of landing on one config's whole batch.

use std::sync::Arc;
use std::time::Instant;
use veridb::{PlanOptions, PreferredJoin, VeriDb, VeriDbConfig};
use veridb_bench::{f1, percentile, scale_from_env, tpch_config, FigureTable, Scale};
use veridb_common::Row;
use veridb_query::ast::Statement;
use veridb_query::parser::parse;
use veridb_query::planner::{plan_select, PhysicalPlan};
use veridb_query::{exec, ExecContext};
use veridb_workloads::tpch::{self, TpchData};

/// One timed run of a query and of its scan leaves.
struct Run {
    total_s: f64,
    scan_s: f64,
}

/// The plan's verified scan leaves, in plan order. An index nested-loop
/// join's inner side is point lookups, not a leaf: its time is "other".
fn scan_leaves<'a>(plan: &'a PhysicalPlan, out: &mut Vec<&'a PhysicalPlan>) {
    if let PhysicalPlan::TableScan { .. } = plan {
        out.push(plan);
    }
    for input in plan.inputs() {
        scan_leaves(input, out);
    }
}

/// Timed pairs per case (one baseline and one VeriDB run each).
const PAIRS: usize = 10;

/// One config's side of a case: its database, the case's plan there,
/// and the execution context the engine would run that plan under.
struct Side<'a> {
    db: &'a VeriDb,
    plan: PhysicalPlan,
    ctx: ExecContext,
}

impl<'a> Side<'a> {
    fn new(db: &'a VeriDb, sql: &str, opts: PlanOptions) -> Self {
        let mut plan_opts = opts;
        if plan_opts.workers == 0 {
            plan_opts.workers = db.config().workers;
        }
        let Statement::Select(stmt) = parse(sql).expect("parse") else {
            panic!("a TPC-H query is a SELECT")
        };
        let plan = plan_select(db.catalog(), stmt, &plan_opts)
            .expect("plan")
            .plan;
        let ctx = ExecContext {
            metrics: Arc::clone(db.memory().metrics()),
            workers: plan_opts.workers,
            ..ExecContext::default()
        };
        Side { db, plan, ctx }
    }

    /// Run the case's plan to completion.
    fn query(&self) -> Vec<Row> {
        exec::run_ctx(&self.plan, &self.ctx).expect("query")
    }

    /// Time the plan, then the verified scans of that same plan (the
    /// "scan nodes" share of the figure's stacked bars): each `TableScan`
    /// leaf, with its table, chain, bounds and residual, drained on its
    /// own. The split is not clipped to the total, so a scan share that
    /// does not fit inside the query shows.
    fn run(&self) -> Run {
        let start = Instant::now();
        std::hint::black_box(self.query());
        let total_s = start.elapsed().as_secs_f64();

        let mut leaves = Vec::new();
        scan_leaves(&self.plan, &mut leaves);
        let start = Instant::now();
        for leaf in leaves {
            let mut op = exec::open_ctx(leaf, &self.ctx).expect("open scan");
            while let Some(row) = op.next().expect("verified row") {
                std::hint::black_box(row);
            }
        }
        let scan_s = start.elapsed().as_secs_f64();
        self.settle();
        Run { total_s, scan_s }
    }

    /// Untimed: let a verified database finish its verification work, so
    /// that none of it runs during the other config's next run. The
    /// background verifier is fed one page scan per 1,000 ops and can
    /// still be working through a run's ticks when it returns.
    fn settle(&self) {
        if self.db.config().verify_rsws {
            self.db.verify_now().expect("honest run verifies");
        }
    }
}

/// Medians over a case's pairs, and the per-pair overhead's quartiles.
struct Paired {
    base: Run,
    veridb: Run,
    /// 25th, 50th and 75th percentile of `veridb / base − 1` per pair.
    overhead: [f64; 3],
}

/// Measure one case in `PAIRS` alternating pairs, after one untimed
/// warm-up run on each side (first touch marks pages and faults page
/// maps in) that also checks both return the same answer.
fn measure_pairs(base: &Side, veridb: &Side) -> Paired {
    let rows = |s: &Side| {
        let n = s.query().len();
        s.settle();
        n
    };
    assert_eq!(
        rows(base),
        rows(veridb),
        "both configs must return the same answer"
    );
    let (mut b, mut v) = (Vec::new(), Vec::new());
    for i in 0..PAIRS {
        if i % 2 == 0 {
            b.push(base.run());
            v.push(veridb.run());
        } else {
            v.push(veridb.run());
            b.push(base.run());
        }
    }
    let median = |runs: &[Run]| Run {
        total_s: percentile(&runs.iter().map(|r| r.total_s).collect::<Vec<_>>(), 0.5),
        scan_s: percentile(&runs.iter().map(|r| r.scan_s).collect::<Vec<_>>(), 0.5),
    };
    let ratios: Vec<f64> = b
        .iter()
        .zip(&v)
        .map(|(b, v)| v.total_s / b.total_s - 1.0)
        .collect();
    Paired {
        base: median(&b),
        veridb: median(&v),
        overhead: [0.25, 0.5, 0.75].map(|q| percentile(&ratios, q)),
    }
}

fn ms(s: f64) -> String {
    f1(s * 1e3)
}

/// A config's "scan", "other" and "total" cells. When the leaves drained
/// on their own took longer than the whole query, the split is unknown:
/// both parts print as "—".
fn split(r: &Run) -> [String; 3] {
    let other = r.total_s - r.scan_s;
    if other < 0.0 {
        ["—".into(), "—".into(), ms(r.total_s)]
    } else {
        [ms(r.scan_s), ms(other), ms(r.total_s)]
    }
}

fn main() {
    let scale = scale_from_env();
    let cfg = tpch_config(scale);
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

    let mut cases: Vec<(&str, &str, PlanOptions)> = vec![
        ("Q1", tpch::q1(), auto),
        ("Q6", tpch::q6(), auto),
        ("Q19 (MergeJoin)", tpch::q19(), merge),
        ("Q19 (NestedLoopJoin)", tpch::q19(), nlj),
        // Beyond the paper's set: a 3-way join with grouping/order/limit,
        // showing the engine generalizes past the evaluated queries.
        ("Q3 (extra)", tpch::q3(), auto),
    ];
    if scale == Scale::Paper {
        // The block nested-loop join's time grows with the product of its
        // inputs: 10× the lineitem and part rows make one run ~100× the
        // 60k one (minutes), too long for paired runs.
        cases.retain(|(name, ..)| *name != "Q19 (NestedLoopJoin)");
        println!("  Q19 (NestedLoopJoin) runs at the default scale only");
    }

    let mut t = FigureTable::new(
        &format!(
            "Figure 12: TPC-H execution time (ms, medians of {PAIRS} paired runs), \
             split scan-nodes vs other-nodes"
        ),
        &[
            "query",
            "base scan",
            "base other",
            "base total",
            "veridb scan",
            "veridb other",
            "veridb total",
            "overhead [q1, q3]",
        ],
    );
    let pct = |x: f64| format!("{:.0}", x * 100.0);
    for (name, sql, opts) in cases {
        let base = Side::new(&baseline_db, sql, opts);
        let veridb = Side::new(&veridb_db, sql, opts);
        let obs_before = veridb_db.metrics();
        let Paired {
            base: b,
            veridb: v,
            overhead: [q1, q2, q3],
        } = measure_pairs(&base, &veridb);
        println!(
            "  obs Δ {name}: {}",
            veridb_db.metrics().since(&obs_before).summary_line()
        );
        let mut row = vec![name.to_string()];
        row.extend(split(&b));
        row.extend(split(&v));
        row.push(format!("{}% [{}, {}]", pct(q2), pct(q1), pct(q3)));
        t.row(row);
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

    t.note("overhead: median of the per-pair ratios veridb/base - 1, quartiles in brackets");
    t.note(
        "scan/other '—': the leaves drained on their own took longer than the whole \
         query, so the split is unknown; a standalone drain that drops each row runs \
         slower than the same scan feeding the query, by more than the case's non-scan work",
    );
    t.note("paper claim: overhead dominated by scan nodes; in-enclave operators add none");
    t.note("paper overheads: Q1/Q6 up to 39% (scan-bound); Q19 NLJ ~9% (compute-bound)");
    t.print();
}
