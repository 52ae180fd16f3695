//! Figure 9 — "Latency of reads/writes with different system config."
//!
//! Reproduces §6.1's first experiment: the latency of Get / Insert /
//! Delete / Update under three configurations —
//!
//! - **Baseline**: no verifiability machinery,
//! - **RSWS**: ReadSet/WriteSet digests over records only (page metadata
//!   excluded, the §4.3 optimization),
//! - **RSWS w/ metadata**: digests over records *and* slot-directory
//!   maintenance.
//!
//! Paper's claims to reproduce in shape: RSWS adds ≈1.5–2.2 µs per op over
//! Baseline; excluding metadata cuts the RS/WS cost by ≈20%; Insert and
//! Delete cost more than Get and Update (they splice the predecessor's
//! nKey, adding digest updates).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use veridb::{VeriDb, VeriDbConfig};
use veridb_bench::{f2, scale_from_env, FigureTable, Scale};
use veridb_workloads::{MicroOp, MicroWorkload};

fn workload(scale: Scale) -> MicroWorkload {
    match scale {
        // Paper: 1M initial pairs, 10k mixed ops.
        Scale::Paper => MicroWorkload::default(),
        Scale::Small => MicroWorkload::scaled(50_000, 10_000),
    }
}

/// Run the mixed stream against a fresh database, returning mean latency
/// (µs) per op kind.
fn run(cfg: VeriDbConfig, w: &MicroWorkload) -> BTreeMap<&'static str, f64> {
    let db = VeriDb::open(cfg).expect("open");
    db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
        .expect("ddl");
    let table = db.table("kv").expect("table");
    w.load_table(&table).expect("load");

    let before = db.metrics();
    let mut sums: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for op in w.ops() {
        let kind = match op {
            MicroOp::Get(_) => "Get",
            MicroOp::Insert(..) => "Insert",
            MicroOp::Delete(_) => "Delete",
            MicroOp::Update(..) => "Update",
        };
        let start = Instant::now();
        MicroWorkload::apply_table(&table, &op).expect("op");
        let dt = start.elapsed().as_secs_f64();
        let e = sums.entry(kind).or_insert((0.0, 0));
        e.0 += dt;
        e.1 += 1;
    }
    if db.config().verify_rsws {
        db.verify_now().expect("honest run verifies");
    }
    println!("  obs Δ: {}", db.metrics().since(&before).summary_line());
    let _ = Arc::strong_count(&table);
    sums.into_iter()
        .map(|(k, (s, n))| (k, s / n as f64 * 1e6))
        .collect()
}

fn main() {
    let scale = scale_from_env();
    let w = workload(scale);
    println!(
        "Figure 9 reproduction — initial pairs: {}, ops: {} (scale {scale:?})",
        w.initial_pairs, w.operations
    );

    let mut no_verify = VeriDbConfig::baseline();
    no_verify.verify_every_ops = None;
    let baseline = run(no_verify, &w);

    let mut rsws_cfg = VeriDbConfig::rsws();
    rsws_cfg.verify_every_ops = None; // Figure 9 isolates RS/WS cost; the
                                      // verifier frequency is Figure 10.
    let rsws = run(rsws_cfg, &w);

    let mut meta_cfg = VeriDbConfig::rsws_with_metadata();
    meta_cfg.verify_every_ops = None;
    let rsws_meta = run(meta_cfg, &w);

    // Approximate values digitized from the paper's Figure 9 (µs).
    let paper: BTreeMap<&str, (f64, f64, f64)> = [
        ("Get", (0.6, 2.0, 2.5)),
        ("Insert", (1.1, 3.3, 4.1)),
        ("Delete", (0.9, 2.4, 3.1)),
        ("Update", (1.1, 3.2, 4.0)),
    ]
    .into_iter()
    .collect();

    let mut t = FigureTable::new(
        "Figure 9: op latency (µs) — Baseline / RSWS / RSWS w. metadata",
        &[
            "op",
            "baseline",
            "rsws",
            "rsws+meta",
            "rsws-baseline (µs)",
            "vs §6.1's 1.4-4.2 µs",
            "meta extra",
            "paper(base/rsws/meta)",
        ],
    );
    // §6.1: "the overhead of verifiable read/write is consistently between
    // 1.4–4.2 microseconds".
    let band = |delta: f64| match delta {
        d if d < 1.4 => "below",
        d if d > 4.2 => "above",
        _ => "inside",
    };
    for op in ["Get", "Insert", "Delete", "Update"] {
        let b = baseline[op];
        let r = rsws[op];
        let m = rsws_meta[op];
        let p = paper[op];
        t.row(vec![
            op.to_string(),
            f2(b),
            f2(r),
            f2(m),
            f2(r - b),
            band(r - b).to_string(),
            format!("{:.0}%", (m - r) / (r - b).max(1e-9) * 100.0),
            format!("{:.1}/{:.1}/{:.1}", p.0, p.1, p.2),
        ]);
    }
    t.note("paper claim: RSWS adds ~1.5-2.2 µs; metadata exclusion saves ~20% of RS/WS cost");
    t.note("Insert/Delete > Get/Update because chain splices add digest updates");
    t.print();
}
