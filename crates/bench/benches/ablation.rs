//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **PRF cost** — the POLYVAL-then-AES PRF against no verification, end
//!    to end on the micro workload (§6.1 argues op cost is PRF-dominated
//!    and anticipates hardware hashing; the row names the PRF body that
//!    ran, AES-NI + PCLMULQDQ or portable).
//! 2. **Touched-page tracking** (§4.3) — verification-scan cost on a
//!    large, mostly-cold database with and without the in-enclave
//!    touched-page bitmap + cached digests.
//! 3. **Compaction strategy** (§4.3) — eager-on-delete vs
//!    deferred-to-scan, measured on a delete-heavy stream.
//! 4. **Verifier parallelism** (§3.3) — full verification passes with 1,
//!    2, and 4 concurrent verifiers (needs multicore to show gains).
//! 5. **Intermediate-state spilling** (§5.4) — a materializing join with
//!    spilling off vs on.
//! 6. **Registry overhead** — the always-on `veridb-obs` registry's share
//!    of a protected read, measured by subtraction; the budget is a few
//!    relaxed atomics (≤2% per op).

use std::sync::Arc;
use std::time::Instant;
use veridb::{PlanOptions, PreferredJoin, PrfBackend, VeriDb, VeriDbConfig};
use veridb_bench::{f2, scale_from_env, FigureTable, Scale};
use veridb_workloads::MicroWorkload;

fn main() {
    let scale = scale_from_env();
    prf_cost_ablation(scale);
    touched_pages_ablation(scale);
    compaction_ablation(scale);
    verifier_parallelism_ablation(scale);
    spill_ablation();
    obs_overhead_ablation();
}

fn micro(scale: Scale) -> MicroWorkload {
    match scale {
        Scale::Paper => MicroWorkload::default(),
        Scale::Small => MicroWorkload::scaled(20_000, 8_000),
    }
}

fn run_micro(cfg: VeriDbConfig, w: &MicroWorkload) -> f64 {
    let db = VeriDb::open(cfg).expect("open");
    db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
        .expect("ddl");
    let table = db.table("kv").expect("table");
    w.load_table(&table).expect("load");
    let ops = w.ops();
    let start = Instant::now();
    for op in &ops {
        MicroWorkload::apply_table(&table, op).expect("op");
    }
    let per_op_us = start.elapsed().as_secs_f64() / ops.len() as f64 * 1e6;
    if db.config().verify_rsws {
        db.verify_now().expect("verify");
    }
    let _ = Arc::strong_count(&table);
    per_op_us
}

fn prf_cost_ablation(scale: Scale) {
    let w = micro(scale);
    let mut t = FigureTable::new(
        "Ablation 1: PRF cost (mean µs/op on the §6.1 mixed stream)",
        &["verification", "µs/op", "vs baseline"],
    );
    let mut base_cfg = VeriDbConfig::baseline();
    base_cfg.verify_every_ops = None;
    let base = run_micro(base_cfg, &w);
    t.row(vec!["no verification".into(), f2(base), "1.00x".into()]);
    let mut cfg = VeriDbConfig::rsws();
    cfg.verify_every_ops = None;
    let us = run_micro(cfg, &w);
    let body = if veridb_wrcm::prf::hardware_accelerated() {
        "AES-NI + PCLMULQDQ"
    } else {
        "portable"
    };
    let name = format!("POLYVAL-then-AES ({body})");
    t.row(vec![name, f2(us), format!("{:.2}x", us / base)]);
    t.note("§6.1: RS/WS cost is PRF-dominated; hardware hashing shrinks it");
    t.print();
}

fn touched_pages_ablation(scale: Scale) {
    // Load a large table, then touch only a handful of keys and verify.
    let n: i64 = match scale {
        Scale::Paper => 500_000,
        Scale::Small => 50_000,
    };
    let mut t = FigureTable::new(
        "Ablation 2: touched-page tracking (verification pass after touching 10 keys)",
        &[
            "tracking",
            "pages processed",
            "pages re-read",
            "scan time (ms)",
        ],
    );
    for (name, tracking) in [("on (§4.3)", true), ("off (full scan)", false)] {
        let mut cfg = VeriDbConfig::rsws();
        cfg.verify_every_ops = None;
        cfg.track_touched_pages = tracking;
        let db = VeriDb::open(cfg).expect("open");
        db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
            .expect("ddl");
        let table = db.table("kv").expect("table");
        MicroWorkload {
            initial_pairs: n,
            operations: 0,
            value_len: 120,
            seed: 3,
        }
        .load_table(&table)
        .expect("load");
        db.verify_now().expect("first pass");
        // Touch 10 keys, then measure the incremental pass.
        for k in 0..10 {
            table
                .get_by_pk(&veridb::Value::Int(k * (n / 10) + 1))
                .unwrap();
        }
        let start = Instant::now();
        let report = db.verify_now().expect("incremental pass");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        t.row(vec![
            name.into(),
            report.pages_processed.to_string(),
            report.pages_read.to_string(),
            f2(ms),
        ]);
        let _ = Arc::strong_count(&table);
    }
    t.note("cold pages carry their cached digest; only touched pages are re-read");
    t.print();
}

fn compaction_ablation(scale: Scale) {
    let n: i64 = match scale {
        Scale::Paper => 200_000,
        Scale::Small => 20_000,
    };
    let mut t = FigureTable::new(
        "Ablation 3: space reclamation (delete half the table)",
        &["strategy", "delete time total (ms)", "µs/delete"],
    );
    for (name, lazy) in [
        ("eager on delete", false),
        ("deferred to scan (§4.3)", true),
    ] {
        let mut cfg = VeriDbConfig::rsws();
        cfg.verify_every_ops = None;
        cfg.compact_during_verification = lazy;
        let db = VeriDb::open(cfg).expect("open");
        db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
            .expect("ddl");
        let table = db.table("kv").expect("table");
        MicroWorkload {
            initial_pairs: n,
            operations: 0,
            value_len: 200,
            seed: 4,
        }
        .load_table(&table)
        .expect("load");
        let start = Instant::now();
        let mut deletes = 0u64;
        for k in (1..=n).step_by(2) {
            table.delete(&veridb::Value::Int(k)).expect("delete");
            deletes += 1;
        }
        let s = start.elapsed().as_secs_f64();
        db.verify_now().expect("verify");
        t.row(vec![name.into(), f2(s * 1e3), f2(s / deletes as f64 * 1e6)]);
        let _ = Arc::strong_count(&table);
    }
    t.note("§4.3: eager compaction re-reads/re-writes surviving records on every delete");
    t.print();
}

fn verifier_parallelism_ablation(scale: Scale) {
    let n: i64 = match scale {
        Scale::Paper => 300_000,
        Scale::Small => 40_000,
    };
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut cfg = VeriDbConfig::rsws();
    cfg.verify_every_ops = None;
    cfg.rsws_partitions = 16;
    cfg.track_touched_pages = false; // make every pass a full scan
    let db = VeriDb::open(cfg).expect("open");
    db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
        .expect("ddl");
    let table = db.table("kv").expect("table");
    MicroWorkload {
        initial_pairs: n,
        operations: 0,
        value_len: 120,
        seed: 5,
    }
    .load_table(&table)
    .expect("load");
    let mut t = FigureTable::new(
        &format!(
            "Ablation 4: §3.3 multiple verifiers (full scan, {} CPU core(s))",
            cores
        ),
        &["verifier threads", "pass time (ms)"],
    );
    for threads in [1usize, 2, 4] {
        let start = Instant::now();
        db.verify_now_parallel(threads).expect("verify");
        t.row(vec![
            threads.to_string(),
            f2(start.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    if cores < 2 {
        t.note("single-core container: parallel verifiers cannot speed up here");
    }
    t.print();
    let _ = Arc::strong_count(&table);
}

fn spill_ablation() {
    let mut cfg = VeriDbConfig::rsws();
    cfg.verify_every_ops = None;
    let db = VeriDb::open(cfg).expect("open");
    db.sql("CREATE TABLE l (id INT PRIMARY KEY, k INT)")
        .expect("ddl");
    db.sql("CREATE TABLE r (id INT PRIMARY KEY, k INT, pad TEXT)")
        .expect("ddl");
    for i in 0..200 {
        db.sql(&format!("INSERT INTO l VALUES ({i}, {})", i % 20))
            .expect("ins");
    }
    for i in 0..2_000 {
        db.sql(&format!(
            "INSERT INTO r VALUES ({i}, {}, 'pad-{i}')",
            i % 20
        ))
        .expect("ins");
    }
    let opts = PlanOptions {
        prefer_join: PreferredJoin::NestedLoop,
        ..Default::default()
    };
    let sql = "SELECT COUNT(*) FROM l, r WHERE l.k = r.k";
    let mut t = FigureTable::new(
        "Ablation 5: §5.4 intermediate-state spilling (materializing NLJ)",
        &["mode", "query time (ms)", "answer"],
    );
    for (name, threshold) in [
        ("in-enclave buffers", None),
        ("spill to verified storage", Some(4096usize)),
    ] {
        db.set_spill_threshold(threshold);
        let _ = db.sql_with(sql, &opts).expect("warmup");
        let start = Instant::now();
        let r = db.sql_with(sql, &opts).expect("query");
        t.row(vec![
            name.into(),
            f2(start.elapsed().as_secs_f64() * 1e3),
            r.rows[0][0].to_string(),
        ]);
    }
    db.set_spill_threshold(None);
    db.verify_now().expect("verify");
    t.note("spilled rows pay 2 PRF evals per re-read instead of ~40k-cycle EPC swaps");
    t.print();
}

/// Ablation 6: the `veridb-obs` hot-path cost. The registry is always on,
/// so it is measured by subtraction: time protected reads of a hot cell,
/// then time, on a scratch registry, the updates one such read makes (its
/// commit's two PRF evaluations and one singleton element, then verified
/// read and protected read), and report their share of the read against
/// the ≤2% budget.
fn obs_overhead_ablation() {
    use veridb_common::obs::{Metric, Metrics};
    use veridb_enclave::Enclave;
    use veridb_wrcm::VerifiedMemory;

    let mem = VerifiedMemory::new(
        Enclave::create("obs-ablation", 1 << 26, [9u8; 32]),
        &VeriDbConfig {
            rsws_partitions: 16,
            verify_rsws: true,
            verify_metadata: false,
            verify_every_ops: None,
            track_touched_pages: true,
            compact_during_verification: true,
            prf: PrfBackend::HmacSha256,
            workers: 1,
            ..VeriDbConfig::default()
        },
    );
    let page = mem.allocate_page();
    let addr = mem.insert_in(page, &[0xAB; 500]).expect("insert");
    let scratch = Metrics::new();
    let read_updates = |n: usize| {
        for _ in 0..n {
            let m = std::hint::black_box(&scratch);
            m.add(Metric::PrfEvals, 2);
            m.add(Metric::SingletonElements, 1);
            m.inc(Metric::VerifiedReads);
            m.inc(Metric::ProtectedReads);
        }
    };

    // Interleave short rounds of the two loops and keep each one's
    // *minimum* round — scheduler and frequency noise on a shared box
    // dwarfs the few-nanosecond signal, and the minimum is the round
    // least disturbed by it.
    const WARMUP: usize = 20_000;
    const ROUND_OPS: usize = 20_000;
    const ROUNDS: usize = 30;
    for _ in 0..WARMUP {
        std::hint::black_box(mem.read(addr).expect("read"));
    }
    let per_op_ns = |start: Instant| start.elapsed().as_secs_f64() / ROUND_OPS as f64 * 1e9;
    let (mut read_ns, mut registry_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..ROUND_OPS {
            std::hint::black_box(mem.read(addr).expect("read"));
        }
        read_ns = read_ns.min(per_op_ns(start));
        let start = Instant::now();
        read_updates(ROUND_OPS);
        registry_ns = registry_ns.min(per_op_ns(start));
    }
    mem.verify_now().expect("verify");

    let mut t = FigureTable::new(
        "Ablation 6: veridb-obs registry share of a protected read (hot cell)",
        &["work", "ns/read", "share of read"],
    );
    t.row(vec!["protected read".into(), f2(read_ns), "100%".into()]);
    t.row(vec![
        "its registry updates".into(),
        f2(registry_ns),
        format!("{:.2}%", registry_ns / read_ns * 100.0),
    ]);
    t.note("budget: the registry may add at most ~2% per protected read");
    t.print();
}
