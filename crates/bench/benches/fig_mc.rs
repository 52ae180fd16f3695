//! Multi-client aggregate throughput on the shared scheduler pool.
//!
//! One process-wide work-stealing pool executes every concurrent verified
//! query; this bench sweeps concurrent remote clients {1, 4, 8, 16} at
//! two per-query DOP caps — 1 (pure inter-query parallelism: the pool
//! multiplexes whole queries across cores) and `min(cores, 8)` (each
//! query may also fan out morsels) — and reports aggregate throughput
//! plus client-observed p50/p95. Every remote result is checked against
//! the in-process answer before any number is reported.
//!
//! Concurrency gate: on hosts with ≥ 4 cores the bench *fails* (non-zero
//! exit) if 8 concurrent Q6 clients at DOP 1 do not reach 2.5× the
//! single-client aggregate throughput — concurrent queries sharing one
//! pool must actually run concurrently, not serialize behind each other.
//! Single-core CI skips the gate and only checks correctness.
//!
//! Written to `BENCH_mc.json` for cross-PR tracking.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use veridb::{VeriDb, VeriDbConfig};
use veridb_bench::{
    counter, f1, rows_equivalent, scale_from_env, summarize, tpch_multi_client_config, FigureTable,
    OpSummary,
};
use veridb_workloads::tpch::{self, TpchData};

const CLIENT_COUNTS: [usize; 4] = [1, 4, 8, 16];
/// Q6 executions per client per sweep cell.
const ROUNDS: usize = 4;
/// Minimum aggregate-throughput ratio, 8 clients vs 1 client, at DOP 1
/// on a multi-core host (gate).
const MIN_8C_SPEEDUP: f64 = 2.5;

fn main() {
    let scale = scale_from_env();
    let cfg = tpch_multi_client_config(scale);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dops = if cores > 1 {
        vec![1usize, cores.min(8)]
    } else {
        vec![1usize]
    };
    println!(
        "Multi-client sweep — lineitem: {} rows, clients {CLIENT_COUNTS:?}, per-query \
         DOP {dops:?}, shared pool: {} thread(s) (scale {scale:?})",
        cfg.lineitem_rows,
        cores.min(8),
    );
    let data = TpchData::generate(&cfg);

    let mut v_cfg = VeriDbConfig::rsws();
    v_cfg.verify_every_ops = None;
    v_cfg.replay_window = 1 << 14;
    v_cfg.max_conns = 64;
    // The one pool every client's queries share; its size — not the
    // client count — bounds total execution threads.
    v_cfg.pool_threads = cores.min(8);
    let db = Arc::new(VeriDb::open(v_cfg).expect("open"));
    data.load(&db).expect("load");

    let sql = tpch::q6();
    let expected = db.sql(sql).expect("in-process Q6");

    let mut server = veridb_net::serve(Arc::clone(&db), "127.0.0.1:0").expect("serve");
    let addr = server.local_addr().to_string();

    let mut t = FigureTable::new(
        "Multi-client: concurrent Q6 clients sharing one scheduler pool \
         (aggregate q/s must scale with clients while total threads stay \
         fixed at the pool size)",
        &[
            "dop",
            "clients",
            "queries",
            "p50 ms",
            "p95 ms",
            "agg q/s",
            "vs 1 client",
            "steals×job",
        ],
    );
    let mut summaries: Vec<OpSummary> = Vec::new();
    let mut gate_ratio = None;
    for &dop in &dops {
        db.set_workers(dop);
        let mut single_client_tput = None;
        for &n in &CLIENT_COUNTS {
            let steals_before = counter(&db, "query.cross_job_steals");
            let mut clients: Vec<veridb_net::RemoteClient> = (0..n)
                .map(|i| {
                    veridb_net::RemoteClient::connect_simulated(
                        &addr,
                        &format!("mc-{dop}-{n}-{i}"),
                        "veridb",
                        Duration::from_secs(120),
                    )
                    .expect("connect")
                })
                .collect();
            let barrier = Barrier::new(n);
            let wall_start = Instant::now();
            let all_samples: Vec<Vec<f64>> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .map(|client| {
                        let expected = &expected;
                        let barrier = &barrier;
                        s.spawn(move || {
                            barrier.wait();
                            let mut samples = Vec::with_capacity(ROUNDS);
                            for _ in 0..ROUNDS {
                                let start = Instant::now();
                                let got = client.query(sql).expect("remote Q6");
                                samples.push(start.elapsed().as_secs_f64());
                                assert!(
                                    rows_equivalent(&got.rows, &expected.rows),
                                    "remote Q6 must equal the in-process result"
                                );
                            }
                            samples
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let wall = wall_start.elapsed().as_secs_f64();
            for mut c in clients {
                c.close();
            }
            let steals = counter(&db, "query.cross_job_steals") - steals_before;
            let samples: Vec<f64> = all_samples.into_iter().flatten().collect();
            let queries = samples.len();
            let mut summary = summarize(
                &format!("Q6/dop={dop}/clients={n}"),
                &samples,
                wall,
                queries,
            );
            let base = *single_client_tput.get_or_insert(summary.throughput_per_s);
            let ratio = summary.throughput_per_s / base.max(f64::MIN_POSITIVE);
            if dop == 1 && n == 8 {
                gate_ratio = Some(ratio);
            }
            summary.speedup_vs_1w = Some(ratio);
            t.row(vec![
                dop.to_string(),
                n.to_string(),
                queries.to_string(),
                f1(summary.p50_us / 1e3),
                f1(summary.p95_us / 1e3),
                f1(summary.throughput_per_s),
                format!("{ratio:.2}x"),
                steals.to_string(),
            ]);
            summaries.push(summary);
        }
    }
    db.set_workers(1);

    server.shutdown();
    db.verify_now().expect("post-run verification must pass");
    let panics = counter(&db, "net.worker_panics");
    let queued = counter(&db, "net.queued");
    assert_eq!(panics, 0, "no turn may panic during the sweep");
    assert_eq!(queued, 0, "every admitted query must have terminated");
    t.note("Every remote result was asserted equivalent to the in-process path.");
    t.note(
        "steals×job: cross-job work steals — pool workers finishing one \
         query's morsels and pulling another concurrent query's.",
    );
    t.print();
    veridb_bench::write_bench_summary("mc", &summaries);

    // Concurrency gate (multi-core hosts only).
    let ratio = gate_ratio.expect("the dop=1, clients=8 cell ran");
    if cores >= 4 {
        if ratio < MIN_8C_SPEEDUP {
            eprintln!(
                "CONCURRENCY REGRESSION: 8 concurrent Q6 clients reached only \
                 {ratio:.2}x the single-client aggregate throughput (gate: ≥ \
                 {MIN_8C_SPEEDUP:.1}x on a {cores}-core host). Concurrent \
                 queries are serializing on the shared pool."
            );
            std::process::exit(1);
        }
        println!(
            "  concurrency gate passed: 8 clients = {ratio:.2}x 1 client (≥ {MIN_8C_SPEEDUP:.1}x)"
        );
    } else {
        println!(
            "  concurrency gate skipped: host has {cores} core(s); correctness \
             checks still ran at every cell (8 clients = {ratio:.2}x)"
        );
    }
}
