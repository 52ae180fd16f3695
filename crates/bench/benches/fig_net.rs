//! Network layer — concurrent remote clients against `veridb serve`.
//!
//! Starts one in-process reactor server over a TPC-H-loaded engine and
//! runs two sweeps through the full wire path (framing, CRC, attestation
//! handshake, portal MAC check, endorsement verification, `SeqIntervals`):
//!
//! 1. **Client sweep** — 1/4/16/64/256 concurrent
//!    [`veridb_net::RemoteClient`]s (1024 when `VERIDB_BENCH_1024` is
//!    set), each running the analytical mix (Q1, Q6, Q3) serially. The
//!    table reports client-observed latency (which, closed-loop, includes
//!    queueing for the shared engine) *and* the server-side per-query
//!    handling time (`net.wire_ns`), which must stay flat as connections
//!    scale — the reactor adds no per-connection overhead.
//! 2. **Pipelining sweep** — 16 clients at pipeline depth 1/4/16 via
//!    [`veridb_net::RemoteClient::query_pipelined`].
//!
//! Every remote result is asserted equivalent to the in-process path
//! before any number is reported, so the bench doubles as an end-to-end
//! correctness check; the run also asserts that no executor worker
//! panicked and that the admission queue drained (every admitted query
//! terminated).
//!
//! Written to `BENCH_net.json` for cross-PR tracking.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use veridb::{Metric, VeriDb, VeriDbConfig};
use veridb_bench::{
    counter, f1, rows_equivalent, scale_from_env, summarize, tpch_multi_client_config, FigureTable,
    OpSummary,
};
use veridb_workloads::tpch::{self, TpchData};

const CLIENT_COUNTS: [usize; 5] = [1, 4, 16, 64, 256];
const PIPELINE_DEPTHS: [usize; 3] = [1, 4, 16];
const PIPELINE_CLIENTS: usize = 16;
/// Mix rounds per client in the client sweep (halved past 64 clients to
/// bound wall time; the sample count stays large).
const ROUNDS: usize = 2;
/// Mix rounds per client in the pipelining sweep (12 queries each).
const PIPE_ROUNDS: usize = 4;

struct Mix {
    cases: [(&'static str, &'static str); 3],
    expected: Vec<(&'static str, veridb::QueryResult)>,
}

fn check(mix: &Mix, i: usize, got: &veridb::QueryResult) {
    let (name, want) = &mix.expected[i % mix.cases.len()];
    assert_eq!(got.columns, want.columns, "{name} columns");
    assert!(
        rows_equivalent(&got.rows, &want.rows),
        "{name}: remote result must equal the in-process result"
    );
}

fn main() {
    let scale = scale_from_env();
    let cfg = tpch_multi_client_config(scale);
    let mut counts: Vec<usize> = CLIENT_COUNTS.to_vec();
    if std::env::var("VERIDB_BENCH_1024").is_ok() {
        counts.push(1024);
    }
    println!(
        "Network sweep — lineitem: {} rows, clients {counts:?}, pipeline depths \
         {PIPELINE_DEPTHS:?} at {PIPELINE_CLIENTS} clients (scale {scale:?})",
        cfg.lineitem_rows,
    );
    let data = TpchData::generate(&cfg);

    let mut v_cfg = VeriDbConfig::rsws();
    v_cfg.verify_every_ops = None;
    // A window wide enough for pipelining clients.
    v_cfg.replay_window = 1 << 14;
    v_cfg.max_conns = 2048;
    let db = Arc::new(VeriDb::open(v_cfg).expect("open"));
    data.load(&db).expect("load");

    let cases: [(&str, &str); 3] = [("Q1", tpch::q1()), ("Q6", tpch::q6()), ("Q3", tpch::q3())];
    // Ground truth from the in-process path.
    let expected: Vec<(&str, veridb::QueryResult)> = cases
        .iter()
        .map(|(name, sql)| (*name, db.sql(sql).expect("in-process query")))
        .collect();
    let mix = Mix { cases, expected };

    let mut server = veridb_net::serve(Arc::clone(&db), "127.0.0.1:0").expect("serve");
    let addr = server.local_addr().to_string();

    let mut t = FigureTable::new(
        "Network layer: concurrent verifying clients vs one veridb serve \
         (client-observed latency is closed-loop: it includes queueing for \
         the shared engine; 'wire µs' is the server-side per-query handling \
         time, which must stay flat)",
        &[
            "clients",
            "queries",
            "p50 ms",
            "p95 ms",
            "queries/s",
            "wire µs/q",
        ],
    );
    let mut summaries: Vec<OpSummary> = Vec::new();
    for &n in &counts {
        let rounds = if n >= 256 { ROUNDS.div_ceil(2) } else { ROUNDS };
        let wire_before = db.metrics();
        // Connect (and attest) everyone first so the measured window is
        // query traffic, not a handshake storm.
        let mut clients: Vec<veridb_net::RemoteClient> = (0..n)
            .map(|i| {
                veridb_net::RemoteClient::connect_simulated(
                    &addr,
                    &format!("bench-{n}-{i}"),
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
                    let mix = &mix;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let mut samples = Vec::with_capacity(mix.cases.len() * rounds);
                        for r in 0..rounds {
                            for (c, (_, sql)) in mix.cases.iter().enumerate() {
                                let start = Instant::now();
                                let got = client.query(sql).expect("remote query");
                                samples.push(start.elapsed().as_secs_f64());
                                check(mix, r * mix.cases.len() + c, &got);
                            }
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
        let wire = db.metrics().since(&wire_before).hist(Metric::NetWireNs);
        let samples: Vec<f64> = all_samples.into_iter().flatten().collect();
        let queries = samples.len();
        let summary = summarize(&format!("mix/clients={n}"), &samples, wall, queries);
        t.row(vec![
            n.to_string(),
            queries.to_string(),
            f1(summary.p50_us / 1e3),
            f1(summary.p95_us / 1e3),
            f1(summary.throughput_per_s),
            f1(wire.mean() / 1e3),
        ]);
        summaries.push(summary);
    }

    let mut tp = FigureTable::new(
        "Pipelining: 16 clients, N queries in flight per connection \
         (RESULTs delivered in order; Overloaded refusals resent)",
        &["depth", "queries", "p50 ms", "p95 ms", "queries/s"],
    );
    for &depth in &PIPELINE_DEPTHS {
        let wall_start = Instant::now();
        let per_client: Vec<(usize, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..PIPELINE_CLIENTS)
                .map(|i| {
                    let addr = addr.clone();
                    let mix = &mix;
                    s.spawn(move || {
                        let mut client = veridb_net::RemoteClient::connect_simulated(
                            &addr,
                            &format!("pipe-{depth}-{i}"),
                            "veridb",
                            Duration::from_secs(120),
                        )
                        .expect("connect");
                        let sqls: Vec<&str> = (0..PIPE_ROUNDS)
                            .flat_map(|_| mix.cases.iter().map(|(_, sql)| *sql))
                            .collect();
                        let start = Instant::now();
                        let results = client.query_pipelined(&sqls, depth).expect("pipeline");
                        let elapsed = start.elapsed().as_secs_f64();
                        for (j, got) in results.iter().enumerate() {
                            check(mix, j, got);
                        }
                        client.close();
                        (results.len(), elapsed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pipeline client"))
                .collect()
        });
        let wall = wall_start.elapsed().as_secs_f64();
        let queries: usize = per_client.iter().map(|(n, _)| n).sum();
        // Per-query latency in a pipeline is amortized: client wall time
        // over queries completed.
        let samples: Vec<f64> = per_client.iter().map(|(n, e)| e / *n as f64).collect();
        let summary = summarize(&format!("pipeline/depth={depth}"), &samples, wall, queries);
        tp.row(vec![
            depth.to_string(),
            queries.to_string(),
            f1(summary.p50_us / 1e3),
            f1(summary.p95_us / 1e3),
            f1(summary.throughput_per_s),
        ]);
        summaries.push(summary);
    }

    server.shutdown();
    db.verify_now().expect("post-run verification must pass");
    let overloaded = counter(&db, "net.overloaded");
    let panics = counter(&db, "net.worker_panics");
    let queued = counter(&db, "net.queued");
    assert_eq!(panics, 0, "no executor worker may panic during the sweep");
    assert_eq!(queued, 0, "every admitted query must have terminated");
    t.note("Every remote result was asserted equivalent to the in-process path.");
    t.note(
        "All queries travel the full wire path: framing + CRC, attestation, portal MACs, \
         SeqIntervals.",
    );
    t.note(&format!(
        "Overload refusals (each retried and eventually answered): {overloaded}; \
         worker panics: {panics}; queries left queued: {queued}."
    ));
    t.print();
    tp.print();
    veridb_bench::write_bench_summary("net", &summaries);
}
