//! Micro-benchmarks backing the §6.1 discussion:
//!
//! - `primitives`: the raw verified read/write/insert/delete cells — the
//!   paper reports "the overhead of verifiable read/write is consistently
//!   between 1.4–4.2 microseconds".
//! - `prf`: one digest tag, the tag pair a verified read computes, and one
//!   verified read, on 175-byte (a TPC-H `lineitem` record) and 500-byte
//!   cells — the paper observes the RS/WS cost "is dominated almost
//!   exclusively by PRF operations" and anticipates hardware-accelerated
//!   hashing, which the POLYVAL-then-AES PRF gets from AES-NI and
//!   PCLMULQDQ where the CPU has them (`enclave.prf_hw`). A reference row
//!   times the two HMAC-SHA-256 tags the same read cost before.
//! - `compaction`: eager-on-delete vs deferred-to-scan space reclamation
//!   (the §4.3 optimization).
//! - `scan`: batched verified reads vs the per-cell path, at the memory
//!   layer (`read_page_batch` vs a `read` loop) and at the storage layer
//!   (a sequential `VerifiedScan` with and without index prefetch hints).
//!
//! Each group prints one table of per-call latency percentiles; groups
//! that process many elements per call also print elements per second.

use std::sync::Arc;
use veridb_bench::{f1, percentile, time_once, FigureTable};
use veridb_common::sha256::HmacSha256;
use veridb_common::{ColumnDef, ColumnType, PrfBackend, Row, Schema, Value, VeriDbConfig};
use veridb_enclave::Enclave;
use veridb_storage::{ChainIndex, ChainKey, IndexOracle, Table};
use veridb_wrcm::{CellAddr, PrfEngine, ReadBatch, VerifiedMemory};

/// Timed samples per benchmark.
const SAMPLES: usize = 100;

/// One benchmark group: a table of per-call latencies.
struct Group {
    table: FigureTable,
}

impl Group {
    fn new(name: &str) -> Self {
        Group {
            table: FigureTable::new(
                &format!("micro/{name}: per-call latency"),
                &["bench", "p50 (ns)", "p95 (ns)", "elements/s at p50"],
            ),
        }
    }

    /// Record per-call samples in nanoseconds; `elements` is how many
    /// items one call processes (0 for plain per-op benches).
    fn record(&mut self, name: &str, samples_ns: &[f64], elements: usize) {
        let p50 = percentile(samples_ns, 0.50);
        let rate = if elements > 0 && p50 > 0.0 {
            format!("{:.0}", elements as f64 / (p50 * 1e-9))
        } else {
            "-".into()
        };
        self.table.row(vec![
            name.to_owned(),
            f1(p50),
            f1(percentile(samples_ns, 0.95)),
            rate,
        ]);
    }

    /// Time `f`: after one warm-up batch, `SAMPLES` samples of `batch`
    /// back-to-back calls each, reported per call.
    fn bench(&mut self, name: &str, batch: usize, elements: usize, mut f: impl FnMut()) {
        let mut run = || {
            time_once(|| {
                for _ in 0..batch {
                    f();
                }
            })
            .1 * 1e9
                / batch as f64
        };
        run();
        let samples: Vec<f64> = (0..SAMPLES).map(|_| run()).collect();
        self.record(name, &samples, elements);
    }

    fn finish(self) {
        self.table.print();
    }
}

fn memory(verify: bool, compact_lazy: bool) -> Arc<VerifiedMemory> {
    let enclave = Enclave::create_random("bench", 1 << 26);
    VerifiedMemory::new(
        enclave,
        &VeriDbConfig {
            rsws_partitions: 16,
            verify_rsws: verify,
            verify_metadata: false,
            verify_every_ops: None,
            track_touched_pages: true,
            compact_during_verification: compact_lazy,
            workers: 1,
            ..VeriDbConfig::default()
        },
    )
}

fn bench_primitives() {
    let mut g = Group::new("primitives");
    for (label, verify) in [("baseline", false), ("verified", true)] {
        let mem = memory(verify, true);
        let page = mem.allocate_page();
        let addr = mem.insert_in(page, &[0xABu8; 500]).unwrap();

        g.bench(&format!("read/{label}"), 100, 0, || {
            mem.read(addr).unwrap();
        });
        g.bench(&format!("write/{label}"), 100, 0, || {
            mem.write(addr, &[0xCD; 500]).unwrap()
        });
        g.bench(&format!("insert+delete/{label}"), 100, 0, || {
            let a = mem.insert_in(page, &[0xEF; 120]).unwrap();
            mem.delete(a).unwrap();
        });
    }
    g.finish();
}

fn bench_prf() {
    use std::hint::black_box;
    let body = match veridb_wrcm::prf::hardware_accelerated() {
        true => "AES-NI + PCLMULQDQ",
        false => "portable",
    };
    println!("prf body: {body}");
    let mut g = Group::new("prf");
    let prf = PrfEngine::new(PrfBackend::HmacSha256, [7u8; 32]);
    let hmac = HmacSha256::new(&[7u8; 32]);
    for len in [175, 500] {
        let data = vec![0x5Au8; len];
        g.bench(&format!("tag-{len}B/polyval-aes"), 100, 0, || {
            black_box(prf.tag(0xDEAD, 0, black_box(&data), 42));
        });
        g.bench(&format!("tag_pair-{len}B/polyval-aes"), 100, 0, || {
            black_box(prf.tag_pair(0xDEAD, 0, black_box(&data), 42, 43));
        });
        // What the same read's two tags cost on the HMAC-SHA-256 PRF this
        // one replaced: HMAC(key, addr ‖ kind ‖ ts ‖ data) per timestamp.
        g.bench(
            &format!("two-tags-{len}B/hmac-sha256 (old PRF)"),
            100,
            0,
            || {
                for ts in [42u64, 43] {
                    let mut header = [0u8; 17];
                    header[..8].copy_from_slice(&0xDEADu64.to_le_bytes());
                    header[9..].copy_from_slice(&ts.to_le_bytes());
                    let mut mac = hmac.clone();
                    mac.update(&header);
                    mac.update(black_box(&data));
                    black_box(mac.finalize());
                }
            },
        );
        // Full verified read (PRF cost dominates, §6.1).
        let mem = memory(true, true);
        let page = mem.allocate_page();
        let addr = mem.insert_in(page, &data).unwrap();
        g.bench(&format!("verified-read-{len}B/polyval-aes"), 100, 0, || {
            mem.read(addr).unwrap();
        });
    }
    g.finish();
}

fn bench_compaction() {
    let mut g = Group::new("compaction");
    for (label, lazy) in [("eager-on-delete", false), ("deferred-to-scan", true)] {
        // Each sample deletes half of a fresh page; only the deletes are
        // timed.
        let samples: Vec<f64> = (0..20)
            .map(|_| {
                let mem = memory(true, lazy);
                let page = mem.allocate_page();
                let addrs: Vec<_> = (0..50)
                    .map(|_| mem.insert_in(page, &[0x11; 120]).unwrap())
                    .collect();
                let ((), secs) = time_once(|| {
                    for a in addrs.iter().step_by(2) {
                        mem.delete(*a).unwrap();
                    }
                });
                secs * 1e9
            })
            .collect();
        g.record(&format!("delete-half-page/{label}"), &samples, 0);
    }
    g.finish();
}

/// An honest index that refuses to answer prefetch hints, forcing the
/// verified scan onto its per-record resolve path. Lets the bench compare
/// the batched fast path against the fallback over identical data.
struct NoPrefetch(ChainIndex);

impl IndexOracle for NoPrefetch {
    fn find_floor(&self, key: &ChainKey) -> Option<CellAddr> {
        self.0.find_floor(key)
    }
    fn find_below(&self, key: &ChainKey) -> Option<CellAddr> {
        self.0.find_below(key)
    }
    fn find_exact(&self, key: &ChainKey) -> Option<CellAddr> {
        self.0.find_exact(key)
    }
    fn upsert(&self, key: ChainKey, addr: CellAddr) {
        self.0.upsert(key, addr);
    }
    fn remove(&self, key: &ChainKey) {
        self.0.remove(key);
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    // next_entries: inherited default (empty) — disables batching.
}

const SCAN_CELLS: usize = 64;
const SCAN_ROWS: usize = 1024;

fn scan_table(mem: &Arc<VerifiedMemory>, prefetch: bool) -> Arc<Table> {
    let schema = Schema::new(vec![
        ColumnDef::chained("id", ColumnType::Int),
        ColumnDef::new("payload", ColumnType::Str),
    ])
    .unwrap();
    let indexes: Vec<Box<dyn IndexOracle>> = if prefetch {
        vec![Box::new(ChainIndex::new())]
    } else {
        vec![Box::new(NoPrefetch(ChainIndex::new()))]
    };
    let name = if prefetch { "scan_fast" } else { "scan_slow" };
    let table = Table::create_with_indexes(Arc::clone(mem), name, schema, indexes).unwrap();
    for i in 0..SCAN_ROWS as i64 {
        table
            .insert(Row::new(vec![
                Value::Int(i),
                Value::Str(format!("payload-{i:06}-abcdefghijklmnopqrstuvwxyz")),
            ]))
            .unwrap();
    }
    table
}

fn bench_scan() {
    let mut g = Group::new("scan");

    // Memory layer: one page of 64 ~100 B cells, read per-cell vs batched.
    let mem = memory(true, true);
    let page = mem.allocate_page();
    let addrs: Vec<_> = (0..SCAN_CELLS)
        .map(|i| mem.insert_in(page, &[i as u8; 100]).unwrap())
        .collect();
    let slots: Vec<_> = addrs.iter().map(|a| a.slot).collect();
    g.bench("wrcm-per-cell-64x100B", 10, SCAN_CELLS, || {
        for a in &addrs {
            mem.read(*a).unwrap();
        }
    });
    let mut batch = ReadBatch::new();
    g.bench("wrcm-batched-64x100B", 10, SCAN_CELLS, || {
        mem.read_page_batch(page, &slots, &mut batch).unwrap();
        assert_eq!(batch.len(), SCAN_CELLS);
    });

    // Storage layer: full verified sequential scan, batched fast path
    // (prefetching index) vs per-record fallback (prefetch disabled).
    let mem = memory(true, true);
    let fast = scan_table(&mem, true);
    let slow = scan_table(&mem, false);
    g.bench("seq-scan-1024-batched", 1, SCAN_ROWS, || {
        let mut scan = fast.seq_scan();
        let mut n = 0usize;
        for r in scan.by_ref() {
            r.unwrap();
            n += 1;
        }
        assert_eq!(n, SCAN_ROWS);
        assert!(scan.batched_rounds() > 0, "fast path must engage");
    });
    g.bench("seq-scan-1024-per-record", 1, SCAN_ROWS, || {
        let mut scan = slow.seq_scan();
        let mut n = 0usize;
        for r in scan.by_ref() {
            r.unwrap();
            n += 1;
        }
        assert_eq!(n, SCAN_ROWS);
        assert_eq!(scan.batched_rounds(), 0, "fallback must stay per-record");
    });
    g.finish();
}

fn main() {
    bench_primitives();
    bench_prf();
    bench_compaction();
    bench_scan();
}
