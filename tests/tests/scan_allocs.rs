//! Heap-allocation budget of the verified scan path.
//!
//! A verified chain scan decodes each record into a row and its
//! `⟨key, nKey⟩` pairs. Only the data needs the heap: the row's value
//! vector, the record's chain vector and one buffer per string column.
//! Chain keys are inline, the page-grouping buffers belong to the scan,
//! and grouped aggregation reuses one key buffer. A counting allocator pins
//! that budget, so a per-row `Vec` that comes back in the chain-key codec,
//! the cursor or the aggregate fails here.
//!
//! The counter is thread-local: the scans below run serially on the test's
//! own thread, so other test threads and background workers do not disturb
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use veridb::{Metric, PlanOptions, Row, Value, VeriDb, VeriDbConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's contract passes straight through. Counting touches only a
// const-initialised thread-local `Cell`, which never allocates or re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f`, returning its result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const ROWS: i64 = 3000;
/// `a` and `b` below.
const STR_COLUMNS: u64 = 2;
/// Row value vector + record chain vector + one buffer per string column.
const PER_ROW: u64 = 2 + STR_COLUMNS;
/// Per round: the index's candidate list, plus slack for a scan-owned
/// buffer or the ready queue growing.
const PER_ROUND: u64 = 2;
/// Scan setup: the floor lookup and first-round buffer growth.
const FIXED: u64 = 64;

/// Scanned range on the chained date column: days `[LO, HI)`.
const LO: i32 = 60;
const HI: i32 = 300;

/// A verified table whose chain-1 order (by date) visits pages at random,
/// like TPC-H's `l_shipdate`: almost every candidate of a round sits on
/// its own page.
fn db() -> VeriDb {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.workers = 1;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, d DATE CHAINED, a TEXT, b TEXT, x FLOAT)")
        .unwrap();
    let t = db.table("t").unwrap();
    for i in 0..ROWS {
        t.insert(Row::new(vec![
            Value::Int(i),
            Value::Date(((i * 7919) % 365) as i32),
            Value::Str(format!("flag-{}", i % 3)),
            Value::Str(format!("status-{}", i % 2)),
            Value::Float(i as f64 / 8.0),
        ]))
        .unwrap();
    }
    db
}

fn serial() -> PlanOptions {
    PlanOptions {
        workers: 1,
        ..PlanOptions::default()
    }
}

#[test]
fn chain_range_scan_allocates_only_row_data() {
    let db = db();
    let t = db.table("t").unwrap();
    let met = t.memory().metrics();
    let scan_range = || {
        let mut scan = t.range_scan(
            1,
            Bound::Included(Value::Date(LO)),
            Bound::Excluded(Value::Date(HI)),
        );
        let mut rows = 0u64;
        for row in scan.by_ref() {
            row.unwrap();
            rows += 1;
        }
        (rows, scan.records_read())
    };
    scan_range(); // warm-up: first touch of every page
    let rounds_before = met.get(Metric::ScanBatchedRounds) + met.get(Metric::ScanFallbackRounds);
    let ((rows, read), allocs) = counted(scan_range);
    let rounds =
        met.get(Metric::ScanBatchedRounds) + met.get(Metric::ScanFallbackRounds) - rounds_before;

    assert!(
        rows > 1000,
        "the range holds most of the table ({rows} rows)"
    );
    // The slack for per-round costs must stay well below one allocation
    // per row, or a per-row Vec could hide inside it.
    assert!(
        PER_ROUND * rounds + FIXED < rows / 2,
        "{rounds} rounds for {rows} rows"
    );
    let budget = PER_ROW * read + PER_ROUND * rounds + FIXED;
    assert!(
        allocs <= budget,
        "chain-1 range scan made {allocs} allocations for {rows} rows \
         ({read} records read, {rounds} rounds); budget {budget}"
    );
}

#[test]
fn group_by_adds_no_per_row_key() {
    let db = db();
    let range = format!(
        "d >= DATE '{}' AND d < DATE '{}'",
        Value::format_date(LO),
        Value::format_date(HI)
    );
    let plain = format!("SELECT COUNT(*), SUM(x) FROM t WHERE {range}");
    let grouped = format!("SELECT a, b, COUNT(*), SUM(x) FROM t WHERE {range} GROUP BY a, b");
    let run = |sql: &str| db.sql_with(sql, &serial()).unwrap();
    // Warm-up: first touch of every page, and the plans' one-time costs.
    run(&plain);
    run(&grouped);

    let (plain_rows, plain_allocs) = counted(|| run(&plain));
    let (grouped_rows, grouped_allocs) = counted(|| run(&grouped));
    let Value::Int(rows) = plain_rows.rows[0][0] else {
        panic!("COUNT(*) is an integer")
    };
    let rows = rows as u64;
    assert!(
        rows > 1000,
        "the range holds most of the table ({rows} rows)"
    );
    assert_eq!(grouped_rows.rows.len(), 6, "3 × 2 groups");
    // The scan ran on this thread, so the count includes its rows.
    assert!(
        plain_allocs >= PER_ROW * rows,
        "the serial scan's allocations were counted ({plain_allocs} for {rows} rows)"
    );
    // Grouping may allocate per group (its key and states) and per query
    // (the output rows and plan), but not per row.
    let extra = grouped_allocs.saturating_sub(plain_allocs);
    assert!(
        extra < rows / 4,
        "GROUP BY added {extra} allocations over {rows} rows \
         ({grouped_allocs} grouped vs {plain_allocs} plain)"
    );
}
