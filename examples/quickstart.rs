//! Quickstart: open a VeriDB instance, create a table, run SQL, and check
//! the deferred verification.
//!
//! Run with: `cargo run --release --example quickstart`

use veridb::{VeriDb, VeriDbConfig};

fn main() -> veridb::Result<()> {
    // Default configuration: 8 KiB pages, 16 RSWS partitions, POLYVAL-then-AES
    // digests, background verifier scanning one page per 1000 operations.
    let db = VeriDb::open(VeriDbConfig::default())?;

    // The quote table from the paper's Figure 4.
    db.sql("CREATE TABLE quote (id INT PRIMARY KEY, count INT, price INT)")?;
    db.sql("INSERT INTO quote VALUES (1,100,100),(2,100,200),(3,500,100),(4,600,100)")?;

    // Point lookup: the existence of id=1 is proved by the record
    // ⟨id1, id2, (100, $100)⟩ read from write-read consistent memory.
    let r = db.sql("SELECT * FROM quote WHERE id = 1")?;
    println!("point lookup:\n{}", r.to_table());

    // Verified absence: a miss comes with evidence too (the ⟨id4, ⊤⟩ gap).
    let r = db.sql("SELECT * FROM quote WHERE id = 99")?;
    println!(
        "verified miss: {} rows (absence is proven, not assumed)",
        r.rows.len()
    );

    // Range scan with completeness checks (Figure 5's three conditions).
    let r = db.sql("SELECT id, count FROM quote WHERE id BETWEEN 2 AND 3")?;
    println!("range scan:\n{}", r.to_table());

    // Updates and aggregation.
    db.sql("UPDATE quote SET count = count + 50 WHERE price = 100")?;
    let r = db.sql(
        "SELECT price, SUM(count) AS total, COUNT(*) AS n \
         FROM quote GROUP BY price ORDER BY price",
    )?;
    println!("aggregate:\n{}", r.to_table());

    // Look at the plan the in-enclave compiler chose.
    let plan = db.explain(
        "SELECT id FROM quote WHERE id >= 2 AND id <= 3",
        &veridb::PlanOptions::default(),
    )?;
    println!("plan:\n{plan}");

    // Deferred verification: scan every partition and check h(RS) = h(WS).
    let report = db.verify_now()?;
    println!(
        "verification passed: {} pages processed, epochs now {:?}",
        report.pages_processed, report.epochs
    );

    // Simulated SGX cost accounting.
    for (name, value) in db.costs() {
        println!("{name}: {value}");
    }
    Ok(())
}
