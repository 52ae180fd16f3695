//! Recovery from failure (§5.1).
//!
//! VeriDB's verifiability state — `h(RS)`, `h(WS)`, the timestamp counter
//! — lives inside the enclave and dies with power. But VeriDB is an
//! in-memory database: a power failure wipes the *database* too, so
//! re-establishing the enclave state rides along with ordinary recovery:
//! the portal replays data from a designated source (e.g. a remote
//! replica) **through the same protected write interfaces**, which
//! naturally rebuilds `h(WS)`; the always-running verifier then covers the
//! recovered state like any other.
//!
//! [`Replica`] is the designated source in this reproduction: the same
//! per-table snapshots a sealed on-disk epoch stores (what a remote
//! replica would stream).
//! Recovery also advances the timestamp counter past the snapshot's
//! high-water mark — regressing it would itself be a rollback, which the
//! client-side sequence-number defense would catch.

use crate::VeriDb;
use veridb_common::{Result, VeriDbConfig};
use veridb_log::TableSnapshot;
use veridb_storage::Catalog;

/// A replica snapshot: everything needed to rebuild the database through
/// the protected write path.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Every table's name, schema and rows.
    pub tables: Vec<TableSnapshot>,
    /// The portal sequence high-water mark at snapshot time. Recovery
    /// advances the new enclave's counter past it so sequence numbers
    /// never repeat across the failure.
    pub sequence_high_water: u64,
}

impl VeriDb {
    /// Snapshot the current state as a replica (what the remote replica
    /// would hold). Reads go through the verified scan path.
    pub fn snapshot_replica(&self) -> Result<Replica> {
        Ok(Replica {
            tables: snapshot_tables(self.catalog())?,
            sequence_high_water: self.enclave().current_timestamp(),
        })
    }

    /// Recover a fresh instance from a replica: create a new enclave (new
    /// keys — the old ones died with the machine), then replay the
    /// replica's rows through the protected insert path, rebuilding
    /// `h(WS)` as a side effect, exactly as §5.1 describes.
    ///
    /// This is the same replay engine disk recovery uses
    /// ([`replay_tables`]) — one replay path, two sources: an in-process
    /// [`Replica`] snapshot here, a sealed on-disk snapshot + WAL tail in
    /// [`VeriDb::open_durable`].
    pub fn recover_from_replica(config: VeriDbConfig, replica: &Replica) -> Result<VeriDb> {
        let db = VeriDb::open(config)?;
        replay_tables(&db, replica.tables.clone())?;
        // Never reuse sequence numbers from before the failure.
        db.enclave()
            .advance_timestamp_to(replica.sequence_high_water);
        // The recovered state verifies like any other.
        db.verify_now()?;
        Ok(db)
    }
}

/// The single snapshot taker: every table's rows, read through the
/// verified scan path. Both recovery sources — in-process [`Replica`]
/// snapshots and `veridb-log`'s sealed on-disk epochs — are built here.
pub(crate) fn snapshot_tables(catalog: &Catalog) -> Result<Vec<TableSnapshot>> {
    let mut tables = Vec::new();
    for name in catalog.table_names() {
        let t = catalog.table(&name)?;
        let rows = t.seq_scan().collect_rows()?;
        tables.push(TableSnapshot {
            name,
            schema: t.schema().clone(),
            rows,
        });
    }
    Ok(tables)
}

/// The single snapshot-replay engine: rebuild tables through the
/// protected write path (create + verified inserts), so `h(WS)` is
/// re-established as a side effect. Both recovery sources route through
/// here.
pub(crate) fn replay_tables(db: &VeriDb, tables: Vec<TableSnapshot>) -> Result<()> {
    for TableSnapshot { name, schema, rows } in tables {
        let table = db.catalog().create_table(&name, schema)?;
        for row in rows {
            table.insert(row)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::Value;

    fn populated() -> VeriDb {
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        let db = VeriDb::open(cfg).unwrap();
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        db.sql("INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c')")
            .unwrap();
        db.sql("CREATE TABLE u (k INT PRIMARY KEY, n INT CHAINED)")
            .unwrap();
        db.sql("INSERT INTO u VALUES (10, 7),(20, 3)").unwrap();
        db
    }

    #[test]
    fn snapshot_and_recover_round_trip() {
        let db = populated();
        let replica = db.snapshot_replica().unwrap();
        assert_eq!(replica.tables.len(), 2);

        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        let recovered = VeriDb::recover_from_replica(cfg, &replica).unwrap();
        let r = recovered.sql("SELECT * FROM t").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[1][1], Value::Str("b".into()));
        let r = recovered.sql("SELECT n FROM u WHERE k = 10").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(7));
        // The recovered instance verifies and keeps working.
        recovered.sql("INSERT INTO t VALUES (4,'d')").unwrap();
        recovered.verify_now().unwrap();
    }

    /// Both recovery sources share one table type and so one codec: a
    /// replica's tables survive the sealed-snapshot encoding and recover
    /// row for row.
    #[test]
    fn replica_tables_round_trip_through_the_snapshot_codec() {
        let db = populated();
        let replica = db.snapshot_replica().unwrap();
        let decoded =
            veridb_log::decode_snapshot(&veridb_log::encode_snapshot(&replica.tables)).unwrap();
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        let recovered = VeriDb::recover_from_replica(
            cfg,
            &Replica {
                tables: decoded,
                sequence_high_water: replica.sequence_high_water,
            },
        )
        .unwrap();
        assert_eq!(
            recovered.snapshot_replica().unwrap().tables,
            db.snapshot_replica().unwrap().tables
        );
        recovered.verify_now().unwrap();
    }

    #[test]
    fn recovery_advances_sequence_counter() {
        let db = populated();
        // Burn some sequence numbers.
        for _ in 0..100 {
            db.enclave().next_timestamp();
        }
        let replica = db.snapshot_replica().unwrap();
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        let recovered = VeriDb::recover_from_replica(cfg, &replica).unwrap();
        assert!(
            recovered.enclave().current_timestamp() > replica.sequence_high_water,
            "recovered counter must be past the snapshot high-water mark"
        );
    }
}
