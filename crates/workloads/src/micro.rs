//! The §6.1 micro-benchmark workload.
//!
//! "We use 4-byte integers as keys and 500-byte strings as values. The
//! initial database consists of N key-value pairs, where the keys are in
//! the range of 1…N and the values are generated randomly. … 10 thousand
//! operations in total, where the number of four kinds of operations are
//! approximately the same."
//!
//! The op stream is generated against a model so Inserts always use fresh
//! keys and Deletes always hit live keys, keeping every operation
//! meaningful. The same stream can drive a VeriDB [`Table`] or the
//! MB-Tree baseline, which is how Figure 11 compares them.

use std::sync::Arc;
use veridb_common::rng::Rng;
use veridb_common::{ColumnDef, ColumnType, Result, Row, Value};
use veridb_mbtree::MbTree;
use veridb_storage::Table;

/// One operation of the mixed stream.
#[derive(Debug, Clone, PartialEq)]
pub enum MicroOp {
    /// Point read of a live key.
    Get(i64),
    /// Insert of a fresh key with a value.
    Insert(i64, String),
    /// Delete of a live key.
    Delete(i64),
    /// In-place value update of a live key.
    Update(i64, String),
}

/// Workload parameters (defaults follow the paper: N = 1M, 10k ops,
/// 500-byte values — scale N down for laptop runs).
#[derive(Debug, Clone)]
pub struct MicroWorkload {
    /// Initial key-value pairs (keys 1..=N).
    pub initial_pairs: i64,
    /// Operations in the mixed stream.
    pub operations: usize,
    /// Value length in bytes.
    pub value_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MicroWorkload {
    fn default() -> Self {
        MicroWorkload {
            initial_pairs: 1_000_000,
            operations: 10_000,
            value_len: 500,
            seed: 42,
        }
    }
}

impl MicroWorkload {
    /// A laptop-scale variant preserving the op mix.
    pub fn scaled(initial_pairs: i64, operations: usize) -> Self {
        MicroWorkload {
            initial_pairs,
            operations,
            ..Self::default()
        }
    }

    /// The table schema: `(k INT PRIMARY KEY, v TEXT)`.
    pub fn schema() -> veridb_common::Schema {
        veridb_common::Schema::new(vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Str),
        ])
        .expect("static schema")
    }

    fn value(&self, rng: &mut Rng) -> String {
        let mut s = String::with_capacity(self.value_len);
        for _ in 0..self.value_len {
            s.push((b'a' + rng.gen_range(0..26u8)) as char);
        }
        s
    }

    /// Load the initial pairs into a VeriDB table.
    pub fn load_table(&self, table: &Arc<Table>) -> Result<()> {
        let mut rng = Rng::seed_from_u64(self.seed);
        for k in 1..=self.initial_pairs {
            let v = self.value(&mut rng);
            table.insert(Row::new(vec![Value::Int(k), Value::Str(v)]))?;
        }
        Ok(())
    }

    /// Load the initial pairs into the MB-Tree baseline.
    pub fn load_mbtree(&self, tree: &MbTree) {
        let mut rng = Rng::seed_from_u64(self.seed);
        for k in 1..=self.initial_pairs {
            let v = self.value(&mut rng);
            tree.insert(Value::Int(k), v.into_bytes());
        }
    }

    /// Generate the mixed op stream. Deterministic in the seed; each op
    /// kind appears with probability ~1/4.
    pub fn ops(&self) -> Vec<MicroOp> {
        let mut rng = Rng::seed_from_u64(self.seed.wrapping_add(1));
        let mut live: Vec<i64> = (1..=self.initial_pairs).collect();
        let mut next_key = self.initial_pairs + 1;
        let mut out = Vec::with_capacity(self.operations);
        while out.len() < self.operations {
            match rng.gen_range(0..4u8) {
                0 => {
                    if live.is_empty() {
                        continue;
                    }
                    let k = live[rng.gen_range(0..live.len())];
                    out.push(MicroOp::Get(k));
                }
                1 => {
                    let k = next_key;
                    next_key += 1;
                    live.push(k);
                    let v = self.value(&mut rng);
                    out.push(MicroOp::Insert(k, v));
                }
                2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = rng.gen_range(0..live.len());
                    let k = live.swap_remove(i);
                    out.push(MicroOp::Delete(k));
                }
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let k = live[rng.gen_range(0..live.len())];
                    let v = self.value(&mut rng);
                    out.push(MicroOp::Update(k, v));
                }
            }
        }
        out
    }

    /// Apply one op to a VeriDB table.
    pub fn apply_table(table: &Arc<Table>, op: &MicroOp) -> Result<()> {
        match op {
            MicroOp::Get(k) => {
                let row = table.get_by_pk(&Value::Int(*k))?;
                debug_assert!(row.is_some(), "micro workload Gets hit live keys");
                Ok(())
            }
            MicroOp::Insert(k, v) => table
                .insert(Row::new(vec![Value::Int(*k), Value::Str(v.clone())]))
                .map(|_| ()),
            MicroOp::Delete(k) => table.delete(&Value::Int(*k)).map(|_| ()),
            MicroOp::Update(k, v) => table.update(
                &Value::Int(*k),
                Row::new(vec![Value::Int(*k), Value::Str(v.clone())]),
            ),
        }
    }

    /// Apply one op to the MB-Tree baseline (clients verify the VO against
    /// the tracked root hash, as the MHT protocol requires).
    pub fn apply_mbtree(tree: &MbTree, op: &MicroOp) -> Result<()> {
        match op {
            MicroOp::Get(k) => {
                let root = tree.root_hash();
                let (_, vo) = tree.get(&Value::Int(*k));
                veridb_mbtree::verify_point(&vo, &root, &Value::Int(*k))?;
                Ok(())
            }
            MicroOp::Insert(k, v) => {
                tree.insert(Value::Int(*k), v.clone().into_bytes());
                Ok(())
            }
            MicroOp::Delete(k) => {
                tree.delete(&Value::Int(*k));
                Ok(())
            }
            MicroOp::Update(k, v) => {
                tree.update(&Value::Int(*k), v.clone().into_bytes());
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::VeriDbConfig;
    use veridb_enclave::Enclave;
    use veridb_wrcm::VerifiedMemory;

    fn small() -> MicroWorkload {
        MicroWorkload {
            initial_pairs: 50,
            operations: 200,
            value_len: 32,
            seed: 7,
        }
    }

    #[test]
    fn op_stream_is_deterministic_and_balanced() {
        let w = small();
        let a = w.ops();
        let b = w.ops();
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 200);
        let gets = a.iter().filter(|o| matches!(o, MicroOp::Get(_))).count();
        let inserts = a
            .iter()
            .filter(|o| matches!(o, MicroOp::Insert(..)))
            .count();
        let deletes = a.iter().filter(|o| matches!(o, MicroOp::Delete(_))).count();
        let updates = a
            .iter()
            .filter(|o| matches!(o, MicroOp::Update(..)))
            .count();
        for n in [gets, inserts, deletes, updates] {
            assert!(n > 200 / 8, "mix should be roughly even, got {n}");
        }
    }

    #[test]
    fn stream_replays_cleanly_on_table_and_mbtree() {
        let w = small();
        let enclave = Enclave::create("micro-test", 1 << 22, [11u8; 32]);
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        let mem = VerifiedMemory::new(enclave, &cfg);
        let table = Table::create(Arc::clone(&mem), "kv", MicroWorkload::schema()).unwrap();
        w.load_table(&table).unwrap();
        assert_eq!(table.row_count(), 50);

        let tree = MbTree::new();
        w.load_mbtree(&tree);
        assert_eq!(tree.len(), 50);

        for op in w.ops() {
            MicroWorkload::apply_table(&table, &op).unwrap();
            MicroWorkload::apply_mbtree(&tree, &op).unwrap();
        }
        // Both sides agree on the surviving key set.
        assert_eq!(table.row_count() as usize, tree.len());
        mem.verify_now().unwrap();
    }

    #[test]
    fn values_have_requested_length() {
        let w = small();
        for op in w.ops() {
            if let MicroOp::Insert(_, v) | MicroOp::Update(_, v) = op {
                assert_eq!(v.len(), 32);
            }
        }
    }
}
