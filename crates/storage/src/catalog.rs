//! The table catalog.
//!
//! Maps table names to [`Table`]s. The catalog itself is enclave-resident
//! state (schemas are part of what the query compiler must trust, §3.3),
//! so it lives behind the verified memory's enclave and is only mutated
//! through the protected DDL path.

use crate::index::IndexOracle;
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;
use veridb_common::sync::RwLock;
use veridb_common::{Error, Result, Schema};
use veridb_wrcm::VerifiedMemory;

/// A name → table registry bound to one verified memory.
pub struct Catalog {
    mem: Arc<VerifiedMemory>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Catalog {
    /// Empty catalog over `mem`.
    pub fn new(mem: Arc<VerifiedMemory>) -> Self {
        Catalog {
            mem,
            tables: RwLock::new(HashMap::new()),
        }
    }

    /// The verified memory backing this catalog's tables.
    pub fn memory(&self) -> &Arc<VerifiedMemory> {
        &self.mem
    }

    /// Create a table. Fails if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let lname = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&lname) {
            return Err(Error::TableExists(name.to_owned()));
        }
        let table = Table::create(Arc::clone(&self.mem), &lname, schema)?;
        tables.insert(lname, Arc::clone(&table));
        Ok(table)
    }

    /// Create a table with caller-provided (possibly malicious, for attack
    /// tests) index oracles.
    pub fn create_table_with_indexes(
        &self,
        name: &str,
        schema: Schema,
        indexes: Vec<Box<dyn IndexOracle>>,
    ) -> Result<Arc<Table>> {
        let lname = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&lname) {
            return Err(Error::TableExists(name.to_owned()));
        }
        let table = Table::create_with_indexes(Arc::clone(&self.mem), &lname, schema, indexes)?;
        tables.insert(lname, Arc::clone(&table));
        Ok(table)
    }

    /// Look up a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Drop a table. Its rows and then its chain sentinels are deleted
    /// through the verified path, so RS/WS stay balanced and no live cell
    /// of the table outlives it: a later seal's state fingerprint covers
    /// exactly the tables a snapshot carries. The emptied pages go back to
    /// the memory's free list, so CREATE/DROP cycles do not grow it.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let lname = name.to_ascii_lowercase();
        let table = self
            .tables
            .write()
            .remove(&lname)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))?;
        table.delete_all()
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.table_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::{ColumnDef, ColumnType, Row, Value, VeriDbConfig};
    use veridb_enclave::Enclave;

    fn catalog() -> Catalog {
        let enclave = Enclave::create("catalog-test", 1 << 22, [5u8; 32]);
        let mem = VerifiedMemory::new(enclave, &VeriDbConfig::default());
        Catalog::new(mem)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("name", ColumnType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn create_lookup_and_duplicate() {
        let c = catalog();
        c.create_table("users", schema()).unwrap();
        assert!(c.table("users").is_ok());
        assert!(c.table("USERS").is_ok(), "names are case-insensitive");
        assert!(matches!(
            c.create_table("Users", schema()),
            Err(Error::TableExists(_))
        ));
        assert!(matches!(c.table("ghost"), Err(Error::TableNotFound(_))));
        assert_eq!(c.table_names(), vec!["users".to_string()]);
    }

    #[test]
    fn drop_table_deletes_rows_and_verifies() {
        let c = catalog();
        let t = c.create_table("t", schema()).unwrap();
        for i in 0..10 {
            t.insert(Row::new(vec![Value::Int(i), Value::Str(format!("u{i}"))]))
                .unwrap();
        }
        c.drop_table("t").unwrap();
        assert!(c.table("t").is_err());
        c.memory().verify_now().unwrap();
    }
}
