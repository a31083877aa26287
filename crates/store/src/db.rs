//! The database: a named collection of tables with whole-file persistence
//! and coarse-grained thread safety (an `mh_par::sync::RwLock` wrapper).

use crate::codec::{self, Reader, MAGIC};
use crate::table::{Schema, Table};
use crate::StoreError;
use mh_par::sync::RwLock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An in-memory database of named tables.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), StoreError> {
        if self.tables.contains_key(name) {
            return Err(StoreError::TableExists(name.to_string()));
        }
        self.tables.insert(name.to_string(), Table::new(schema));
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> bool {
        self.tables.remove(name).is_some()
    }

    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Serialize the whole database.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        codec::write_u32(&mut out, 1); // format version
        codec::write_u32(&mut out, self.tables.len() as u32);
        for (name, table) in &self.tables {
            codec::write_str(&mut out, name);
            codec::write_bytes(&mut out, &table.to_bytes());
        }
        out
    }

    pub fn from_bytes(data: &[u8]) -> Result<Self, StoreError> {
        if data.get(..4) != Some(MAGIC.as_slice()) {
            return Err(StoreError::Corrupt("not a catalog file"));
        }
        let mut r = Reader::new(data.get(4..).unwrap_or_default());
        let version = r.read_u32()?;
        if version != 1 {
            return Err(StoreError::Corrupt("unsupported catalog version"));
        }
        let ntables = r.read_u32()? as usize;
        let mut tables = BTreeMap::new();
        for _ in 0..ntables {
            let name = r.read_str()?;
            let body = r.read_bytes()?;
            let mut tr = Reader::new(&body);
            tables.insert(name, Table::from_reader(&mut tr)?);
        }
        Ok(Self { tables })
    }

    /// Write atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes()).map_err(StoreError::Io)?;
        std::fs::rename(&tmp, path).map_err(StoreError::Io)?;
        Ok(())
    }

    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let data = std::fs::read(path).map_err(StoreError::Io)?;
        Self::from_bytes(&data)
    }
}

/// A database bound to a file, safe to share across threads.
#[derive(Debug, Clone)]
pub struct Catalog {
    inner: Arc<RwLock<Database>>,
    path: PathBuf,
}

impl Catalog {
    /// Open (or create) a catalog at `path`.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let db = if path.exists() {
            Database::load(path)?
        } else {
            Database::new()
        };
        Ok(Self {
            inner: Arc::new(RwLock::new(db)),
            path: path.to_path_buf(),
        })
    }

    /// Run a read-only closure against the database.
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.read())
    }

    /// Run a mutating closure, then persist to disk.
    pub fn write<R>(
        &self,
        f: impl FnOnce(&mut Database) -> Result<R, StoreError>,
    ) -> Result<R, StoreError> {
        let mut guard = self.inner.write();
        let out = f(&mut guard)?;
        // mh-audit: allow(R004, the write guard intentionally spans the persist so on-disk state can never interleave across concurrent writers)
        guard.save(&self.path)?;
        Ok(out)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::value::{ColumnType, Predicate, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("k", ColumnType::Text),
            Column::new("v", ColumnType::Int),
        ])
    }

    #[test]
    fn create_and_query() {
        let mut db = Database::new();
        db.create_table("kv", schema()).unwrap();
        assert!(db.create_table("kv", schema()).is_err());
        db.table_mut("kv")
            .unwrap()
            .insert(vec!["a".into(), 1i64.into()])
            .unwrap();
        assert_eq!(db.table("kv").unwrap().len(), 1);
        assert!(db.table("nope").is_err());
        assert!(db.drop_table("kv"));
        assert!(!db.drop_table("kv"));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut db = Database::new();
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        db.table_mut("a")
            .unwrap()
            .insert(vec!["x".into(), 10i64.into()])
            .unwrap();
        db.table_mut("b").unwrap().create_index("k").unwrap();
        db.table_mut("b")
            .unwrap()
            .insert(vec!["y".into(), Value::Null])
            .unwrap();
        let back = Database::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back.table_names(), vec!["a", "b"]);
        assert_eq!(back.table("a").unwrap().len(), 1);
        assert_eq!(
            back.table("b")
                .unwrap()
                .select(&Predicate::Eq("k".into(), "y".into()))
                .len(),
            1
        );
    }

    #[test]
    fn corrupt_rejected() {
        assert!(Database::from_bytes(b"garbage").is_err());
        let mut db = Database::new();
        db.create_table("a", schema()).unwrap();
        let mut bytes = db.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Database::from_bytes(&bytes).is_err());
    }

    #[test]
    fn catalog_persistence() {
        let dir = std::env::temp_dir().join(format!("mh-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.mhs");
        {
            let cat = Catalog::open(&path).unwrap();
            cat.write(|db| {
                db.create_table("t", schema())?;
                db.table_mut("t")?
                    .insert(vec!["persisted".into(), 5i64.into()])?;
                Ok(())
            })
            .unwrap();
        }
        {
            let cat = Catalog::open(&path).unwrap();
            let n = cat.read(|db| db.table("t").unwrap().len());
            assert_eq!(n, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
