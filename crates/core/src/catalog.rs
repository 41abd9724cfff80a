//! Schema catalog: tables, columns, and indexes.
//!
//! Every table is a clustered B+Tree on its primary key living in its own
//! tablespace; each secondary index is another B+Tree (key → primary key)
//! in its own space. Space 0 is reserved for the engine's meta page.

use std::sync::Arc;

use vedb_sim::FxHashMap;

use crate::{EngineError, Result};

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// Double-precision float.
    Double,
    /// UTF-8 string.
    Str,
}

/// A column definition.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// A secondary index definition. Secondary indexes are non-unique: the
/// stored key is the key columns with the PK appended to disambiguate.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Index id == its tablespace number.
    pub space_no: u32,
    /// Index name.
    pub name: String,
    /// Key column positions (into the table's column list).
    pub key_cols: Vec<usize>,
}

/// A table definition.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table id == its clustered tablespace number.
    pub space_no: u32,
    /// Table name.
    pub name: String,
    /// Columns in schema order.
    pub columns: Vec<ColumnDef>,
    /// Primary-key column positions.
    pub pk_cols: Vec<usize>,
    /// Secondary indexes.
    pub secondary: Vec<IndexDef>,
}

impl TableDef {
    /// Position of a column by name.
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("no column {name} in table {}", self.name))
    }
}

/// The schema catalog. Workloads register their schema at bootstrap (and
/// again after a crash — schema is code, not data, in this reproduction;
/// the *roots and allocation state* of the trees are what recovery
/// restores, via the persistent meta page).
///
/// Definitions are immutable once registered and handed out as `Arc`s, so a
/// statement takes a pointer, not a copy of every column and index name.
#[derive(Default)]
pub struct Catalog {
    tables: Vec<Arc<TableDef>>,
    by_name: FxHashMap<String, usize>,
    next_space: u32,
}

impl Catalog {
    /// An empty catalog; spaces start at 1 (0 is the meta space).
    pub fn new() -> Catalog {
        Catalog {
            tables: Vec::new(),
            by_name: FxHashMap::default(),
            next_space: 1,
        }
    }

    /// Start defining a table.
    pub fn define(&mut self, name: &str) -> TableBuilder<'_> {
        TableBuilder {
            catalog: self,
            name: name.to_string(),
            columns: Vec::new(),
            pk: Vec::new(),
            secondary: Vec::new(),
        }
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&Arc<TableDef>> {
        self.by_name
            .get(name)
            .map(|i| &self.tables[*i])
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// All tables.
    pub fn tables(&self) -> &[Arc<TableDef>] {
        &self.tables
    }
}

/// Fluent table definition builder.
pub struct TableBuilder<'a> {
    catalog: &'a mut Catalog,
    name: String,
    columns: Vec<ColumnDef>,
    pk: Vec<String>,
    secondary: Vec<(String, Vec<String>)>,
}

impl TableBuilder<'_> {
    /// Add a column.
    pub fn col(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef {
            name: name.to_string(),
            ty,
        });
        self
    }

    /// Set the primary key columns.
    pub fn pk(mut self, cols: &[&str]) -> Self {
        self.pk = cols.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Add a (non-unique) secondary index.
    pub fn index(mut self, name: &str, cols: &[&str]) -> Self {
        self.secondary.push((
            name.to_string(),
            cols.iter().map(|c| c.to_string()).collect(),
        ));
        self
    }

    /// Register the table; returns its space number.
    ///
    /// # Panics
    /// Panics on empty/unknown PK columns or duplicate table names.
    pub fn build(self) -> u32 {
        assert!(
            !self.pk.is_empty(),
            "table {} needs a primary key",
            self.name
        );
        assert!(
            !self.catalog.by_name.contains_key(&self.name),
            "duplicate table {}",
            self.name
        );
        let col_pos = |n: &str| {
            self.columns
                .iter()
                .position(|c| c.name == n)
                .unwrap_or_else(|| panic!("unknown column {n} in table {}", self.name))
        };
        let pk_cols: Vec<usize> = self.pk.iter().map(|c| col_pos(c)).collect();
        let space_no = self.catalog.next_space;
        self.catalog.next_space += 1;
        let mut secondary = Vec::new();
        for (name, cols) in &self.secondary {
            let key_cols: Vec<usize> = cols.iter().map(|c| col_pos(c)).collect();
            let ix_space = self.catalog.next_space;
            self.catalog.next_space += 1;
            secondary.push(IndexDef {
                space_no: ix_space,
                name: name.clone(),
                key_cols,
            });
        }
        let def = TableDef {
            space_no,
            name: self.name.clone(),
            columns: self.columns,
            pk_cols,
            secondary,
        };
        self.catalog
            .by_name
            .insert(self.name, self.catalog.tables.len());
        self.catalog.tables.push(Arc::new(def));
        space_no
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_lookup() {
        let mut cat = Catalog::new();
        let space = cat
            .define("orders")
            .col("o_id", ColumnType::Int)
            .col("o_cust", ColumnType::Int)
            .col("o_info", ColumnType::Str)
            .pk(&["o_id"])
            .index("idx_cust", &["o_cust"])
            .build();
        assert_eq!(space, 1);
        let t = cat.table("orders").unwrap();
        assert_eq!(t.col("o_cust"), 1);
        assert_eq!(t.pk_cols, vec![0]);
        assert_eq!(t.secondary.len(), 1);
        assert_eq!(t.secondary[0].space_no, 2);
        assert!(cat.table("nope").is_err());
    }

    #[test]
    fn spaces_are_unique_across_tables() {
        let mut cat = Catalog::new();
        let a = cat.define("a").col("x", ColumnType::Int).pk(&["x"]).build();
        let b = cat
            .define("b")
            .col("y", ColumnType::Int)
            .pk(&["y"])
            .index("i1", &["y"])
            .build();
        let c = cat.define("c").col("z", ColumnType::Int).pk(&["z"]).build();
        assert_eq!((a, b, c), (1, 2, 4));
    }

    #[test]
    #[should_panic(expected = "needs a primary key")]
    fn missing_pk_panics() {
        let mut cat = Catalog::new();
        cat.define("bad").col("x", ColumnType::Int).build();
    }
}
