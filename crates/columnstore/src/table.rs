//! A minimal multi-column table: enough relational surface to write
//! realistic examples (append rows, run IN-predicate selections, merge
//! deltas) without pretending to be a full SQL engine.

use isi_search::key::SearchKey;

use crate::column::Column;
use crate::query::{execute_in, InQueryStats};
use isi_core::policy::Interleave;

/// A table of identically-typed columns (INTEGER columns in the paper's
/// experiments; the type is generic).
#[derive(Debug, Clone)]
pub struct Table<K> {
    names: Vec<String>,
    columns: Vec<Column<K>>,
    rows: usize,
}

impl<K: SearchKey + Default> Table<K> {
    /// Create a table with the given column names.
    ///
    /// # Panics
    /// Panics if `names` is empty or contains duplicates.
    pub fn new(names: &[&str]) -> Self {
        assert!(!names.is_empty(), "a table needs at least one column");
        let set: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate column names");
        Self {
            names: names.iter().map(|s| s.to_string()).collect(),
            columns: names.iter().map(|_| Column::new()).collect(),
            rows: 0,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column index by name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Borrow a column by name.
    ///
    /// # Panics
    /// Panics on unknown names.
    pub fn column(&self, name: &str) -> &Column<K> {
        let idx = self
            .column_index(name)
            .unwrap_or_else(|| panic!("unknown column {name:?}"));
        &self.columns[idx]
    }

    /// Append one row (one value per column, in declaration order).
    ///
    /// # Panics
    /// Panics if the value count does not match the column count.
    pub fn insert(&mut self, row: &[K]) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.append(*v);
        }
        self.rows += 1;
    }

    /// Read back a full row.
    #[cfg(test)]
    fn row(&self, idx: usize) -> Vec<K> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// `SELECT row_ids WHERE name IN (values)`.
    pub fn select_in(
        &self,
        name: &str,
        values: &[K],
        mode: Interleave,
    ) -> (Vec<u64>, InQueryStats) {
        execute_in(self.column(name), values, mode)
    }

    /// Merge every column's delta into its main part.
    pub fn merge_all_deltas(&mut self) {
        for c in &mut self.columns {
            c.merge_delta();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_select_roundtrip() {
        let mut t = Table::new(&["zip", "qty"]);
        for i in 0..100u32 {
            t.insert(&[10_000 + (i % 10), i]);
        }
        assert_eq!(t.rows(), 100);
        assert_eq!(t.width(), 2);
        assert_eq!(t.row(3), vec![10_003, 3]);

        let (rows, stats) = t.select_in("zip", &[10_003, 10_007], Interleave::Interleaved(6));
        assert_eq!(rows.len(), 20);
        assert_eq!(stats.rows, 20);
        for r in rows {
            let v = t.row(r as usize)[0];
            assert!(v == 10_003 || v == 10_007);
        }
    }

    #[test]
    fn select_after_merge_is_identical() {
        let mut t = Table::new(&["a"]);
        for i in 0..500u32 {
            t.insert(&[i % 37]);
        }
        let before = t.select_in("a", &[5, 11, 36], Interleave::Sequential).0;
        t.merge_all_deltas();
        let after = t.select_in("a", &[5, 11, 36], Interleave::Sequential).0;
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_column_panics() {
        let t = Table::<u32>::new(&["a"]);
        t.column("b");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut t = Table::<u32>::new(&["a", "b"]);
        t.insert(&[1]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        Table::<u32>::new(&["a", "a"]);
    }
}
