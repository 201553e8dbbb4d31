//! Secondary B-tree indexes over a single column.
//!
//! `Value` has a total order (see `bigdawg-common`), so a `BTreeMap<Value,
//! Vec<RowId>>` gives us equality and range probes. The planner selects an
//! index when a sargable conjunct (`col = lit`, `col < lit`, `col BETWEEN`)
//! references an indexed column.

use crate::table::RowId;
use bigdawg_common::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A single-column secondary index.
#[derive(Debug, Clone, Default)]
pub struct Index {
    name: String,
    column: String,
    entries: BTreeMap<Value, Vec<RowId>>,
    len: usize,
}

impl Index {
    pub fn new(name: impl Into<String>, column: impl Into<String>) -> Self {
        Index {
            name: name.into(),
            column: column.into(),
            entries: BTreeMap::new(),
            len: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The indexed column name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of indexed (value, row) pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index a row's key. NULL keys are not indexed (SQL convention: index
    /// scans never produce NULL matches).
    pub fn insert(&mut self, key: Value, id: RowId) {
        if key.is_null() {
            return;
        }
        self.entries.entry(key).or_default().push(id);
        self.len += 1;
    }

    /// Remove one (key, id) pairing, e.g. on row delete/update.
    pub fn remove(&mut self, key: &Value, id: RowId) {
        if key.is_null() {
            return;
        }
        if let Some(ids) = self.entries.get_mut(key) {
            if let Some(pos) = ids.iter().position(|&x| x == id) {
                ids.swap_remove(pos);
                self.len -= 1;
            }
            if ids.is_empty() {
                self.entries.remove(key);
            }
        }
    }

    /// Row ids with exactly this key.
    pub fn get(&self, key: &Value) -> Vec<RowId> {
        self.entries.get(key).cloned().unwrap_or_default()
    }

    /// Row ids with key in the given bounds.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        // BTreeMap panics on inverted ranges, and on an empty one excluded
        // at both ends; produce an empty result instead.
        if let (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) =
            (low, high)
        {
            let open = matches!((low, high), (Bound::Excluded(_), Bound::Excluded(_)));
            if l > h || (l == h && open) {
                return Vec::new();
            }
        }
        self.entries
            .range::<Value, _>((low, high))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Distinct keys in order — used by the planner for selectivity guesses
    /// and by SeeDB's shared-scan optimizer.
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.entries.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> Index {
        let mut ix = Index::new("ix_age", "age");
        ix.insert(Value::Int(70), 0);
        ix.insert(Value::Int(54), 1);
        ix.insert(Value::Int(70), 2);
        ix.insert(Value::Int(91), 3);
        ix
    }

    #[test]
    fn equality_probe() {
        let ix = index();
        let mut ids = ix.get(&Value::Int(70));
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2]);
        assert!(ix.get(&Value::Int(1)).is_empty());
    }

    #[test]
    fn range_probe() {
        let ix = index();
        let mut ids = ix.range(
            Bound::Included(&Value::Int(54)),
            Bound::Excluded(&Value::Int(91)),
        );
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let ix = index();
        let ids = ix.range(
            Bound::Included(&Value::Int(91)),
            Bound::Included(&Value::Int(54)),
        );
        assert!(ids.is_empty());
        let at = Value::Int(54);
        let ids = ix.range(Bound::Excluded(&at), Bound::Excluded(&at));
        assert!(ids.is_empty(), "so is (54, 54)");
    }

    #[test]
    fn unbounded_range_scans_all() {
        let ix = index();
        assert_eq!(ix.range(Bound::Unbounded, Bound::Unbounded).len(), 4);
    }

    #[test]
    fn null_keys_ignored() {
        let mut ix = Index::new("ix", "c");
        ix.insert(Value::Null, 7);
        assert_eq!(ix.len(), 0);
        ix.remove(&Value::Null, 7);
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn remove_specific_pairing() {
        let mut ix = index();
        ix.remove(&Value::Int(70), 0);
        assert_eq!(ix.get(&Value::Int(70)), vec![2]);
        assert_eq!(ix.len(), 3);
        // removing a non-existent pairing is a no-op
        ix.remove(&Value::Int(70), 99);
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn keys_sorted() {
        let ix = index();
        let keys: Vec<_> = ix.keys().cloned().collect();
        assert_eq!(keys, vec![Value::Int(54), Value::Int(70), Value::Int(91)]);
    }
}
