//! The embedded database: catalog, DML with index maintenance, and the
//! `execute` entry point that ties lexer → parser → planner → executor
//! together.

use crate::exec::execute;
use crate::expr::Expr;
use crate::index::Index;
use crate::plan::Plan;
use crate::planner::{plan_select, resolve_expr};
use crate::sql::ast::{ColumnDef, Statement};
use crate::sql::parse;
use crate::table::{RowId, Table};
use bigdawg_common::{Batch, BigDawgError, Field, Result, Row, Schema, Value};
use std::collections::BTreeMap;

/// Summary of a DML statement's effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affected {
    pub rows: usize,
}

/// Result of [`Database::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Rows from a SELECT.
    Rows(Batch),
    /// Row count from DML/DDL.
    Affected(Affected),
}

impl QueryResult {
    /// Unwrap a row result; errors on DML results.
    pub fn into_batch(self) -> Result<Batch> {
        match self {
            QueryResult::Rows(b) => Ok(b),
            QueryResult::Affected(a) => Err(BigDawgError::Execution(format!(
                "statement affected {} rows but produced no result set",
                a.rows
            ))),
        }
    }
}

/// An embedded relational database (PostgreSQL stand-in).
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    indexes: BTreeMap<String, Index>,
    /// table name → names of its indexes
    table_indexes: BTreeMap<String, Vec<String>>,
    /// Cumulative statement counter (the polystore monitor reads this).
    statements_executed: u64,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    // ---- catalog ---------------------------------------------------------

    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(BigDawgError::Execution(format!(
                "table `{name}` already exists"
            )));
        }
        self.tables
            .insert(name.to_string(), Table::new(name, schema));
        self.table_indexes.entry(name.to_string()).or_default();
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| BigDawgError::NotFound(format!("table `{name}`")))?;
        if let Some(ix_names) = self.table_indexes.remove(name) {
            for ix in ix_names {
                self.indexes.remove(&ix);
            }
        }
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| BigDawgError::NotFound(format!("table `{name}`")))
    }

    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn index(&self, name: &str) -> Result<&Index> {
        self.indexes
            .get(name)
            .ok_or_else(|| BigDawgError::NotFound(format!("index `{name}`")))
    }

    /// Name of an index on `table.column`, if one exists.
    pub fn index_on(&self, table: &str, column: &str) -> Option<&str> {
        self.table_indexes.get(table)?.iter().find_map(|ix_name| {
            let ix = self.indexes.get(ix_name)?;
            (ix.column() == column).then_some(ix_name.as_str())
        })
    }

    pub fn create_index(&mut self, name: &str, table: &str, column: &str) -> Result<()> {
        if self.indexes.contains_key(name) {
            return Err(BigDawgError::Execution(format!(
                "index `{name}` already exists"
            )));
        }
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| BigDawgError::NotFound(format!("table `{table}`")))?;
        let col_idx = t.schema().index_of(column)?;
        let mut ix = Index::new(name, column);
        for (id, row) in t.iter() {
            ix.insert(row[col_idx].clone(), id);
        }
        self.indexes.insert(name.to_string(), ix);
        self.table_indexes
            .entry(table.to_string())
            .or_default()
            .push(name.to_string());
        Ok(())
    }

    /// Number of statements executed so far (monitor instrumentation).
    pub fn statements_executed(&self) -> u64 {
        self.statements_executed
    }

    // ---- DML with index maintenance ---------------------------------------

    /// `table` and its indexes, each with the position of the column it
    /// keys on — resolved once per statement, not once per row.
    fn writer(&mut self, table: &str) -> Result<(&mut Table, Vec<(usize, &mut Index)>)> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| BigDawgError::NotFound(format!("table `{table}`")))?;
        let names = self.table_indexes.get(table).map_or(&[][..], Vec::as_slice);
        let mut indexes = Vec::with_capacity(names.len());
        for (name, ix) in self.indexes.iter_mut() {
            if names.contains(name) {
                indexes.push((t.schema().index_of(ix.column())?, ix));
            }
        }
        Ok((t, indexes))
    }

    /// Insert a row directly (bypassing SQL), maintaining indexes.
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<RowId> {
        let (t, mut indexes) = self.writer(table)?;
        insert_indexed(t, &mut indexes, row)
    }

    /// Bulk insert: the table and its indexes are resolved once.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let (t, mut indexes) = self.writer(table)?;
        let n = rows.len();
        for row in rows {
            insert_indexed(t, &mut indexes, row)?;
        }
        Ok(n)
    }

    /// Load a batch as table `name`, created with the batch's schema when
    /// absent — set-up loads and CAST landings. A batch whose columns an
    /// empty, un-indexed table can keep as they are becomes the table's
    /// columnar image (`Table::adopt`); any other goes through the
    /// checked row-by-row insert. A failed load leaves no table behind
    /// that it created itself.
    pub fn load_table(&mut self, name: &str, batch: Batch) -> Result<()> {
        let created = !self.tables.contains_key(name);
        if created {
            self.create_table(name, batch.schema().clone())?;
        }
        let indexed = self
            .table_indexes
            .get(name)
            .is_some_and(|ix| !ix.is_empty());
        let table = self.tables.get_mut(name).expect("present or just created");
        let batch = if indexed {
            batch
        } else {
            match table.adopt(batch) {
                Ok(()) => return Ok(()),
                Err(unfit) => unfit,
            }
        };
        let rows = batch.into_rows(); // row-view-ok: row-path landing
        let loaded = self.insert_rows(name, rows);
        if created && loaded.is_err() {
            // created above, so the drop finds it; the load's error is
            // the one to report
            let _ = self.drop_table(name);
        }
        loaded.map(drop)
    }

    fn delete_where(&mut self, table: &str, predicate: Option<&Expr>) -> Result<usize> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| BigDawgError::NotFound(format!("table `{table}`")))?;
        let schema = t.schema().clone();
        let predicate = predicate
            .map(|p| resolve_expr(p.clone(), &schema))
            .transpose()?;
        let victims: Vec<RowId> = t
            .iter()
            .filter_map(|(id, row)| match &predicate {
                None => Some(Ok(id)),
                Some(p) => match p.matches(&schema, row) {
                    Ok(true) => Some(Ok(id)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                },
            })
            .collect::<Result<_>>()?;
        let ix_names = self.table_indexes.get(table).cloned().unwrap_or_default();
        let t = self.tables.get_mut(table).expect("checked above");
        let mut removed_rows = Vec::new();
        for id in &victims {
            if let Some(row) = t.delete(*id) {
                removed_rows.push((*id, row));
            }
        }
        for ix_name in ix_names {
            if let Some(ix) = self.indexes.get_mut(&ix_name) {
                let col = schema.index_of(ix.column())?;
                for (id, row) in &removed_rows {
                    ix.remove(&row[col], *id);
                }
            }
        }
        self.statements_executed += 1;
        Ok(removed_rows.len())
    }

    fn update_where(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<usize> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| BigDawgError::NotFound(format!("table `{table}`")))?;
        let schema = t.schema().clone();
        let predicate = predicate
            .map(|p| resolve_expr(p.clone(), &schema))
            .transpose()?;
        let assignments: Vec<(usize, Expr)> = assignments
            .iter()
            .map(|(col, e)| Ok((schema.index_of(col)?, resolve_expr(e.clone(), &schema)?)))
            .collect::<Result<_>>()?;

        // Compute new rows first (immutable pass), then apply.
        let mut changes: Vec<(RowId, Row, Row)> = Vec::new();
        for (id, row) in t.iter() {
            let hit = match &predicate {
                None => true,
                Some(p) => p.matches(&schema, row)?,
            };
            if !hit {
                continue;
            }
            let mut new_row = row.clone();
            for (col, e) in &assignments {
                new_row[*col] = e.eval(&schema, row)?;
            }
            changes.push((id, row.clone(), new_row));
        }

        let ix_names = self.table_indexes.get(table).cloned().unwrap_or_default();
        let n = changes.len();
        {
            let t = self.tables.get_mut(table).expect("checked above");
            for (id, _, new_row) in &changes {
                t.update(*id, new_row.clone())?;
            }
        }
        for ix_name in ix_names {
            if let Some(ix) = self.indexes.get_mut(&ix_name) {
                let col = schema.index_of(ix.column())?;
                for (id, old_row, _) in &changes {
                    ix.remove(&old_row[col], *id);
                }
                // Re-read updated values (coercion may have changed them).
                let t = self.tables.get(table).expect("checked above");
                for (id, _, _) in &changes {
                    if let Some(v) = t.value_at(*id, col) {
                        ix.insert(v.clone(), *id);
                    }
                }
            }
        }
        self.statements_executed += 1;
        Ok(n)
    }

    // ---- the SQL entry points ---------------------------------------------

    /// Execute any SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        self.execute_statement(stmt)
    }

    /// Execute a SELECT and return its rows (errors on non-SELECT).
    pub fn query(&mut self, sql: &str) -> Result<Batch> {
        self.execute(sql)?.into_batch()
    }

    /// Plan a SELECT without running it (EXPLAIN support; also used by the
    /// polystore monitor to inspect access paths).
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse(sql)? {
            Statement::Select(sel) => Ok(plan_select(self, &sel)?.explain()),
            _ => Err(BigDawgError::Unsupported(
                "EXPLAIN supports only SELECT".into(),
            )),
        }
    }

    /// Execute an already-parsed statement (islands rewrite ASTs before
    /// execution, so they need this entry point).
    pub fn execute_statement(&mut self, stmt: Statement) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                if if_not_exists && self.tables.contains_key(&name) {
                    return Ok(QueryResult::Affected(Affected { rows: 0 }));
                }
                let schema = schema_from_defs(&columns);
                self.create_table(&name, schema)?;
                self.statements_executed += 1;
                Ok(QueryResult::Affected(Affected { rows: 0 }))
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                self.create_index(&name, &table, &column)?;
                self.statements_executed += 1;
                Ok(QueryResult::Affected(Affected { rows: 0 }))
            }
            Statement::DropTable { name, if_exists } => {
                match self.drop_table(&name) {
                    Ok(()) => {}
                    Err(BigDawgError::NotFound(_)) if if_exists => {}
                    Err(e) => return Err(e),
                }
                self.statements_executed += 1;
                Ok(QueryResult::Affected(Affected { rows: 0 }))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let schema = self.table(&table)?.schema().clone();
                let empty_schema = Schema::default();
                let empty_row: Row = Vec::new();
                let mut to_insert = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let values: Vec<Value> = exprs
                        .iter()
                        .map(|e| e.eval(&empty_schema, &empty_row))
                        .collect::<Result<_>>()?;
                    let row = match &columns {
                        None => values,
                        Some(cols) => {
                            if cols.len() != values.len() {
                                return Err(BigDawgError::SchemaMismatch(format!(
                                    "INSERT lists {} columns but {} values",
                                    cols.len(),
                                    values.len()
                                )));
                            }
                            let mut row = vec![Value::Null; schema.len()];
                            for (col, v) in cols.iter().zip(values) {
                                row[schema.index_of(col)?] = v;
                            }
                            row
                        }
                    };
                    to_insert.push(row);
                }
                let n = self.insert_rows(&table, to_insert)?;
                self.statements_executed += 1;
                Ok(QueryResult::Affected(Affected { rows: n }))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let n = self.update_where(&table, &assignments, predicate.as_ref())?;
                Ok(QueryResult::Affected(Affected { rows: n }))
            }
            Statement::Delete { table, predicate } => {
                let n = self.delete_where(&table, predicate.as_ref())?;
                Ok(QueryResult::Affected(Affected { rows: n }))
            }
            Statement::Select(sel) => {
                let plan = plan_select(self, &sel)?;
                let batch = execute(self, &plan)?;
                self.statements_executed += 1;
                Ok(QueryResult::Rows(batch))
            }
        }
    }

    /// Execute a pre-built plan (used by the Myria island, which plans its
    /// own relational algebra and shares this executor).
    pub fn run_plan(&self, plan: &Plan) -> Result<Batch> {
        execute(self, plan)
    }
}

/// Insert `row` into `t` and key it into each of `indexes` — only the
/// indexed cells are cloned, as stored (coercion may have changed them).
fn insert_indexed(t: &mut Table, indexes: &mut [(usize, &mut Index)], row: Row) -> Result<RowId> {
    let id = t.insert(row)?;
    for (col, ix) in indexes {
        let key = t.value_at(id, *col).expect("just inserted");
        ix.insert(key.clone(), id);
    }
    Ok(id)
}

fn schema_from_defs(defs: &[ColumnDef]) -> Schema {
    Schema::new(
        defs.iter()
            .map(|d| {
                if d.nullable {
                    Field::new(&d.name, d.data_type)
                } else {
                    Field::required(&d.name, d.data_type)
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_db() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE patients (id INT NOT NULL, name TEXT, age INT, race TEXT, stay_days FLOAT)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO patients VALUES \
             (1, 'alice', 70, 'white', 5.0), \
             (2, 'bob', 54, 'black', 3.5), \
             (3, 'carol', 81, 'white', 9.0), \
             (4, 'dave', 60, 'asian', 2.0), \
             (5, 'erin', 47, 'black', 7.5), \
             (6, 'frank', 81, 'white', 1.0)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_where_projection() {
        let mut db = seeded_db();
        let b = db
            .query("SELECT name, age FROM patients WHERE age > 60 ORDER BY age DESC")
            .unwrap();
        assert_eq!(b.schema().names(), vec!["name", "age"]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.rows()[0][1], Value::Int(81));
        assert_eq!(b.rows()[2][0], Value::Text("alice".into()));
    }

    #[test]
    fn group_by_having_order() {
        let mut db = seeded_db();
        let b = db
            .query(
                "SELECT race, COUNT(*) AS n, AVG(stay_days) AS avg_stay \
                 FROM patients GROUP BY race HAVING COUNT(*) >= 2 ORDER BY n DESC, race",
            )
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows()[0][0], Value::Text("white".into()));
        assert_eq!(b.rows()[0][1], Value::Int(3));
        assert_eq!(b.rows()[0][2], Value::Float(5.0));
        assert_eq!(b.rows()[1][0], Value::Text("black".into()));
    }

    #[test]
    fn global_aggregate_empty_table() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        let b = db.query("SELECT COUNT(*), SUM(x), AVG(x) FROM t").unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows()[0][0], Value::Int(0));
        assert_eq!(b.rows()[0][1], Value::Null);
        assert_eq!(b.rows()[0][2], Value::Null);
    }

    #[test]
    fn join_with_aliases_and_qualified_columns() {
        let mut db = seeded_db();
        db.execute("CREATE TABLE rx (patient_id INT, drug TEXT)")
            .unwrap();
        db.execute(
            "INSERT INTO rx VALUES (1, 'heparin'), (1, 'aspirin'), (3, 'aspirin'), (9, 'ibuprofen')",
        )
        .unwrap();
        let b = db
            .query(
                "SELECT p.name, r.drug FROM patients p JOIN rx r ON p.id = r.patient_id \
                 WHERE r.drug = 'aspirin' ORDER BY p.name",
            )
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows()[0][0], Value::Text("alice".into()));
        assert_eq!(b.rows()[1][0], Value::Text("carol".into()));
    }

    #[test]
    fn index_used_and_correct() {
        let mut db = seeded_db();
        db.execute("CREATE INDEX ix_age ON patients (age)").unwrap();
        let plan = db
            .explain("SELECT name FROM patients WHERE age = 81")
            .unwrap();
        assert!(plan.contains("index ix_age"), "plan was:\n{plan}");
        let b = db
            .query("SELECT name FROM patients WHERE age = 81 ORDER BY name")
            .unwrap();
        assert_eq!(b.len(), 2);
        // range probe
        let plan = db
            .explain("SELECT name FROM patients WHERE age BETWEEN 50 AND 70")
            .unwrap();
        assert!(plan.contains("index ix_age range"), "plan was:\n{plan}");
        let b = db
            .query("SELECT COUNT(*) FROM patients WHERE age BETWEEN 50 AND 70")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn index_maintained_across_dml() {
        let mut db = seeded_db();
        db.execute("CREATE INDEX ix_age ON patients (age)").unwrap();
        db.execute("DELETE FROM patients WHERE age = 81").unwrap();
        let b = db
            .query("SELECT COUNT(*) FROM patients WHERE age = 81")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(0));
        db.execute("UPDATE patients SET age = 81 WHERE name = 'alice'")
            .unwrap();
        let b = db
            .query("SELECT name FROM patients WHERE age = 81")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Text("alice".into()));
        // the old key must be gone
        let b = db
            .query("SELECT COUNT(*) FROM patients WHERE age = 70")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(0));
    }

    #[test]
    fn update_with_expression() {
        let mut db = seeded_db();
        db.execute("UPDATE patients SET stay_days = stay_days + 1 WHERE race = 'white'")
            .unwrap();
        let b = db
            .query("SELECT SUM(stay_days) FROM patients WHERE race = 'white'")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Float(18.0));
    }

    #[test]
    fn distinct_and_limit() {
        let mut db = seeded_db();
        let b = db
            .query("SELECT DISTINCT race FROM patients ORDER BY race LIMIT 2")
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows()[0][0], Value::Text("asian".into()));
    }

    #[test]
    fn count_distinct() {
        let mut db = seeded_db();
        let b = db
            .query("SELECT COUNT(DISTINCT race) FROM patients")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn select_without_from() {
        let mut db = Database::new();
        let b = db.query("SELECT 1 + 2 AS three, 'x' AS s").unwrap();
        assert_eq!(b.rows()[0], vec![Value::Int(3), Value::Text("x".into())]);
    }

    #[test]
    fn like_text_search() {
        let mut db = Database::new();
        db.execute("CREATE TABLE notes (patient_id INT, body TEXT)")
            .unwrap();
        db.execute(
            "INSERT INTO notes VALUES (1, 'patient very sick today'), (2, 'recovering well')",
        )
        .unwrap();
        let b = db
            .query("SELECT patient_id FROM notes WHERE body LIKE '%very sick%'")
            .unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn ungrouped_column_rejected() {
        let mut db = seeded_db();
        let err = db
            .query("SELECT name, COUNT(*) FROM patients GROUP BY race")
            .unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn drop_table_if_exists() {
        let mut db = Database::new();
        assert!(db.execute("DROP TABLE IF EXISTS ghost").is_ok());
        assert!(db.execute("DROP TABLE ghost").is_err());
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = seeded_db();
        db.execute("INSERT INTO patients (id, name) VALUES (7, 'gus')")
            .unwrap();
        let b = db.query("SELECT age FROM patients WHERE id = 7").unwrap();
        assert_eq!(b.rows()[0][0], Value::Null);
    }

    #[test]
    fn stddev_aggregate() {
        let mut db = Database::new();
        db.execute("CREATE TABLE m (x FLOAT)").unwrap();
        db.execute("INSERT INTO m VALUES (2.0), (4.0), (4.0), (4.0), (5.0), (5.0), (7.0), (9.0)")
            .unwrap();
        let b = db.query("SELECT STDDEV(x) FROM m").unwrap();
        let sd = b.rows()[0][0].as_f64().unwrap();
        assert!((sd - 2.138089935299395).abs() < 1e-9, "got {sd}");
    }

    #[test]
    fn order_by_alias_after_projection() {
        let mut db = seeded_db();
        let b = db
            .query("SELECT race, COUNT(*) AS n FROM patients GROUP BY race ORDER BY n DESC LIMIT 1")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Text("white".into()));
    }
}
