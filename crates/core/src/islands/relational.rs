//! The relational island: SQL over the whole federation.
//!
//! Location transparency (§2.1): tables referenced by the query that do not
//! live on the island's relational engine are CAST there (over the
//! monitor's preferred transport) under temporary names before execution,
//! and cleaned up after. A migrator-placed replica on the island's engine
//! counts as living there — the CAST is skipped and the co-located copy is
//! read directly. When the federation registers several relational
//! engines, the monitor's cost model picks the one with the best measured
//! history for the query's class — e.g. which engine hosts a cross-island
//! join — falling back to the first on cold start.
//!
//! Writes (INSERT/UPDATE/DELETE) are routed to the written table's
//! *primary* engine and followed by replica invalidation
//! ([`BigDawg::note_write`]), so a migrated-then-written object never
//! serves stale replica data.
//!
//! # A write against a read that is on the wire
//!
//! A remote read runs resolve → wire → lock → read: the placement is
//! resolved, the request hop is slept with *no* lock held, and only then
//! is the source engine's mutex taken (`BigDawg::engine_call`). A write
//! can therefore land while a reader is on the wire. The write still
//! invalidates replicas inside its primary's critical section (below),
//! and that keeps every outcome correct:
//!
//! * The reader resolved to the **primary**: the engine's mutex orders
//!   it against the write — it reads the table before the write or after
//!   it, never half of it.
//! * The reader resolved to a **replica**: the write un-catalogs the
//!   replica under the primary's lock and then drops the copy under the
//!   replica engine's own lock. A reader that arrives after the drop gets
//!   `not_found`, which the re-resolve loops (`islands::gather`,
//!   `BigDawg::cast_object`) retry against the new placement — the
//!   primary, which has the write. A reader that arrives before the drop
//!   (or finds a copy whose drop was refused, an orphan) reads pre-write
//!   rows — for a read that began before the write was acknowledged, which
//!   is a legal order; no read that *resolves* after the write can be
//!   routed there, because the catalog stopped referencing the copy
//!   before the primary's lock was released.
//! * A **placement copy** on the wire during the write carries the epoch
//!   it resolved at; the write bumped it, so `place`'s commit-time epoch
//!   check aborts and the copy of (possibly) pre-write rows is discarded.
//! * The **result cache** snapshots epochs at plan time, before any hop:
//!   an answer computed around a write is admitted under the old epoch
//!   and dropped as stale on its next lookup — never served after it.

use crate::monitor::QueryClass;
use crate::polystore::BigDawg;
use crate::shim::EngineKind;
use crate::shims::RelationalShim;
use bigdawg_common::{Batch, BigDawgError, Result};
use bigdawg_relational::db::QueryResult;
use bigdawg_relational::sql::ast::Statement;
use bigdawg_relational::sql::parse;

/// Execute a SQL query on the relational island, under the shared
/// localize → run → cleanup frame (`islands::gather`): remote tables are
/// cast toward the gather engine, a racy `not_found` (a co-located read,
/// a cast of a resolved object, a write to a cataloged table) re-resolves
/// and retries, and a genuinely unknown table fails on the first attempt
/// without shipping anything.
pub fn execute(bd: &BigDawg, sql: &str) -> Result<Batch> {
    let stmt = parse(sql)?;
    let class = match &stmt {
        Statement::Select(sel) if sel.is_aggregate() => QueryClass::Aggregate,
        Statement::Select(sel) if !sel.joins.is_empty() => QueryClass::Join,
        _ => QueryClass::SqlFilter,
    };
    // the first attempt consumes (and rewrites) the statement; a retry
    // parses a fresh one
    let mut parsed = Some(stmt);
    super::gather(bd, EngineKind::Relational, class, |gather| {
        let stmt = match parsed.take() {
            Some(stmt) => stmt,
            None => parse(sql)?,
        };
        execute_once(bd, gather, stmt)
    })
}

/// One attempt: rewrite the SELECT's table references to local names (or
/// route the write to its table's primary), then run the statement.
fn execute_once(
    bd: &BigDawg,
    gather: &mut super::Gather<'_>,
    mut stmt: Statement,
) -> Result<Batch> {
    let mut written: Option<String> = None;
    // only DDL can change which objects the gather engine holds; SELECT
    // and DML rescan nothing
    let mut ddl = false;
    match &mut stmt {
        Statement::Select(sel) => {
            let from = sel.from.iter_mut().map(|from| &mut from.table);
            for table in from.chain(sel.joins.iter_mut().map(|j| &mut j.table.table)) {
                // a placement() miss is a genuinely unknown table — no retry
                let entry = bd.placement(table)?;
                if let Some(tmp) = gather.localize(table, &entry)? {
                    *table = tmp;
                }
            }
        }
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. } => {
            // writes go to the authoritative copy: route to the primary
            // engine when the table is cataloged on a relational engine. A
            // cataloged primary on any *other* kind of engine rejects the
            // write — executing it against a relational replica copy would
            // acknowledge a row that the following invalidation deletes (a
            // lost write), and the non-relational primary cannot take SQL
            // DML at all.
            if let Ok(entry) = bd.placement(table) {
                if bd.kind_of(&entry.engine) != Ok(EngineKind::Relational) {
                    return Err(BigDawgError::Unsupported(format!(
                        "write to `{table}`: its primary copy lives on \
                         non-relational engine `{}`; migrate it to a \
                         relational engine first",
                        entry.engine
                    )));
                }
                gather.route_to(entry.engine);
            }
            written = Some(table.clone());
        }
        Statement::CreateTable { .. }
        | Statement::DropTable { .. }
        | Statement::CreateIndex { .. } => ddl = true,
    }
    // the monitor sees the name the statement runs against (a remote FROM
    // is recorded under its temporary)
    let object = match &stmt {
        Statement::Select(sel) => sel.from.as_ref().map(|f| f.table.clone()),
        _ => written.clone(),
    };

    // Engine copies the write made stale; dropped after the critical
    // section.
    let mut stale = Vec::new();
    let result = gather.run(object.as_deref(), |engine, shim| {
        let rel = shim
            .as_any_mut()
            .downcast_mut::<RelationalShim>()
            .ok_or_else(|| {
                BigDawgError::Internal(format!("engine `{engine}` is not a RelationalShim"))
            })?;
        let out = match rel.db_mut().execute_statement(stmt)? {
            QueryResult::Rows(b) => b,
            QueryResult::Affected(a) => Batch::new(
                bigdawg_common::Schema::from_pairs(&[(
                    "rows_affected",
                    bigdawg_common::DataType::Int,
                )]),
                vec![vec![bigdawg_common::Value::Int(a.rows as i64)]],
            )?,
        };
        // Invalidate replicas while still holding the engine lock: a reader
        // can only observe this write after the lock releases, and by then
        // the catalog no longer routes anyone to a stale copy. (In-flight
        // replications of pre-write data abort on the epoch bump.) The
        // primary check is atomic with the invalidation: if a migration
        // relocated the primary away while we executed, this copy is about
        // to be dropped wholesale — acknowledging the write would lose it,
        // so the attempt fails as a placement race and the retry re-routes
        // to the new primary. (If instead the relocation commits *after*
        // this epoch bump, its epoch CAS fails and the move aborts, leaving
        // this engine primary — the write is safe either way.)
        if let Some(table) = &written {
            let mut cat = bd.catalog().write();
            if let Ok(entry) = cat.locate(table) {
                if entry.engine != engine {
                    return Err(BigDawgError::NotFound(format!(
                        "primary of `{table}` moved to `{}` during the write",
                        entry.engine
                    )));
                }
            }
            stale = cat.invalidate(table);
        }
        if ddl {
            // catalog what the statement created, on this engine only and
            // under the lock already held
            bd.refresh_engine(shim);
        }
        Ok(out)
    });
    if let (Ok(_), Some(table)) = (&result, &written) {
        // cleanup half of write invalidation: drop the now-unreferenced
        // stale copies and reset the table's demand counters
        bd.drop_stale_copies(table, &stale);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shims::{ArrayShim, RelationalShim};
    use bigdawg_array::Array;
    use bigdawg_common::Value;

    fn federation() -> BigDawg {
        let mut bd = BigDawg::new();
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut()
            .execute("CREATE TABLE patients (id INT, age INT)")
            .unwrap();
        pg.db_mut()
            .execute("INSERT INTO patients VALUES (1, 70), (2, 50), (3, 81)")
            .unwrap();
        bd.add_engine(Box::new(pg));
        let mut scidb = ArrayShim::new("scidb");
        scidb.store(
            "wave",
            Array::from_vector("wave", "v", &[5.0, 6.0, 7.0, 8.0], 2),
        );
        bd.add_engine(Box::new(scidb));
        bd
    }

    #[test]
    fn local_query_runs_in_place() {
        let bd = federation();
        let b = execute(&bd, "SELECT COUNT(*) AS n FROM patients WHERE age > 60").unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn remote_array_transparently_cast() {
        let bd = federation();
        // `wave` lives on scidb; the island casts it over and queries it as
        // a relation — the paper's marquee example (§2.1).
        let b = execute(&bd, "SELECT SUM(v) AS total FROM wave WHERE v > 5").unwrap();
        assert_eq!(b.rows()[0][0], Value::Float(21.0));
        // temp cleaned up: only the two base objects remain
        assert_eq!(bd.catalog().read().len(), 2);
    }

    #[test]
    fn join_across_engines() {
        let bd = federation();
        let b = execute(
            &bd,
            "SELECT p.id, w.v FROM patients p JOIN wave w ON p.id = w.i ORDER BY p.id",
        )
        .unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.rows()[0][1], Value::Float(6.0)); // id 1 ↔ i 1
    }

    #[test]
    fn unknown_table_fails_cleanly() {
        let bd = federation();
        let err = execute(&bd, "SELECT * FROM ghost").unwrap_err();
        assert_eq!(err.kind(), "not_found");
    }

    #[test]
    fn dml_passthrough_records_rows() {
        let bd = federation();
        let b = execute(&bd, "INSERT INTO patients VALUES (4, 33)").unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn write_to_table_with_non_relational_primary_is_rejected() {
        use crate::cast::Transport;
        let bd = federation();
        // move `patients` to the array engine, leave a relational replica
        bd.migrate_object("patients", "scidb", Transport::Binary)
            .unwrap();
        bd.replicate_object("patients", "postgres", Transport::Binary)
            .unwrap();
        // a write must NOT land on the replica copy (it would be
        // acknowledged and then destroyed by invalidation — a lost write)
        let err = execute(&bd, "INSERT INTO patients VALUES (9, 99)").unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        // nothing was invalidated or lost: the replica still serves reads
        assert!(bd.located_on("patients", "postgres"));
        let b = execute(&bd, "SELECT COUNT(*) AS n FROM patients").unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn monitor_records_classes() {
        let bd = federation();
        execute(&bd, "SELECT COUNT(*) FROM patients").unwrap();
        execute(&bd, "SELECT id FROM patients WHERE age > 60").unwrap();
        let m = bd.monitor().lock();
        let stats = m.object_stats("patients");
        assert_eq!(stats.total_queries, 2);
    }

    #[test]
    fn cost_model_picks_the_faster_relational_engine() {
        use crate::monitor::QueryClass;
        use std::time::Duration;

        // two relational engines; `patients` lives on pg_a
        let mut bd = BigDawg::new();
        let mut pg_a = RelationalShim::new("pg_a");
        pg_a.db_mut()
            .execute("CREATE TABLE patients (id INT, age INT)")
            .unwrap();
        pg_a.db_mut()
            .execute("INSERT INTO patients VALUES (1, 70)")
            .unwrap();
        bd.add_engine(Box::new(pg_a));
        bd.add_engine(Box::new(RelationalShim::new("pg_b")));

        // cold start: first engine of the kind by name
        assert_eq!(
            bd.choose_engine_of_kind(crate::shim::EngineKind::Relational, QueryClass::SqlFilter)
                .unwrap(),
            "pg_a"
        );

        // history says pg_b runs filters 10× faster → the island gathers
        // there, casting `patients` over
        {
            let mut m = bd.monitor().lock();
            for _ in 0..4 {
                m.record(
                    "patients",
                    QueryClass::SqlFilter,
                    "pg_a",
                    Duration::from_millis(10),
                );
                m.record(
                    "patients",
                    QueryClass::SqlFilter,
                    "pg_b",
                    Duration::from_millis(1),
                );
            }
        }
        execute(&bd, "SELECT id FROM patients WHERE age > 60").unwrap();
        let m = bd.monitor().lock();
        let last = m.events().last().unwrap();
        assert_eq!(last.engine, "pg_b", "probe side moved to the faster engine");
    }
}
