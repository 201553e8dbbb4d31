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

use crate::cast::Transport;
use crate::monitor::QueryClass;
use crate::polystore::BigDawg;
use crate::shim::EngineKind;
use crate::shims::RelationalShim;
use bigdawg_common::{Batch, BigDawgError, Result};
use bigdawg_relational::db::QueryResult;
use bigdawg_relational::sql::ast::Statement;
use bigdawg_relational::sql::parse;
use std::time::Instant;

/// Execute a SQL query on the relational island.
///
/// A *racy* `not_found` outcome is retried a bounded number of times with
/// placements re-resolved: between resolving a co-located copy and reading
/// it, a concurrent write invalidation (or migration) may have dropped
/// that copy, and the retry simply resolves the current placement instead
/// of failing the query. Only attempts whose failure can stem from a
/// placement race retry (a co-located read, a cast of a resolved object, a
/// write to a cataloged table); a genuinely unknown table fails on the
/// first attempt without re-shipping anything. Failed attempts mutate
/// nothing (a write that cannot resolve its table executes nothing), so
/// retrying is safe.
pub fn execute(bd: &BigDawg, sql: &str) -> Result<Batch> {
    super::retry_island_attempts(bd, |raced| execute_once(bd, sql, raced))
}

/// One attempt. Sets `placement_raced` when a `not_found` failure may be
/// explained by a placement changing between resolve and read — the
/// caller's signal to re-resolve and retry.
fn execute_once(bd: &BigDawg, sql: &str, placement_raced: &mut bool) -> Result<Batch> {
    let mut stmt = parse(sql)?;
    let class = match &stmt {
        Statement::Select(sel) if sel.is_aggregate() => QueryClass::Aggregate,
        Statement::Select(sel) if !sel.joins.is_empty() => QueryClass::Join,
        _ => QueryClass::SqlFilter,
    };
    let mut engine = bd.choose_engine_of_kind(EngineKind::Relational, class)?;
    let mut temps: Vec<String> = Vec::new();

    // Collect referenced tables (SELECT only; DML runs against its table's
    // primary engine).
    let mut written: Option<String> = None;
    // true when some table resolved to a co-located copy read in place, or
    // a write routed through the catalog — the cases where a later
    // not_found can be a placement race rather than an unknown name
    let mut placement_dependent = false;
    match &mut stmt {
        Statement::Select(sel) => {
            let mut refs: Vec<&mut String> = Vec::new();
            if let Some(from) = sel.from.as_mut() {
                refs.push(&mut from.table);
            }
            for j in &mut sel.joins {
                refs.push(&mut j.table.table);
            }
            for table in refs {
                // a co-located copy (primary *or* migrator-placed replica)
                // is read in place; only genuinely remote tables ship —
                // zero-copy when no wire is crossed (the cast degrades it
                // to the columnar codec otherwise).
                // A placement() miss is a genuinely unknown table — no
                // retry; a failing cast of a *resolved* object is racy.
                let outcome = bd.placement(table).and_then(|entry| {
                    if entry.located_on(&engine) {
                        placement_dependent = true;
                    } else {
                        let tmp = bd.temp_name();
                        bd.cast_object(table, &engine, &tmp, Transport::ZeroCopy)
                            .map_err(|e| {
                                if matches!(e, BigDawgError::NotFound(_)) {
                                    *placement_raced = true;
                                }
                                e
                            })?;
                        temps.push(tmp.clone());
                        *table = tmp;
                    }
                    Ok(())
                });
                if let Err(e) = outcome {
                    // clean temps cast so far: a retried attempt leaks nothing
                    for tmp in &temps {
                        let _ = bd.drop_object(tmp);
                    }
                    return Err(e);
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
                if bd.kind_of(&entry.engine) == Ok(EngineKind::Relational) {
                    engine = entry.engine;
                    placement_dependent = true;
                } else {
                    return Err(BigDawgError::Unsupported(format!(
                        "write to `{table}`: its primary copy lives on \
                         non-relational engine `{}`; migrate it to a \
                         relational engine first",
                        entry.engine
                    )));
                }
            }
            written = Some(table.clone());
        }
        _ => {}
    }
    let object = match &stmt {
        Statement::Select(sel) => sel.from.as_ref().map(|f| f.table.clone()),
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. } => Some(table.clone()),
        _ => None,
    };

    // Engine copies the write made stale; dropped after the critical
    // section.
    let stale = std::cell::RefCell::new(Vec::new());
    let run_on = |engine: &str, stmt: Statement| -> Result<Batch> {
        let mut shim = bd.engine(engine)?.lock();
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
            *stale.borrow_mut() = cat.invalidate(table);
        }
        Ok(out)
    };

    let started = Instant::now();
    // a NotFound here after a placement-dependent resolve (a co-located
    // read raced an invalidation, a routed write raced a move) aborts this
    // attempt; [`execute`]'s outer retry re-resolves everything. Cleanup
    // below runs either way, so a retried attempt leaks no temporaries.
    let island_span = bd.tracer().span("island.execute", &engine);
    let result = run_on(&engine, stmt);
    drop(island_span);
    if placement_dependent && matches!(result, Err(BigDawgError::NotFound(_))) {
        *placement_raced = true;
    }
    if result.is_ok() {
        bd.breakers().record_success(&engine);
        if let Some(obj) = object {
            // temp names map back to the original object for monitoring: use
            // the first temp's source if the FROM was remote; recording the
            // local name is fine for the monitor's purposes.
            bd.monitor()
                .lock()
                .record(&obj, class, &engine, started.elapsed());
        }
        if let Some(table) = &written {
            // cleanup half of write invalidation: drop the now-unreferenced
            // stale copies and reset the table's demand counters
            bd.drop_stale_copies(table, &stale.borrow());
        }
    }
    bd.refresh_catalog();
    for tmp in temps {
        let _ = bd.drop_object(&tmp);
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
