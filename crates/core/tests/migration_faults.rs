//! Fault-injection tests for the migrator: a migration that fails at any
//! point of its copy-then-commit protocol must leave the catalog pointing
//! at an intact copy — never a torn placement. [`FaultShim`] injects
//! deterministic failures at exact operation indices, so each test pins
//! the failure to one step of the protocol.

use bigdawg_array::Array;
use bigdawg_common::deadline::{self, CancelCause, CancelToken, QueryContext};
use bigdawg_common::{Batch, Result, Value};
use bigdawg_core::cast::CastReport;
use bigdawg_core::shims::{ArrayShim, FaultPlan, FaultShim, RelationalShim};
use bigdawg_core::{BigDawg, Capability, EngineKind, MigrationPolicy, Migrator, Shim, Transport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};

/// A shim decorator that pauses the *first* `put_table` at its entry:
/// it signals `entered` and blocks until `resume` fires. This lets a test
/// interleave another action at the exact midpoint of a migration copy —
/// deterministic scheduling of the race the epoch guard exists for.
struct PutHookShim {
    inner: Box<dyn Shim>,
    armed: AtomicBool,
    entered: Sender<()>,
    resume: Receiver<()>,
}

impl PutHookShim {
    fn new(inner: Box<dyn Shim>, entered: Sender<()>, resume: Receiver<()>) -> Self {
        PutHookShim {
            inner,
            armed: AtomicBool::new(true),
            entered,
            resume,
        }
    }
}

impl Shim for PutHookShim {
    fn engine_name(&self) -> &str {
        self.inner.engine_name()
    }
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }
    fn capabilities(&self) -> Vec<Capability> {
        self.inner.capabilities()
    }
    fn object_names(&self) -> Vec<String> {
        self.inner.object_names()
    }
    fn get_table(&self, object: &str) -> Result<Batch> {
        self.inner.get_table(object)
    }
    fn put_table(&mut self, object: &str, batch: Batch) -> Result<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
            let _ = self.entered.send(());
            let _ = self.resume.recv();
        }
        self.inner.put_table(object, batch)
    }
    fn drop_object(&mut self, object: &str) -> Result<()> {
        self.inner.drop_object(object)
    }
    fn execute_native(&mut self, query: &str) -> Result<Batch> {
        self.inner.execute_native(query)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// The two placements the migrator makes. Every abort case below runs
/// over both: they share one copy-then-commit protocol and must fail the
/// same way.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Move,
    Replica,
}

fn place(bd: &BigDawg, kind: Kind, object: &str, to_engine: &str) -> Result<CastReport> {
    match kind {
        Kind::Move => bd.migrate_object(object, to_engine, Transport::Binary),
        Kind::Replica => bd.replicate_object(object, to_engine, Transport::Binary),
    }
}

/// What an aborted placement must leave behind: the catalog still on the
/// intact source, no copy on the target — and no orphan mark either, so a
/// re-scan changes nothing.
fn assert_aborted_cleanly(bd: &BigDawg, object: &str, source: &str, target: &str, case: &str) {
    for pass in ["after the abort", "after a re-scan"] {
        assert_eq!(bd.locate(object).unwrap(), source, "{case} {pass}");
        assert!(!bd.located_on(object, target), "{case} {pass}");
        assert!(
            bd.engine(target).unwrap().lock().get_table(object).is_err(),
            "{case} {pass}: the target holds no partial object"
        );
        bd.refresh_catalog();
    }
}

/// postgres holds `patients`; scidb (the migration target) is wrapped in a
/// FaultShim with the given plan.
fn federation_with_faulty_target(plan: FaultPlan) -> BigDawg {
    let mut bd = BigDawg::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut()
        .execute("CREATE TABLE patients (id INT, age INT)")
        .unwrap();
    pg.db_mut()
        .execute("INSERT INTO patients VALUES (1, 70), (2, 50), (3, 81)")
        .unwrap();
    bd.add_engine(Box::new(pg));
    bd.add_engine(Box::new(FaultShim::new(
        Box::new(ArrayShim::new("scidb")),
        plan,
    )));
    bd
}

#[test]
fn migration_failing_mid_copy_leaves_catalog_on_intact_source() {
    for kind in [Kind::Move, Kind::Replica] {
        let case = format!("{kind:?}");
        // the target's first fallible operation is the placement's
        // put_table: the copy dies mid-flight
        let bd = federation_with_faulty_target(FaultPlan::nth(1));
        let epoch_before = bd.placement_epoch("patients").unwrap();

        let err = place(&bd, kind, "patients", "scidb").unwrap_err();
        assert_eq!(err.kind(), "execution", "{case}");
        assert!(err.to_string().contains("injected fault"), "{case}");

        // no torn placement: the catalog still points at the intact
        // source and the target holds no partial object …
        assert_aborted_cleanly(&bd, "patients", "postgres", "scidb", &case);
        assert_eq!(
            bd.placement_epoch("patients").unwrap(),
            epoch_before,
            "{case}: a failed copy commits nothing"
        );
        // … and the source data is untouched
        let b = bd
            .execute("RELATIONAL(SELECT COUNT(*) AS n FROM patients)")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(3), "{case}");

        // the fault was transient (nth(1) fires once): a retry succeeds
        place(&bd, kind, "patients", "scidb").unwrap();
        let primary = if kind == Kind::Move {
            "scidb"
        } else {
            "postgres"
        };
        assert_eq!(bd.locate("patients").unwrap(), primary, "{case}");
        assert!(bd.located_on("patients", "scidb"), "{case}");
        assert!(
            bd.placement_epoch("patients").unwrap() > epoch_before,
            "{case}"
        );
    }
}

#[test]
fn replication_failing_mid_copy_commits_nothing() {
    let bd = federation_with_faulty_target(FaultPlan::nth(1));
    let epoch_before = bd.placement_epoch("patients").unwrap();
    assert!(bd
        .replicate_object("patients", "scidb", Transport::Binary)
        .is_err());
    assert!(!bd.located_on("patients", "scidb"));
    assert_eq!(bd.placement_epoch("patients").unwrap(), epoch_before);
    // retry succeeds and bumps the epoch exactly once
    bd.replicate_object("patients", "scidb", Transport::Binary)
        .unwrap();
    assert!(bd.located_on("patients", "scidb"));
    assert_eq!(bd.placement_epoch("patients").unwrap(), epoch_before + 1);
}

#[test]
fn source_drop_failure_still_commits_and_never_routes_to_the_orphan() {
    // here the *source* is faulty: its operations during a move are
    // get_table (op 1) then drop_object (op 2) — fail the drop
    let mut bd = BigDawg::new();
    let mut scidb = ArrayShim::new("scidb");
    scidb.store(
        "wave",
        Array::from_vector("wave", "v", &[1.0, 2.0, 3.0, 4.0], 2),
    );
    bd.add_engine(Box::new(FaultShim::new(Box::new(scidb), FaultPlan::nth(2))));
    bd.add_engine(Box::new(RelationalShim::new("postgres")));

    // the move itself succeeds: data landed and the catalog committed
    bd.migrate_object("wave", "postgres", Transport::Binary)
        .unwrap();
    assert_eq!(bd.locate("wave").unwrap(), "postgres");
    // the undropped source copy is an *unreferenced* orphan: the catalog
    // does not route to it (its contents can't be trusted — a write racing
    // the commit could have touched it), and a refresh can't resurrect it
    // because the object name stays cataloged on the new primary
    assert!(!bd.located_on("wave", "scidb"));
    assert!(bd.engine("scidb").unwrap().lock().get_table("wave").is_ok(),);
    bd.refresh_catalog();
    assert_eq!(bd.locate("wave").unwrap(), "postgres");
    // the federation serves the committed primary copy
    let b = bd
        .execute("RELATIONAL(SELECT COUNT(*) AS n FROM wave)")
        .unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(4));

    // deleting the object entirely must not let a re-scan resurrect the
    // orphan under the deleted name: the refresh *reaps* it instead (the
    // injected fault was transient, so the engine now allows the drop)
    bd.drop_object("wave").unwrap();
    assert!(bd.locate("wave").is_err());
    bd.refresh_catalog();
    assert!(
        bd.locate("wave").is_err(),
        "orphan resurrected a deleted object"
    );
    assert!(
        bd.engine("scidb")
            .unwrap()
            .lock()
            .get_table("wave")
            .is_err(),
        "orphan copy reaped once the engine allowed the drop"
    );
}

/// Deterministically exercises the commit-time epoch guard: a write
/// invalidation lands exactly inside a replication's copy window, so the
/// commit must observe the epoch bump, abort, and discard the target copy
/// (which would otherwise serve pre-write data as a "fresh" replica).
#[test]
fn epoch_guard_aborts_replication_when_a_write_lands_mid_copy() {
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (resume_tx, resume_rx) = std::sync::mpsc::channel();
    let mut bd = BigDawg::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut()
        .execute("CREATE TABLE patients (id INT, age INT)")
        .unwrap();
    pg.db_mut()
        .execute("INSERT INTO patients VALUES (1, 70), (2, 50)")
        .unwrap();
    bd.add_engine(Box::new(pg));
    bd.add_engine(Box::new(PutHookShim::new(
        Box::new(ArrayShim::new("scidb")),
        entered_tx,
        resume_rx,
    )));

    let epoch_before = bd.placement_epoch("patients").unwrap();
    std::thread::scope(|s| {
        let bd = &bd;
        let replication =
            s.spawn(move || bd.replicate_object("patients", "scidb", Transport::Binary));
        // the replication has snapshotted the placement and is now paused
        // inside put_table on the target — the middle of the copy window
        entered_rx.recv().expect("replication reaches put_table");
        // a write invalidation lands (what the relational island does
        // inside the primary's critical section on INSERT)
        bd.catalog().write().invalidate("patients");
        resume_tx.send(()).expect("resume the copy");

        let err = replication.join().expect("no panic").unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(
            err.to_string().contains("changed during replication"),
            "unexpected error: {err}"
        );
    });
    // the possibly-stale copy was discarded, not committed
    assert!(!bd.located_on("patients", "scidb"));
    assert!(bd
        .engine("scidb")
        .unwrap()
        .lock()
        .get_table("patients")
        .is_err());
    assert!(bd.placement_epoch("patients").unwrap() > epoch_before);
    // the hook fires once: with no interleaved write, a retry commits
    bd.replicate_object("patients", "scidb", Transport::Binary)
        .unwrap();
    assert!(bd.located_on("patients", "scidb"));
}

/// The same deterministic interleaving against a fresh target, over both
/// placement kinds and both things that can land inside the copy window:
/// a write invalidation (the commit's epoch guard aborts) and a
/// cancellation (the pre-commit check aborts). Either way the source
/// remains the intact primary and the landed copy is discarded.
#[test]
fn epoch_guard_aborts_migration_when_a_write_lands_mid_copy() {
    for kind in [Kind::Move, Kind::Replica] {
        for cancel in [false, true] {
            let case = format!("{kind:?}, cancel={cancel}");
            let (entered_tx, entered_rx) = std::sync::mpsc::channel();
            let (resume_tx, resume_rx) = std::sync::mpsc::channel();
            let mut bd = BigDawg::new();
            let mut scidb = ArrayShim::new("scidb");
            scidb.store(
                "wave",
                Array::from_vector("wave", "v", &[1.0, 2.0, 3.0, 4.0], 2),
            );
            bd.add_engine(Box::new(scidb));
            bd.add_engine(Box::new(PutHookShim::new(
                Box::new(RelationalShim::new("postgres")),
                entered_tx,
                resume_rx,
            )));
            let epoch_before = bd.placement_epoch("wave").unwrap();
            let token = CancelToken::new();

            std::thread::scope(|s| {
                let bd = &bd;
                let ctx = QueryContext::with_token(token.clone(), None);
                let placement = s.spawn(move || {
                    let _query = deadline::enter(ctx);
                    place(bd, kind, "wave", "postgres")
                });
                entered_rx.recv().expect("placement reaches put_table");
                if cancel {
                    token.cancel(CancelCause::User);
                } else {
                    bd.catalog().write().invalidate("wave");
                }
                resume_tx.send(()).expect("resume the copy");
                let err = placement.join().expect("no panic").unwrap_err();
                if cancel {
                    assert_eq!(err.kind(), "cancelled", "{case}: {err}");
                } else {
                    let noun = if kind == Kind::Move {
                        "migration"
                    } else {
                        "replication"
                    };
                    assert!(
                        err.to_string().contains(&format!("changed during {noun}")),
                        "{case}: unexpected error: {err}"
                    );
                }
            });
            // no torn placement: the source is still the primary and
            // intact, and nothing but the write itself moved the epoch
            assert_aborted_cleanly(&bd, "wave", "scidb", "postgres", &case);
            assert_eq!(
                bd.placement_epoch("wave").unwrap() == epoch_before,
                cancel,
                "{case}"
            );
            let b = bd.execute("ARRAY(aggregate(wave, count, v))").unwrap();
            assert_eq!(b.rows()[0][0], Value::Float(4.0), "{case}");
        }
    }
}

#[test]
fn auto_migration_rides_through_a_seeded_fault_storm() {
    // a seeded plan failing ~30% of the target's operations: auto-placement
    // must never corrupt the catalog, and must converge once a copy lands.
    // To replay a failure, re-run with BIGDAWG_TEST_SEED=<printed seed>.
    let seed = bigdawg_core::shims::test_seed(42);
    eprintln!("auto_migration_rides_through_a_seeded_fault_storm: seed {seed}");
    let bd = federation_with_faulty_target(FaultPlan::seeded(seed, 30, 64));
    bd.set_auto_migrate(Some(MigrationPolicy {
        min_ships: 2,
        replicate: true,
        max_per_cycle: 4,
    }));
    // queries may fail while the target engine faults — that is the storm —
    // but a query that *answers* must answer correctly, and nothing may
    // corrupt the catalog
    let mut answered = 0;
    for _ in 0..16 {
        match bd.execute("ARRAY(aggregate(patients, count, age))") {
            Ok(b) => {
                assert_eq!(b.rows()[0][0], Value::Float(3.0));
                answered += 1;
            }
            Err(e) => assert!(
                e.to_string().contains("injected fault"),
                "only injected faults may surface, got: {e}"
            ),
        }
    }
    assert!(answered > 0, "some queries ride through the storm");
    // whatever happened, the placement is consistent: the primary is
    // always readable
    let primary = bd.locate("patients").unwrap();
    assert!(bd
        .engine(&primary)
        .unwrap()
        .lock()
        .get_table("patients")
        .is_ok());
    // and epochs never regressed (monotonicity is asserted by the catalog
    // API itself; spot-check the final state is sane)
    let migrator = Migrator::new(MigrationPolicy::with_min_ships(2));
    let _ = migrator.plan(&bd); // planning on a post-storm catalog is safe
}

/// `t` lives on `pg_a`, whose second fallible operation — the source drop
/// of the move below — is refused: after the move `pg_b` is the primary
/// and `pg_a` holds an orphaned copy the catalog does not reference.
fn federation_with_an_orphan_on_pg_a() -> BigDawg {
    let mut bd = BigDawg::new();
    let mut pg_a = RelationalShim::new("pg_a");
    pg_a.db_mut().execute("CREATE TABLE t (x INT)").unwrap();
    pg_a.db_mut()
        .execute("INSERT INTO t VALUES (1), (2)")
        .unwrap();
    bd.add_engine(Box::new(FaultShim::new(Box::new(pg_a), FaultPlan::nth(2))));
    bd.add_engine(Box::new(RelationalShim::new("pg_b")));
    bd.add_engine(Box::new(RelationalShim::new("pg_c")));
    bd.migrate_object("t", "pg_b", Transport::Binary).unwrap();
    assert_eq!(bd.locate("t").unwrap(), "pg_b");
    assert!(holds(&bd, "pg_a", "t"), "the refused drop left a copy");
    bd
}

fn holds(bd: &BigDawg, engine: &str, object: &str) -> bool {
    let names = bd.engine(engine).unwrap().lock().object_names();
    names.iter().any(|n| n == object)
}

/// Orphans are reaped where orphans are made: the next placement of, or
/// write to, any object drops the copies whose engines now allow it — as
/// does the full `refresh_catalog()` — without a per-statement rescan.
#[test]
fn an_orphan_is_reaped_by_the_next_placement_write_or_refresh() {
    for reaper in ["place", "write", "refresh"] {
        let bd = federation_with_an_orphan_on_pg_a();
        // a read rescans nothing and reaps nothing
        bd.execute("RELATIONAL(SELECT COUNT(*) AS n FROM t)")
            .unwrap();
        assert!(holds(&bd, "pg_a", "t"), "{reaper}");
        match reaper {
            "place" => drop(bd.replicate_object("t", "pg_c", Transport::Binary).unwrap()),
            "write" => drop(bd.execute("RELATIONAL(UPDATE t SET x = x + 1)").unwrap()),
            _ => bd.refresh_catalog(),
        }
        assert!(!holds(&bd, "pg_a", "t"), "{reaper}: the orphan is gone");
        assert_eq!(bd.locate("t").unwrap(), "pg_b", "{reaper}");
        assert!(!bd.located_on("t", "pg_a"), "{reaper}");
    }
}

/// An orphan's contents predate a move, so the per-engine rescan a native
/// statement triggers must not catalog it — not even once its name is
/// free again.
#[test]
fn refresh_engine_never_registers_an_orphan() {
    let bd = federation_with_an_orphan_on_pg_a();
    bd.drop_object("t").unwrap();
    assert!(bd.locate("t").is_err());
    // runs on pg_a — against the orphan, natively — and rescans pg_a
    let b = bd.execute("PG_A(SELECT COUNT(*) AS n FROM t)").unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(2));
    assert!(bd.locate("t").is_err(), "the rescan resurrected an orphan");
    bd.refresh_catalog();
    assert!(!holds(&bd, "pg_a", "t"), "the full refresh reaps it");
    assert!(bd.locate("t").is_err());
}
