//! What an engine's mutex covers: the engine's own execution — not a
//! client's round-trip to it, and not other engines' catalogs.
//!
//! * A request hop is paid *before* the engine's lock is taken, so a
//!   query waiting on the wire blocks nobody else's work on that engine.
//! * A statement rescans only the engine it ran on, under the lock it
//!   already holds, and only when it can have created an object.
//!
//! No assertion here compares wall-clock times: minute-long delays are
//! either cancelled or refused by a deadline, never slept.

use bigdawg_array::Array;
use bigdawg_common::metrics::labeled;
use bigdawg_common::{Batch, DataType, ManualClock, Result, Schema, SpanRecord, TraceSink, Value};
use bigdawg_core::shims::{ArrayShim, LatencyShim, RelationalShim};
use bigdawg_core::{BigDawg, Capability, EngineKind, Shim};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Counts the calls that reach the wrapped engine: `object_names()` (a
/// catalog rescan) and `execute_native` (the engine's own work).
#[derive(Default)]
struct Calls {
    object_names: AtomicU64,
    execute_native: AtomicU64,
}

struct ProbeShim {
    inner: Box<dyn Shim>,
    calls: Arc<Calls>,
}

fn probed(inner: Box<dyn Shim>) -> (Box<dyn Shim>, Arc<Calls>) {
    let calls = Arc::new(Calls::default());
    let probe = ProbeShim {
        inner,
        calls: Arc::clone(&calls),
    };
    (Box::new(probe), calls)
}

impl Shim for ProbeShim {
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
        self.calls.object_names.fetch_add(1, Ordering::SeqCst);
        self.inner.object_names()
    }
    fn get_table(&self, object: &str) -> Result<Batch> {
        self.inner.get_table(object)
    }
    fn put_table(&mut self, object: &str, batch: Batch) -> Result<()> {
        self.inner.put_table(object, batch)
    }
    fn drop_object(&mut self, object: &str) -> Result<()> {
        self.inner.drop_object(object)
    }
    fn execute_native(&mut self, query: &str) -> Result<Batch> {
        self.calls.execute_native.fetch_add(1, Ordering::SeqCst);
        self.inner.execute_native(query)
    }
    fn wire_latency(&self) -> Duration {
        self.inner.wire_latency()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Forwards the name of every completed span, so a test can wait for a
/// query to get past a stage instead of sleeping.
struct SpanNames(Mutex<Sender<&'static str>>);

impl TraceSink for SpanNames {
    fn record(&self, span: SpanRecord) {
        let _ = self.0.lock().unwrap().send(span.name);
    }
}

fn wave(name: &str) -> Array {
    Array::from_vector(name, "v", &[1.0, 2.0, 3.0, 4.0], 2)
}

/// `scidb`, holding `wave`, a minute away behind the wire; the probe sits
/// inside the wire, where only a request that arrived is seen.
fn a_minute_away() -> (BigDawg, Arc<Calls>) {
    let mut bd = BigDawg::new();
    let mut scidb = ArrayShim::new("scidb");
    scidb.store("wave", wave("wave"));
    let (scidb, calls) = probed(Box::new(scidb));
    bd.add_engine(Box::new(LatencyShim::new(scidb, Duration::from_secs(60))));
    (bd, calls)
}

const QUERY: &str = "SCIDB(aggregate(wave, sum, v))";

fn side_table() -> Batch {
    Batch::new(
        Schema::from_pairs(&[("i", DataType::Int), ("v", DataType::Float)]),
        vec![vec![Value::Int(0), Value::Float(9.0)]],
    )
    .unwrap()
}

/// The request hop is paid before the engine's lock, and without it. The
/// test holds that lock from start to end; the query's hop is one the
/// deadline refuses at once (the budget, on a clock that never moves, is
/// shorter than the wire). A hop paid outside the lock fails the query
/// there and then; one slept under the lock would first have to be
/// handed the lock the test is holding. The refused call books like any
/// other that did not fail *transiently*: one engine op, nothing against
/// the breaker.
#[test]
fn a_request_hop_is_paid_without_the_engines_lock() {
    let (bd, calls) = a_minute_away();
    bd.set_query_clock(Arc::new(ManualClock::new()));
    bd.set_deadline(Some(Duration::from_secs(1)));
    let mut held = bd.engine("scidb").unwrap().lock();
    let (done, outcome) = channel();

    let outcome = std::thread::scope(|s| {
        s.spawn(|| done.send(bd.execute(QUERY)));
        // work on the engine goes on while the query is on the wire
        held.put_table("side", side_table()).unwrap();
        // (the timeout only bounds a failure: it is no part of a passing run)
        let outcome = outcome.recv_timeout(Duration::from_secs(30));
        drop(held);
        outcome.expect("a query on the wire must not wait for the engine's lock")
    });

    assert_eq!(outcome.unwrap_err().kind(), "deadline_exceeded");
    assert_eq!(calls.execute_native.load(Ordering::SeqCst), 0);
    let ops = labeled(
        "bigdawg_engine_ops_total",
        &[("engine", "scidb"), ("op", "native")],
    );
    assert_eq!(bd.metrics().counter_value(&ops), 1);
    assert_eq!(
        bd.metrics()
            .counter_family_total("bigdawg_engine_op_failures_total"),
        0
    );
    assert_eq!(bd.engine_health("scidb").consecutive_failures, 0);
}

/// A query a minute from its engine is cancelled: the hop wakes (or is
/// never started), the query ends `cancelled`, and the engine behind the
/// wire never sees the request — while the engine's lock stays free for
/// other work throughout.
#[test]
fn a_query_parked_in_its_request_hop_leaves_the_engine_free() {
    let (bd, calls) = a_minute_away();
    let (spans, stages) = channel();
    bd.set_trace_sink(Arc::new(SpanNames(Mutex::new(spans))));
    let handle = bd.query_handle();

    let outcome = std::thread::scope(|s| {
        let query = s.spawn(|| bd.execute_with(QUERY, &handle));
        // planning is done: the next thing the query does is cross the wire
        assert!(stages.iter().any(|stage| stage == "exec.plan"));
        let engine = bd.engine("scidb").unwrap();
        assert!(
            engine.try_lock().is_some(),
            "a request hop must not hold the engine's lock"
        );
        engine.lock().put_table("side", side_table()).unwrap();
        handle.cancel();
        query.join().unwrap()
    });

    assert_eq!(outcome.unwrap_err().kind(), "cancelled");
    assert_eq!(
        calls.execute_native.load(Ordering::SeqCst),
        0,
        "a cancelled hop never reaches the engine"
    );
    let names = bd.engine("scidb").unwrap().lock().object_names();
    assert!(names.contains(&"side".to_string()));
}

/// A federation of one relational engine and four array engines, every
/// one behind a probe. Returns the probes by engine name, zeroed after
/// set-up.
fn probed_federation() -> (BigDawg, Vec<(&'static str, Arc<Calls>)>) {
    let mut bd = BigDawg::new();
    let mut probes = Vec::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut()
        .execute("CREATE TABLE patients (id INT, age INT)")
        .unwrap();
    pg.db_mut()
        .execute("INSERT INTO patients VALUES (1, 70), (2, 50)")
        .unwrap();
    let (pg, calls) = probed(Box::new(pg));
    bd.add_engine(pg);
    probes.push(("postgres", calls));
    for name in ["scidb_a", "scidb_b", "scidb_c", "scidb_d"] {
        let mut scidb = ArrayShim::new(name);
        let object = format!("wave_{}", &name[6..]);
        scidb.store(&object, wave(&object));
        let (scidb, calls) = probed(Box::new(scidb));
        bd.add_engine(scidb);
        probes.push((name, calls));
    }
    for (_, calls) in &probes {
        calls.object_names.store(0, Ordering::SeqCst);
    }
    (bd, probes)
}

/// `object_names()` calls per engine since the last reading.
fn rescans(probes: &[(&'static str, Arc<Calls>)]) -> Vec<(&'static str, u64)> {
    probes
        .iter()
        .map(|(name, calls)| (*name, calls.object_names.swap(0, Ordering::SeqCst)))
        .filter(|(_, n)| *n > 0)
        .collect()
}

#[test]
fn a_statement_rescans_only_the_engine_it_ran_on() {
    let (bd, probes) = probed_federation();

    // reads and DML cannot create an object: nothing is rescanned
    for query in [
        "RELATIONAL(SELECT COUNT(*) AS n FROM patients)",
        "RELATIONAL(UPDATE patients SET age = age + 1 WHERE id = 1)",
        "RELATIONAL(INSERT INTO patients VALUES (3, 81))",
        "RELATIONAL(DELETE FROM patients WHERE id = 3)",
        // a four-leaf fan-out: four remote objects cast to the gather engine
        "RELATIONAL(SELECT a.v FROM CAST(wave_a, relation) a \
         JOIN CAST(wave_b, relation) b ON a.i = b.i \
         JOIN CAST(wave_c, relation) c ON a.i = c.i \
         JOIN CAST(wave_d, relation) d ON a.i = d.i)",
    ] {
        bd.execute(query).unwrap();
        assert_eq!(rescans(&probes), vec![], "{query}");
    }

    // a native statement may have created anything — on its own engine
    bd.execute(
        "RELATIONAL(SELECT a.sum_v FROM CAST(SCIDB_A(aggregate(wave_a, sum, v)), relation) a \
         JOIN CAST(SCIDB_C(aggregate(wave_c, sum, v)), relation) c ON 1 = 1)",
    )
    .unwrap();
    assert_eq!(rescans(&probes), vec![("scidb_a", 1), ("scidb_c", 1)]);

    // DDL is cataloged by the time `execute` returns, whichever island
    // carried it, at the price of one rescan of the engine it ran on
    for (query, table) in [
        ("POSTGRES(CREATE TABLE t (x INT))", "t"),
        ("RELATIONAL(CREATE TABLE u (x INT))", "u"),
    ] {
        bd.execute(query).unwrap();
        assert_eq!(bd.locate(table).unwrap(), "postgres", "{query}");
        assert_eq!(rescans(&probes), vec![("postgres", 1)], "{query}");
    }
}
