//! Failover and circuit-breaker behavior of the fault-tolerant data path.
//!
//! Each test pins one decision of the retry/failover machinery with
//! deterministic [`FaultShim`] plans: where a read sweeps on engine
//! failure, what the error names when every copy is down, how a zero-attempt
//! policy degenerates to the old fail-fast semantics, and how a breaker
//! trips open and re-closes through ordinary traffic.

use bigdawg_array::Array;
use bigdawg_common::metrics::labeled;
use bigdawg_common::CollectingSink;
use bigdawg_common::Value;
use bigdawg_core::shims::{
    ArrayShim, FaultHandle, FaultPlan, FaultShim, KvShim, OpKind, RelationalShim,
};
use bigdawg_core::{BigDawg, BreakerState, ObjectKind, RetryPolicy, Transport};
use std::sync::Arc;

/// pg (healthy) + two array engines wrapped in fault shims; `wave` starts
/// on scidb_a and is replicated onto scidb_b, so reads have a surviving
/// copy when one array engine dies. Plans are offset so the replication
/// itself (one get on scidb_a, one put on scidb_b) stays clean.
fn replicated_federation(
    plan_a: FaultPlan,
    plan_b: FaultPlan,
) -> (BigDawg, FaultHandle, FaultHandle) {
    let mut bd = BigDawg::new();
    bd.add_engine(Box::new(RelationalShim::new("postgres")));
    let mut scidb_a = ArrayShim::new("scidb_a");
    scidb_a.store(
        "wave",
        Array::from_vector("wave", "v", &[1.0, 2.0, 3.0, 4.0], 2),
    );
    let shim_a = FaultShim::new(Box::new(scidb_a), plan_a);
    let handle_a = shim_a.handle();
    bd.add_engine(Box::new(shim_a));
    let shim_b = FaultShim::new(Box::new(ArrayShim::new("scidb_b")), plan_b);
    let handle_b = shim_b.handle();
    bd.add_engine(Box::new(shim_b));
    bd.replicate_object("wave", "scidb_b", Transport::Binary)
        .unwrap();
    (bd, handle_a, handle_b)
}

#[test]
fn failed_read_fails_over_to_a_surviving_replica() {
    // scidb_a dies on its second operation — the first post-replication read
    let (bd, handle_a, _) = replicated_federation(FaultPlan::crash_at(2), FaultPlan::default());
    bd.set_retry_policy(RetryPolicy::standard(7));

    // the sweep hits the crashed primary, records the failure, and serves
    // the replica — the query never sees the fault
    let b = bd
        .execute("RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wave, relation))")
        .unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(4));
    assert!(handle_a.is_crashed());
    assert!(
        bd.engine_health("scidb_a").consecutive_failures >= 1,
        "the dead primary's failure was recorded"
    );
    assert_eq!(bd.engine_health("scidb_b").state, BreakerState::Closed);
    // the registry's read-failure counter agrees with the injection count
    assert_eq!(
        bd.metrics()
            .counter_value(&bigdawg_common::metrics::labeled(
                "bigdawg_engine_op_failures_total",
                &[("engine", "scidb_a"), ("op", "read")],
            )),
        handle_a.injected(OpKind::Read)
    );
}

/// The multi-system islands read through the federation's read path, so
/// they see replicas and the retry policy like a CAST does: with the
/// primary's reads failing, `assoc(obj)` and `scan(obj)` answer from the
/// surviving copy.
#[test]
fn d4m_and_myria_reads_fail_over_to_a_surviving_replica() {
    let (bd, handle_a, handle_b) =
        replicated_federation(FaultPlan::crash_at(2), FaultPlan::default());
    bd.set_retry_policy(RetryPolicy::standard(7));
    for (island, query) in [("D4M", "assoc(wave)"), ("MYRIA", "scan(wave)")] {
        let served = handle_b.attempts(OpKind::Read);
        let b = bd.island_execute(island, query).unwrap();
        assert_eq!(b.len(), 4, "{island}");
        assert_eq!(handle_b.attempts(OpKind::Read) - served, 1, "{island}");
    }
    assert!(handle_a.is_crashed());
    assert_eq!(
        bd.metrics().counter_value(&labeled(
            "bigdawg_engine_op_failures_total",
            &[("engine", "scidb_a"), ("op", "read")],
        )),
        handle_a.injected(OpKind::Read)
    );
}

/// One door to an engine: whichever island gathers, the engine it reaches
/// books exactly one op under the shared span, and feeds its breaker by
/// the data-plane rule — a success closes it, a transient failure counts
/// against it, a `not_found` (a placement race, a missing document) says
/// nothing about the engine's health.
#[test]
fn every_island_gather_counts_its_op_and_feeds_the_breaker() {
    let mut bd = BigDawg::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut()
        .execute("CREATE TABLE patients (id INT, age INT)")
        .unwrap();
    pg.db_mut()
        .execute("INSERT INTO patients VALUES (1, 70), (2, 50)")
        .unwrap();
    bd.add_engine(Box::new(pg));
    let mut scidb = ArrayShim::new("scidb");
    scidb.store("wave", Array::from_vector("wave", "v", &[1.0, 2.0], 2));
    bd.add_engine(Box::new(scidb));
    // the relational and array gathers downcast through decorators, so
    // their transient failures are the engines' own; the other three
    // islands reach their engine through the shim surface, where a
    // FaultShim fails the third call of each row below
    let mut kv = KvShim::new("accumulo");
    kv.index_document(1, "p1", 0, "very sick patient");
    bd.add_engine(Box::new(FaultShim::new(Box::new(kv), FaultPlan::at(&[3]))));
    // (named to sort after `postgres`, the RELATIONAL island's cold-start pick)
    let mut edges = RelationalShim::new("postgres_edges");
    edges
        .db_mut()
        .execute("CREATE TABLE edges (src TEXT, dst TEXT, w FLOAT)")
        .unwrap();
    edges
        .db_mut()
        .execute("INSERT INTO edges VALUES ('a', 'b', 1.0), ('b', 'c', 2.0)")
        .unwrap();
    bd.add_engine(Box::new(FaultShim::new(
        Box::new(edges),
        FaultPlan::at(&[3, 6]),
    )));
    // cataloged but held by no engine: reading one is a `not_found`
    for (phantom, engine, kind) in [
        ("phantom", "postgres", ObjectKind::Table),
        ("phantom_arr", "scidb", ObjectKind::Array),
        ("phantom_edges", "postgres_edges", ObjectKind::Table),
    ] {
        bd.register_object(phantom, engine, kind).unwrap();
    }
    let sink = Arc::new(CollectingSink::new());
    bd.set_trace_sink(sink.clone());

    // (island, engine, op, span, [ok, not_found, transient] queries, ops a
    // not_found books: a gather-on-one-engine island re-resolves a
    // placement-dependent miss three times, a plain read misses once)
    let rows = [
        (
            "RELATIONAL",
            "postgres",
            "native",
            "island.execute",
            [
                "SELECT COUNT(*) FROM patients",
                "SELECT * FROM phantom",
                "SELECT SQRT(0 - age) FROM patients",
            ],
            3,
        ),
        (
            "ARRAY",
            "scidb",
            "native",
            "island.execute",
            [
                "aggregate(wave, max, v)",
                "scan(phantom_arr)",
                "regrid(wave, 0, avg)",
            ],
            3,
        ),
        (
            "TEXT",
            "accumulo",
            "native",
            "island.execute",
            ["search(sick)", "get(999)", "search(sick)"],
            1,
        ),
        (
            "D4M",
            "postgres_edges",
            "read",
            "cast.egress",
            ["assoc(edges)", "assoc(phantom_edges)", "assoc(edges)"],
            1,
        ),
        (
            // the join's two scans and two row estimates share one export
            "MYRIA",
            "postgres_edges",
            "read",
            "cast.egress",
            [
                "scan(edges) |> join(scan(edges), dst, src) |> agg(*; count)",
                "scan(phantom_edges)",
                "scan(edges)",
            ],
            1,
        ),
    ];
    for (island, engine, op, span, queries, not_found_ops) in rows {
        let ops = || {
            bd.metrics().counter_value(&labeled(
                "bigdawg_engine_ops_total",
                &[("engine", engine), ("op", op)],
            ))
        };
        // (outcome, ops booked, breaker streak afterwards)
        let outcomes = [
            ("ok", 1, 0),
            ("not_found", not_found_ops, 1),
            ("execution", 1, 2),
        ];
        for (query, (outcome, booked, streak)) in queries.into_iter().zip(outcomes) {
            // start from a streak of one, so an outcome that leaves the
            // breaker alone reads differently from one that closes it
            bd.breakers().record_success(engine);
            bd.breakers().record_failure(engine);
            sink.take();
            let before = ops();
            let result = bd.island_execute(island, query);
            let kind = result.as_ref().map_or_else(|e| e.kind(), |_| "ok");
            assert_eq!(kind, outcome, "{island}/{query}: {result:?}");
            assert_eq!(ops() - before, booked, "{island}/{outcome}");
            let spans = sink.take();
            let emitted = spans.iter().filter(|s| s.name == span && s.label == engine);
            assert_eq!(emitted.count() as u64, booked, "{island}/{outcome}");
            assert_eq!(
                bd.engine_health(engine).consecutive_failures,
                streak,
                "{island}/{outcome}"
            );
        }
    }
}

#[test]
fn all_replicas_down_error_names_every_attempted_engine() {
    // both array engines die right after the replication copy
    let (bd, _, _) = replicated_federation(FaultPlan::crash_at(2), FaultPlan::crash_at(2));
    bd.set_retry_policy(
        RetryPolicy::standard(7).with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO),
    );

    let err = bd
        .cast_object("wave", "postgres", "wave_rel", Transport::Binary)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("failed on every attempted copy"),
        "aggregate sweep error expected, got: {msg}"
    );
    assert!(msg.contains("scidb_a"), "names the primary: {msg}");
    assert!(msg.contains("scidb_b"), "names the replica: {msg}");
    // the aggregate stays bounded: one summarized line per engine (the
    // underlying error's first line, char-capped, with an elision count for
    // anything dropped) — never the full error text per attempt
    assert!(!msg.contains('\n'), "aggregate must be single-line: {msg}");
    // each engine contributes exactly one `engine (summary)` entry — the
    // name may recur *inside* a snippet (the injected error quotes it),
    // but never as a second entry
    assert_eq!(msg.matches("scidb_a (").count(), 1, "one entry per engine");
    assert_eq!(msg.matches("scidb_b (").count(), 1, "one entry per engine");
    assert!(
        msg.len() < 600,
        "aggregate grew unboundedly ({} chars): {msg}",
        msg.len()
    );
}

#[test]
fn zero_attempt_policy_degenerates_to_fail_fast() {
    // the default policy: no retries, no failover — exactly the
    // pre-fault-tolerance semantics the torn-placement tests rely on
    assert!(RetryPolicy::none().is_fail_fast());
    let (bd, handle_a, handle_b) = replicated_federation(FaultPlan::at(&[2]), FaultPlan::default());
    assert!(bd.retry_policy().is_fail_fast(), "fail-fast is the default");

    let reads_before = handle_a.attempts(OpKind::Read);
    let err = bd
        .cast_object("wave", "postgres", "wave_rel", Transport::Binary)
        .unwrap_err();
    // the raw single-engine error surfaces untouched, after exactly one
    // attempt on the primary and none on the (ignored) replica
    assert!(err.to_string().contains("injected fault"), "{err}");
    assert_eq!(handle_a.attempts(OpKind::Read) - reads_before, 1);
    assert_eq!(handle_b.attempts(OpKind::Read), 0, "no failover attempted");
}

#[test]
fn put_side_transient_failures_retry_under_the_policy() {
    // the migration target fails its first put; with a retry budget the
    // same migrate_object call rides through
    let mut bd = BigDawg::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut()
        .execute("CREATE TABLE patients (id INT, age INT)")
        .unwrap();
    pg.db_mut()
        .execute("INSERT INTO patients VALUES (1, 70), (2, 50)")
        .unwrap();
    bd.add_engine(Box::new(pg));
    let target = FaultShim::new(Box::new(ArrayShim::new("scidb")), FaultPlan::nth(1));
    let handle = target.handle();
    bd.add_engine(Box::new(target));
    bd.set_retry_policy(RetryPolicy::standard(7));

    bd.migrate_object("patients", "scidb", Transport::Binary)
        .unwrap();
    assert_eq!(bd.locate("patients").unwrap(), "scidb");
    assert_eq!(handle.injected(OpKind::Write), 1, "the fault did fire");
    assert!(handle.attempts(OpKind::Write) >= 2, "…and was retried");

    // the metrics registry saw exactly what the fault shim injected — one
    // failure per injection, one op per attempt, no double-count, no miss
    let failures = bd
        .metrics()
        .counter_value(&bigdawg_common::metrics::labeled(
            "bigdawg_engine_op_failures_total",
            &[("engine", "scidb"), ("op", "write")],
        ));
    assert_eq!(failures, handle.injected(OpKind::Write));
    let ops = bd
        .metrics()
        .counter_value(&bigdawg_common::metrics::labeled(
            "bigdawg_engine_ops_total",
            &[("engine", "scidb"), ("op", "write")],
        ));
    assert_eq!(ops, handle.attempts(OpKind::Write));
    assert_eq!(
        bd.metrics()
            .counter_value(&bigdawg_common::metrics::labeled(
                "bigdawg_retry_attempts_total",
                &[("scope", "migrate")],
            )),
        1,
        "one retry, attributed to the migrate scope"
    );
}

#[test]
fn open_breaker_on_the_only_engine_of_a_kind_still_plans() {
    let mut bd = BigDawg::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut().execute("CREATE TABLE t (x INT)").unwrap();
    pg.db_mut().execute("INSERT INTO t VALUES (1)").unwrap();
    bd.add_engine(Box::new(pg));

    // trip the only relational engine's breaker
    for _ in 0..3 {
        bd.breakers().record_failure("postgres");
    }
    assert_eq!(bd.engine_health("postgres").state, BreakerState::Open);

    // the planner must not refuse: the attempt doubles as the probe, and
    // its success closes the breaker
    let b = bd
        .execute("RELATIONAL(SELECT COUNT(*) AS n FROM t)")
        .unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(1));
    assert_eq!(bd.engine_health("postgres").state, BreakerState::Closed);
}

#[test]
fn explain_renders_failover_edges_and_breaker_state() {
    let (bd, _, _) = replicated_federation(FaultPlan::default(), FaultPlan::default());
    let q = "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wave, relation))";

    // fail-fast policy: no failover edges to render
    let plan = bd.explain(q).unwrap();
    assert!(!plan.to_string().contains("failover"));

    // failover policy: the leaf names its surviving replicas
    bd.set_retry_policy(RetryPolicy::standard(7));
    let plan = bd.explain(q).unwrap();
    assert!(
        plan.to_string().contains("(failover: scidb_b)"),
        "plan lacks the failover edge:\n{plan}"
    );

    // a sick engine shows up as a breaker line
    for _ in 0..3 {
        bd.breakers().record_failure("scidb_a");
    }
    let rendered = bd.explain(q).unwrap().to_string();
    assert!(
        rendered.contains("breaker scidb_a: open (3 consecutive failures)"),
        "plan lacks the breaker line:\n{rendered}"
    );
}

#[test]
fn breaker_trips_under_an_error_burst_and_recloses_through_traffic() {
    // one array engine, no replicas: a read burst long enough to exhaust
    // a whole cast (1 + 3 retries) trips the breaker; the next cast finds
    // the engine recovered, succeeds, and closes it
    let mut bd = BigDawg::new();
    bd.add_engine(Box::new(RelationalShim::new("postgres")));
    let mut scidb = ArrayShim::new("scidb");
    scidb.store("wave", Array::from_vector("wave", "v", &[1.0, 2.0], 2));
    let shim = FaultShim::new(
        Box::new(scidb),
        FaultPlan::burst(1, 4).scoped(bigdawg_core::shims::OpScope::Reads),
    );
    let handle = shim.handle();
    bd.add_engine(Box::new(shim));
    bd.set_retry_policy(
        RetryPolicy::standard(7).with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO),
    );

    let err = bd
        .cast_object("wave", "postgres", "wave_rel", Transport::Binary)
        .unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    assert_eq!(
        bd.engine_health("scidb").state,
        BreakerState::Open,
        "four consecutive read failures trip the default threshold of 3"
    );

    // the burst is over: the engine serves again, and the successful read
    // closes the breaker (single-copy reads are always attempted — an open
    // breaker de-prioritizes, it never blocks the only copy)
    bd.cast_object("wave", "postgres", "wave_rel", Transport::Binary)
        .unwrap();
    assert_eq!(bd.engine_health("scidb").state, BreakerState::Closed);

    // breaker lifecycle counters: one trip, one re-close — and the read
    // failure counter equals the shim's injection counter exactly
    let trips = bd
        .metrics()
        .counter_value(&bigdawg_common::metrics::labeled(
            "bigdawg_breaker_trips_total",
            &[("engine", "scidb")],
        ));
    assert_eq!(trips, 1, "the burst tripped the breaker exactly once");
    let recloses = bd
        .metrics()
        .counter_value(&bigdawg_common::metrics::labeled(
            "bigdawg_breaker_recloses_total",
            &[("engine", "scidb")],
        ));
    assert_eq!(recloses, 1, "the probe success re-closed it exactly once");
    let read_failures = bd
        .metrics()
        .counter_value(&bigdawg_common::metrics::labeled(
            "bigdawg_engine_op_failures_total",
            &[("engine", "scidb"), ("op", "read")],
        ));
    assert_eq!(read_failures, handle.injected(OpKind::Read));
}
