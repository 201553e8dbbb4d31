//! Deadlines, cooperative cancellation, admission control, and hedged
//! reads — the overload story end-to-end, on injected clocks wherever a
//! verdict depends on time.
//!
//! Wall-clock sleeps appear only as *upper bounds being beaten*: a test
//! gives a blocking point a long emulated wire and asserts the query
//! unwound long before it, which is exactly the cooperative-cancellation
//! guarantee under test.

use bigdawg_array::Array;
use bigdawg_common::deadline::{self, CancelCause, CancelToken, QueryContext};
use bigdawg_common::metrics::labeled;
use bigdawg_common::{BigDawgError, ManualClock, Value};
use bigdawg_core::cast::CastReport;
use bigdawg_core::monitor::QueryClass;
use bigdawg_core::shims::{ArrayShim, LatencyShim, RelationalShim};
use bigdawg_core::{AdmissionConfig, BigDawg, RetryPolicy, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

const READ_QUERY: &str = "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wave, relation))";
const LOCAL_QUERY: &str = "RELATIONAL(SELECT COUNT(*) AS n FROM patients)";

/// pg (fast, holds `patients`) + one array engine holding `wave` behind an
/// emulated wire of `wire` per remote request.
fn federation(wire: Duration) -> BigDawg {
    let mut bd = BigDawg::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut()
        .execute("CREATE TABLE patients (id INT, age INT)")
        .unwrap();
    pg.db_mut()
        .execute("INSERT INTO patients VALUES (1, 70), (2, 50), (3, 81), (4, 64)")
        .unwrap();
    bd.add_engine(Box::new(pg));
    let mut scidb = ArrayShim::new("scidb");
    scidb.store(
        "wave",
        Array::from_vector("wave", "v", &[1.0, 2.0, 3.0, 4.0], 2),
    );
    if wire.is_zero() {
        bd.add_engine(Box::new(scidb));
    } else {
        bd.add_engine(Box::new(LatencyShim::new(Box::new(scidb), wire)));
    }
    bd
}

fn assert_no_cast_temps(bd: &BigDawg) {
    {
        let cat = bd.catalog().read();
        assert!(
            cat.entries().all(|(name, _)| !name.starts_with("__cast_")),
            "catalog holds an orphaned cast temp"
        );
    }
    for engine in bd.engine_names() {
        let names = bd.engine(engine).unwrap().lock().object_names();
        assert!(
            names.iter().all(|n| !n.starts_with("__cast_")),
            "engine {engine} holds orphaned temps: {names:?}"
        );
    }
}

// ---- deadlines -------------------------------------------------------------

#[test]
fn over_budget_query_names_the_slowest_leaf() {
    // a manual clock never advances, so the 10 ms budget never *elapses* —
    // the query dies on the fail-fast rule instead: the emulated 50 ms
    // wire exceeds what remains of the budget, so the sleep refuses to
    // start. Nothing here waits on wall time.
    let bd = federation(Duration::from_millis(50));
    bd.set_query_clock(Arc::new(ManualClock::new()));
    bd.set_deadline(Some(Duration::from_millis(10)));

    let started = Instant::now();
    let err = bd.execute(READ_QUERY).unwrap_err();
    assert_eq!(err.kind(), "deadline_exceeded");
    let msg = err.to_string();
    assert!(msg.contains("slowest leaf"), "names the culprit: {msg}");
    assert!(msg.contains("wave"), "the slow leaf is the cast: {msg}");
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "fail-fast: the wire sleep never ran"
    );
    assert_eq!(
        bd.metrics()
            .counter_value("bigdawg_deadline_exceeded_total"),
        1
    );
    assert_no_cast_temps(&bd);

    // the serial reference schedule enforces the same budget
    let err = bd.execute_serial(READ_QUERY).unwrap_err();
    assert_eq!(err.kind(), "deadline_exceeded");

    // queries that stay inside the budget are untouched
    let b = bd.execute(LOCAL_QUERY).unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(4));
    // and clearing the budget restores the slow path
    bd.set_deadline(None);
    let b = bd.execute(READ_QUERY).unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(4));
}

#[test]
fn explain_analyze_reports_deadline_slack() {
    let bd = federation(Duration::ZERO);
    bd.set_deadline(Some(Duration::from_secs(10)));
    let plan = bd.explain_analyze(READ_QUERY).unwrap();
    let (slack, budget) = plan
        .deadline_slack
        .expect("a deadlined query reports slack");
    assert_eq!(budget, Duration::from_secs(10));
    assert!(slack <= budget);
    let rendered = format!("{plan}");
    assert!(rendered.contains("slack"), "no slack row:\n{rendered}");
    assert!(
        !rendered.contains("queued"),
        "no admission gate, no queue row:\n{rendered}"
    );

    // without a deadline the plan renders exactly as before this layer
    bd.set_deadline(None);
    let plan = bd.explain_analyze(READ_QUERY).unwrap();
    assert!(plan.deadline_slack.is_none());
    assert!(!format!("{plan}").contains("slack"));
}

// ---- cancellation ----------------------------------------------------------

#[test]
fn pre_cancelled_handle_fails_fast_and_clean() {
    let bd = federation(Duration::from_secs(5));
    let handle = bd.query_handle();
    assert!(!handle.is_cancelled());
    handle.cancel();
    assert!(handle.is_cancelled());

    let started = Instant::now();
    let err = bd.execute_with(READ_QUERY, &handle).unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "never reached the 5 s wire"
    );
    assert_no_cast_temps(&bd);
}

#[test]
fn mid_flight_cancel_wakes_the_wire_sleep() {
    // the query's only copy of `wave` sits behind a 5 s emulated wire;
    // cancelling the handle must wake that sleep, not ride it out
    let bd = federation(Duration::from_secs(5));
    let handle = bd.query_handle();
    let started = Instant::now();
    let result = std::thread::scope(|s| {
        let canceller = {
            let handle = handle.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                handle.cancel();
            })
        };
        let r = bd.execute_with(READ_QUERY, &handle);
        canceller.join().unwrap();
        r
    });
    let err = result.unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the wire sleep was woken, not served: {:?}",
        started.elapsed()
    );
    assert_no_cast_temps(&bd);
}

#[test]
fn cancelled_replication_leaves_placement_untouched() {
    // a placement (replica or move — one protocol) checked under an
    // already-cancelled ambient context must abort before the commit
    // point: no new copy, no epoch bump
    type Place = fn(&BigDawg, &str, &str, Transport) -> bigdawg_common::Result<CastReport>;
    for place in [BigDawg::replicate_object as Place, BigDawg::migrate_object] {
        let mut bd = federation(Duration::ZERO);
        bd.add_engine(Box::new(ArrayShim::new("spare")));
        let epoch_before = bd.placement_epoch("wave").unwrap();

        let token = CancelToken::new();
        token.cancel(CancelCause::User);
        let ctx = QueryContext::with_token(Arc::clone(&token), None);
        let err = {
            let _g = deadline::enter(ctx);
            place(&bd, "wave", "spare", Transport::Binary).unwrap_err()
        };
        assert_eq!(err.kind(), "cancelled");
        assert_eq!(bd.placement_epoch("wave").unwrap(), epoch_before);
        let placement: Vec<String> = bd
            .placement("wave")
            .unwrap()
            .locations()
            .map(str::to_string)
            .collect();
        assert_eq!(placement, vec!["scidb".to_string()], "no half-copy placed");
        assert!(
            !bd.engine("spare")
                .unwrap()
                .lock()
                .object_names()
                .iter()
                .any(|n| n == "wave"),
            "the target engine holds no orphaned copy"
        );

        // with the context gone the same placement succeeds
        place(&bd, "wave", "spare", Transport::Binary).unwrap();
        assert!(bd.placement_epoch("wave").unwrap() > epoch_before);
    }
}

// ---- admission control -----------------------------------------------------

#[test]
fn saturated_gate_sheds_newest_with_a_retry_hint() {
    let bd = federation(Duration::from_secs(5));
    bd.set_admission(Some(
        AdmissionConfig::default()
            .with_max_concurrent(1)
            .with_max_queue(0)
            .with_queue_budget(Duration::from_millis(5)),
    ));
    let handle = bd.query_handle();

    std::thread::scope(|s| {
        let bd = &bd;
        let occupant = {
            let handle = handle.clone();
            s.spawn(move || bd.execute_with(READ_QUERY, &handle))
        };
        // wait (bounded) until the occupant holds the only slot
        for _ in 0..2000 {
            if bd.admission_stats().unwrap().admitted >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(bd.admission_stats().unwrap().admitted, 1);

        // zero queue slots: the newest arrival sheds immediately
        let err = bd.execute(LOCAL_QUERY).unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        let BigDawgError::Overloaded { retry_after_hint } = err else {
            panic!("expected Overloaded, got {err}");
        };
        assert_eq!(retry_after_hint, Duration::from_millis(5));

        handle.cancel();
        let occupied = occupant.join().unwrap();
        assert_eq!(occupied.unwrap_err().kind(), "cancelled");
    });

    let stats = bd.admission_stats().unwrap();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.shed_queue_full, 1);
    assert_eq!(stats.shed(), 1);
    assert_eq!(
        bd.metrics().gauge("bigdawg_admission_inflight").value(),
        0,
        "no stuck query holds a slot"
    );
    assert_eq!(
        bd.metrics().gauge("bigdawg_admission_queue_depth").value(),
        0
    );
}

#[test]
fn queued_query_promotes_and_reports_its_wait() {
    let bd = federation(Duration::from_secs(5));
    bd.set_admission(Some(
        AdmissionConfig::default()
            .with_max_concurrent(1)
            .with_max_queue(4)
            .with_queue_budget(Duration::from_secs(10)),
    ));
    let handle = bd.query_handle();

    let plan = std::thread::scope(|s| {
        let bd = &bd;
        let occupant = {
            let handle = handle.clone();
            s.spawn(move || bd.execute_with(READ_QUERY, &handle))
        };
        for _ in 0..2000 {
            if bd.admission_stats().unwrap().admitted >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // free the slot as soon as the probe query shows up in the queue
        {
            let handle = handle.clone();
            s.spawn(move || {
                for _ in 0..2000 {
                    if bd.admission_stats().unwrap().queued >= 1 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                handle.cancel();
            });
        }
        let plan = bd.explain_analyze(LOCAL_QUERY).unwrap();
        let _ = occupant.join().unwrap();
        plan
    });

    assert!(plan.queue_wait > Duration::ZERO, "the probe really queued");
    let rendered = format!("{plan}");
    assert!(
        rendered.contains("queued"),
        "no queue-wait row:\n{rendered}"
    );
    let stats = bd.admission_stats().unwrap();
    assert_eq!(stats.queued, 1);
    assert_eq!(stats.shed(), 0, "nothing was shed");
}

#[test]
fn nested_cast_queries_bypass_the_gate() {
    // a federated CAST query spawns nested island work under the same
    // top-level context; if that inner work re-entered a width-1 gate the
    // query would deadlock against itself
    let bd = federation(Duration::ZERO);
    bd.set_admission(Some(
        AdmissionConfig::default()
            .with_max_concurrent(1)
            .with_max_queue(0),
    ));
    let b = bd.execute(READ_QUERY).unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(4));
    assert_eq!(bd.admission_stats().unwrap().admitted, 1);
}

// ---- hedged reads ----------------------------------------------------------

/// pg + a primary array engine whose *second* remote request spikes to
/// 200 ms (the first, the replication copy, stays fast) + a fast replica.
fn hedged_federation(spiked: bool) -> BigDawg {
    let mut bd = BigDawg::new();
    let mut pg = RelationalShim::new("postgres");
    pg.db_mut().execute("CREATE TABLE t (x INT)").unwrap();
    bd.add_engine(Box::new(pg));
    let mut scidb_a = ArrayShim::new("scidb_a");
    scidb_a.store(
        "wave",
        Array::from_vector("wave", "v", &[1.0, 2.0, 3.0, 4.0], 2),
    );
    let mut primary = LatencyShim::new(Box::new(scidb_a), Duration::ZERO);
    if spiked {
        primary = primary.with_spike(2, Duration::from_millis(200));
    }
    bd.add_engine(Box::new(primary));
    bd.add_engine(Box::new(ArrayShim::new("scidb_b")));
    bd.replicate_object("wave", "scidb_b", Transport::Binary)
        .unwrap();
    bd
}

/// Give the board enough (tiny) samples that `read_p99` trusts its
/// estimate for the primary.
fn warm_latency_board(bd: &BigDawg, engine: &str) {
    let board = bd.monitor().lock().latency_board();
    for _ in 0..8 {
        board.record_read(engine, QueryClass::SqlFilter, Duration::from_millis(1));
    }
    assert!(board.read_p99(engine, QueryClass::SqlFilter).is_some());
}

#[test]
fn hedged_read_races_a_replica_past_a_slow_primary() {
    let bd = hedged_federation(true);
    bd.set_retry_policy(RetryPolicy::standard(7).with_hedging(true));
    warm_latency_board(&bd, "scidb_a");

    let started = Instant::now();
    bd.cast_object("wave", "postgres", "wave_rel", Transport::Binary)
        .unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "the hedge answered; the spiked primary was cancelled, not awaited \
         ({:?})",
        started.elapsed()
    );
    assert_eq!(
        bd.metrics().counter_value("bigdawg_hedge_launched_total"),
        1
    );
    assert_eq!(bd.metrics().counter_value("bigdawg_hedge_wins_total"), 1);

    // the shipped copy is real data, not a torn read
    let b = bd
        .execute("RELATIONAL(SELECT COUNT(*) AS n FROM wave_rel)")
        .unwrap();
    assert_eq!(b.rows()[0][0], Value::Int(4));
}

#[test]
fn hedging_is_off_by_default() {
    let bd = hedged_federation(false);
    bd.set_retry_policy(RetryPolicy::standard(7));
    warm_latency_board(&bd, "scidb_a");
    bd.cast_object("wave", "postgres", "wave_rel", Transport::Binary)
        .unwrap();
    assert_eq!(
        bd.metrics().counter_value("bigdawg_hedge_launched_total"),
        0
    );
    assert_eq!(bd.metrics().counter_value("bigdawg_hedge_wins_total"), 0);
}

// ---- degraded reads --------------------------------------------------------

#[test]
fn degraded_reads_serve_the_cache_when_the_full_path_is_shed() {
    let bd = federation(Duration::ZERO);
    bd.set_result_cache(Some(bigdawg_core::CachePolicy::admit_all()));
    let warm = bd.execute(LOCAL_QUERY).unwrap();

    // a zero budget sheds every fresh execution the moment it starts
    bd.set_admission(Some(AdmissionConfig::default().with_degraded_reads(true)));
    bd.set_deadline(Some(Duration::ZERO));

    let degraded = bd.execute_degraded(LOCAL_QUERY).unwrap();
    assert!(!degraded.complete);
    assert!(!degraded.stale, "placement epochs are unchanged");
    assert_eq!(
        degraded.batch.as_ref().expect("served from cache").rows(),
        warm.rows()
    );
    assert_eq!(
        degraded.error.as_ref().map(|e| e.kind()),
        Some("deadline_exceeded")
    );
    assert_eq!(
        bd.metrics()
            .counter_value(&labeled("bigdawg_degraded_total", &[("served", "cache")])),
        1
    );

    // a write bumps the epoch; the degraded answer is now served *marked
    // stale* instead of being withheld
    bd.set_deadline(None);
    bd.execute("RELATIONAL(INSERT INTO patients VALUES (5, 33))")
        .unwrap();
    bd.set_deadline(Some(Duration::ZERO));
    let degraded = bd.execute_degraded(LOCAL_QUERY).unwrap();
    assert!(degraded.stale, "epoch moved on; the entry must say so");
    assert_eq!(
        degraded.batch.as_ref().expect("stale but served").rows(),
        warm.rows()
    );

    // with degraded reads off the shed error passes through untouched
    bd.set_admission(Some(AdmissionConfig::default()));
    let err = bd.execute_degraded(LOCAL_QUERY).unwrap_err();
    assert_eq!(err.kind(), "deadline_exceeded");
}
