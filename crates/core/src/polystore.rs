//! The polystore façade: engines + catalog + islands + monitor + migrator.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats, PartialResult};
use crate::cache::{CachePolicy, CacheStats, QueryCache};
use crate::cast::{ship_with_wire_traced, CastReport, Transport};
use crate::catalog::{Catalog, ObjectEntry, ObjectKind};
use crate::exec;
use crate::islands;
use crate::migrate::{MigrationPolicy, Migrator};
use crate::monitor::{
    BoardObserver, BreakerBoard, EngineHealth, LatencyBoard, Monitor, QueryClass,
};
use crate::plan;
use crate::retry::{self, RetryObserver, RetryPolicy};
use crate::scope;
use crate::shim::{EngineKind, Shim};
use crate::shims::latency;
use bigdawg_common::deadline::{self, CancelCause, CancelToken, Deadline, QueryContext};
use bigdawg_common::metrics::{labeled, Histogram};
use bigdawg_common::{
    Batch, BigDawgError, Clock, MetricsRegistry, MonotonicClock, Result, TraceSink, Tracer,
};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The federation is shared across scatter workers by reference, so it must
/// stay `Send + Sync`; this fails to compile if a field ever regresses that.
const _: fn() = || {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<BigDawg>();
};

/// The BigDAWG federation.
///
/// ```
/// use bigdawg_core::{BigDawg, shims::RelationalShim};
///
/// let mut bd = BigDawg::new();
/// bd.add_engine(Box::new(RelationalShim::new("postgres")));
/// bd.execute("POSTGRES(CREATE TABLE t (x INT))").unwrap();
/// bd.execute("POSTGRES(INSERT INTO t VALUES (1), (2))").unwrap();
/// let rows = bd.execute("RELATIONAL(SELECT COUNT(*) AS n FROM t)").unwrap();
/// assert_eq!(rows.rows()[0][0], bigdawg_common::Value::Int(2));
/// ```
pub struct BigDawg {
    engines: BTreeMap<String, EngineSlot>,
    catalog: RwLock<Catalog>,
    monitor: Mutex<Monitor>,
    /// The monitor's circuit-breaker board, shared so data paths (and the
    /// migrator, which runs *under* the monitor lock) can record outcomes
    /// without touching the monitor mutex.
    breakers: std::sync::Arc<BreakerBoard>,
    temp_counter: AtomicU64,
    /// How transient failures are handled (retries, backoff, replica
    /// failover). Fail-fast by default; see [`BigDawg::set_retry_policy`].
    retry: RwLock<RetryPolicy>,
    /// When set, top-level queries are followed by a migrator cycle that
    /// acts on the monitor's hot set (see [`BigDawg::set_auto_migrate`]).
    auto_migrate: RwLock<Option<MigrationPolicy>>,
    /// Ensures at most one auto-migration cycle runs at a time; concurrent
    /// queries skip the cycle instead of queueing behind it.
    migration_active: AtomicBool,
    /// Objects with a placement (move/replica copy) currently in flight —
    /// placements of the same object are mutually exclusive.
    placements_in_flight: Mutex<std::collections::BTreeSet<String>>,
    /// Untracked (engine, object) copies the catalog deliberately does not
    /// reference — an undroppable migration source, or stale replicas whose
    /// cleanup was skipped. `refresh_engine` must never re-register these
    /// (their contents can't be trusted); `reap_orphans` drops them when
    /// the engine finally allows it.
    orphans: Mutex<std::collections::BTreeSet<(String, String)>>,
    /// The federation's span factory — disabled (free) until a sink is
    /// installed with [`BigDawg::set_trace_sink`].
    tracer: Tracer,
    /// The federation's metrics registry (always on; counters are atomic
    /// increments).
    metrics: Arc<MetricsRegistry>,
    /// The epoch-validated result cache. `None` (off) by default; see
    /// [`BigDawg::set_result_cache`].
    result_cache: RwLock<Option<Arc<QueryCache>>>,
    /// The clock deadlines and queue budgets are measured against —
    /// monotonic wall time by default, injectable for deterministic
    /// overload tests ([`BigDawg::set_query_clock`]).
    query_clock: RwLock<Arc<dyn Clock>>,
    /// Per-query time budget applied to every top-level query. `None`
    /// (unbounded) by default; see [`BigDawg::set_deadline`].
    deadline_budget: RwLock<Option<Duration>>,
    /// The admission gate in front of the executor. `None` (every query
    /// admitted) by default; see [`BigDawg::set_admission`].
    admission: RwLock<Option<Arc<AdmissionController>>>,
    /// The monitor's read-latency board, shared with the replica-read
    /// path the same way the breaker board is — hedging thresholds must
    /// not take the monitor lock.
    latency_board: Arc<LatencyBoard>,
}

/// One registered engine: the shim behind its mutex, with the shim's
/// immutable metadata (sampled once at registration) beside it so kind and
/// wire lookups never take an engine lock.
struct EngineSlot {
    kind: EngineKind,
    wire: Duration,
    shim: Mutex<Box<dyn Shim>>,
    /// `bigdawg_engine_lock_wait_microseconds{engine}`: how long callers
    /// waited to acquire `shim` — contention on this engine, as a number.
    lock_wait: Arc<Histogram>,
}

/// What a data-plane call does to its engine — the one argument that
/// tells [`BigDawg::engine_call`] how to label the call and whether the
/// request crosses the engine's wire.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EngineOp {
    /// `get_table`: a copy read over the wire.
    Read,
    /// `put_table`: a landing on the coordinator's side of the wire.
    Write,
    /// A degenerate island's `execute_native`, sent over the wire.
    Native,
    /// An island's gather sent over the wire as `execute_native` (text).
    IslandNative,
    /// An island's gather run on the downcast engine itself (relational,
    /// array): execution *on* the gather engine, no wire.
    IslandGather,
}

impl EngineOp {
    /// The `op` label of the per-engine op counters.
    fn label(self) -> &'static str {
        match self {
            EngineOp::Read => "read",
            EngineOp::Write => "write",
            EngineOp::Native | EngineOp::IslandNative | EngineOp::IslandGather => "native",
        }
    }

    /// The span the call runs inside.
    fn span(self) -> &'static str {
        match self {
            EngineOp::Read => "cast.egress",
            EngineOp::Write => "cast.ingress",
            EngineOp::Native => "engine.native",
            EngineOp::IslandNative | EngineOp::IslandGather => "island.execute",
        }
    }

    /// Does the request travel the engine's wire (and so pay its hop)?
    fn crosses_wire(self) -> bool {
        matches!(
            self,
            EngineOp::Read | EngineOp::Native | EngineOp::IslandNative
        )
    }
}

thread_local! {
    /// Time this thread has spent *acquiring* engine mutexes, ever — a
    /// leaf reads it before and after to report its own share.
    static LOCK_WAIT: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// Total time the calling thread has waited for engine mutexes inside
/// [`BigDawg::engine_call`]; differences of two readings are meaningful.
pub(crate) fn lock_wait_on_this_thread() -> Duration {
    LOCK_WAIT.with(Cell::get)
}

/// Book `waited` against the calling thread — `engine_call` for its own
/// acquisitions, the scatter for what its joined workers waited.
pub(crate) fn add_lock_wait(waited: Duration) {
    LOCK_WAIT.with(|total| total.set(total.get() + waited));
}

/// Panic-safe release of a [`BigDawg::begin_placement`] mark: placements
/// must never stay "in flight" past the operation, even if a shim panics
/// mid-copy.
struct PlacementGuard<'a> {
    bd: &'a BigDawg,
    object: String,
}

impl Drop for PlacementGuard<'_> {
    fn drop(&mut self) {
        self.bd.placements_in_flight.lock().remove(&self.object);
    }
}

/// What a placement does with the copy it lands: make it the primary and
/// drop the source, or register it as one more replica.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Placement {
    Move,
    Replica,
}

impl Placement {
    /// The words the two kinds differ by: the verb (also the retry
    /// scope), the noun, what an epoch-race abort did, the metrics label.
    fn words(self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            Placement::Move => ("migrate", "migration", "move aborted", "move"),
            Placement::Replica => ("replicate", "replication", "copy discarded", "replicate"),
        }
    }
}

/// A caller-held cancellation handle for one query (or several — a handle
/// may be reused, but its cancellation is sticky). Clone it into another
/// thread and call [`QueryHandle::cancel`] to make every blocking point
/// of the running query unwind cooperatively.
///
/// ```
/// use bigdawg_core::BigDawg;
///
/// let bd = BigDawg::new();
/// let handle = bd.query_handle();
/// handle.cancel();
/// assert!(handle.is_cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct QueryHandle {
    token: Arc<CancelToken>,
}

impl QueryHandle {
    /// Cancel the query. Sticky and thread-safe; parked sleeps wake
    /// immediately.
    pub fn cancel(&self) {
        self.token.cancel(CancelCause::User);
    }

    /// Has this handle been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// The underlying shared token.
    pub fn token(&self) -> &Arc<CancelToken> {
        &self.token
    }
}

/// Panic-safe release of the auto-migration single-flight flag.
struct CycleGuard<'a>(&'a AtomicBool);

impl Drop for CycleGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Default for BigDawg {
    fn default() -> Self {
        Self::new()
    }
}

impl BigDawg {
    /// An empty federation: no engines, an empty catalog, a fresh monitor.
    pub fn new() -> Self {
        let monitor = Monitor::new();
        let breakers = monitor.breaker_board();
        let latency_board = monitor.latency_board();
        let tracer = Tracer::new();
        let metrics = Arc::new(MetricsRegistry::new());
        // breaker state transitions happen inside the board (the only place
        // that sees the previous state), so the board reports them through
        // the federation's tracer and registry
        breakers.set_observer(BoardObserver {
            tracer: tracer.clone(),
            metrics: metrics.clone(),
        });
        BigDawg {
            engines: BTreeMap::new(),
            catalog: RwLock::new(Catalog::new()),
            monitor: Mutex::new(monitor),
            breakers,
            temp_counter: AtomicU64::new(0),
            retry: RwLock::new(RetryPolicy::none()),
            auto_migrate: RwLock::new(None),
            migration_active: AtomicBool::new(false),
            placements_in_flight: Mutex::new(std::collections::BTreeSet::new()),
            orphans: Mutex::new(std::collections::BTreeSet::new()),
            tracer,
            metrics,
            result_cache: RwLock::new(None),
            query_clock: RwLock::new(Arc::new(MonotonicClock::new())),
            deadline_budget: RwLock::new(None),
            admission: RwLock::new(None),
            latency_board,
        }
    }

    // ---- engines -----------------------------------------------------------

    /// Register an engine. Objects it already holds are cataloged.
    pub fn add_engine(&mut self, shim: Box<dyn Shim>) {
        let name = shim.engine_name().to_string();
        let (kind, wire) = (shim.kind(), shim.wire_latency());
        {
            let mut cat = self.catalog.write();
            for obj in shim.object_names() {
                cat.register(&obj, &name, default_kind(kind));
            }
        }
        let slot = EngineSlot {
            kind,
            wire,
            shim: Mutex::new(shim),
            lock_wait: self.metrics.histogram(&labeled(
                "bigdawg_engine_lock_wait_microseconds",
                &[("engine", &name)],
            )),
        };
        self.engines.insert(name, slot);
    }

    /// The named engine's shim, behind its per-engine mutex — for tests
    /// and the benchmark harness only. The federation's data plane reaches
    /// an engine through `engine_call` (run a statement, write) or
    /// `read_object` (read a copy), which carry the span, op counters,
    /// breaker feedback and failover this raw handle skips.
    pub fn engine(&self, name: &str) -> Result<&Mutex<Box<dyn Shim>>> {
        self.engine_entry(name).map(|slot| &slot.shim)
    }

    fn engine_entry(&self, name: &str) -> Result<&EngineSlot> {
        self.engines
            .get(name)
            .ok_or_else(|| BigDawgError::NotFound(format!("engine `{name}`")))
    }

    /// The registered engine names, sorted.
    pub fn engine_names(&self) -> Vec<&str> {
        self.engines.keys().map(String::as_str).collect()
    }

    /// First engine of the given kind (the island's default backend).
    pub fn engine_of_kind(&self, kind: EngineKind) -> Result<String> {
        self.engines
            .iter()
            .find(|(_, slot)| slot.kind == kind)
            .map(|(n, _)| n.clone())
            .ok_or_else(|| {
                BigDawgError::NotFound(format!("an engine of kind `{kind}` in the federation"))
            })
    }

    /// All engines of the given kind, sorted by name (the registry is a
    /// name-keyed map; registration order is not preserved).
    pub fn engines_of_kind(&self, kind: EngineKind) -> Vec<String> {
        self.engines
            .iter()
            .filter(|(_, slot)| slot.kind == kind)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Pick the engine that should evaluate a `class` query among the
    /// engines of `kind` — the monitor-driven plan choice of §2.2. With one
    /// candidate (or on cold start, when no candidate has measured history)
    /// this falls back to the first engine of the kind by name, matching
    /// [`BigDawg::engine_of_kind`]; with history, the engine with the
    /// lowest mean measured latency for that query class wins.
    ///
    /// The choice is also breaker-aware: engines whose circuit breaker is
    /// open ([`BigDawg::engine_health`]) are routed around while healthy
    /// peers of the kind exist. When every candidate's breaker is open —
    /// including the only-engine-of-its-kind case — the pick proceeds
    /// anyway: the federation never refuses to plan, and the attempt
    /// doubles as the probe that lets a recovered engine's breaker close.
    pub fn choose_engine_of_kind(&self, kind: EngineKind, class: QueryClass) -> Result<String> {
        let mut candidates = self.engines_of_kind(kind);
        if candidates.len() == 1 {
            // the only engine of its kind is the pick whatever the monitor
            // and its breaker say (the all-breakers-open rule above), so
            // the monitor lock is not worth taking
            return Ok(candidates.remove(0));
        }
        self.monitor
            .lock()
            .cheapest_healthy_engine(&candidates, class)
            .ok_or_else(|| {
                BigDawgError::NotFound(format!("an engine of kind `{kind}` in the federation"))
            })
    }

    /// The engine kind of a registered engine.
    pub fn kind_of(&self, engine: &str) -> Result<EngineKind> {
        Ok(self.engine_entry(engine)?.kind)
    }

    /// The emulated wire latency between the coordinator and `engine`
    /// (zero = co-resident; see [`Shim::wire_latency`]). Unknown engines
    /// read as co-resident so planning never fails on a metadata probe.
    pub fn wire_of(&self, engine: &str) -> Duration {
        self.engine_entry(engine)
            .map_or(Duration::ZERO, |slot| slot.wire)
    }

    /// True when `engine` shares the coordinator's process — the condition
    /// under which CAST may hand columns over by `Arc` instead of encoding
    /// them ([`Transport::ZeroCopy`]).
    pub fn co_resident(&self, engine: &str) -> bool {
        self.wire_of(engine).is_zero()
    }

    // ---- catalog -----------------------------------------------------------

    /// The federation catalog (object → engine placement).
    pub fn catalog(&self) -> &RwLock<Catalog> {
        &self.catalog
    }

    /// Register (or refresh) an object's location.
    pub fn register_object(&self, object: &str, engine: &str, kind: ObjectKind) -> Result<()> {
        if !self.engines.contains_key(engine) {
            return Err(BigDawgError::NotFound(format!("engine `{engine}`")));
        }
        self.catalog.write().register(object, engine, kind);
        Ok(())
    }

    /// Re-scan all shims and register any objects the catalog is missing
    /// (native queries may create objects behind the catalog's back), after
    /// reaping whatever orphans their engines now let go. The full scan —
    /// for set-up code and tests. A statement running through an island
    /// rescans only the engine it ran on ([`BigDawg::refresh_engine`]).
    pub fn refresh_catalog(&self) {
        // reap first: untracked copies whose engines now allow the drop
        // disappear before the scan can see them
        self.reap_orphans();
        for slot in self.engines.values() {
            self.refresh_engine(slot.shim.lock().as_ref());
        }
    }

    /// Register the objects `shim`'s engine holds that the catalog is
    /// missing. The caller holds the engine's lock — `shim` is the
    /// proof — so registration happens under it: a concurrent
    /// `drop_object` either already removed the copy (the scan doesn't see
    /// it, and the entry is still cataloged until the deletion unregisters
    /// it) or is blocked on the engine lock until this registration lands,
    /// after which its unregister removes the entry — a half-deleted
    /// object can never be resurrected as a ghost. Orphaned copies (see
    /// `orphans`) are never re-registered: their contents predate a move
    /// or a write. The common case — nothing new — takes the catalog's
    /// *read* lock only.
    pub(crate) fn refresh_engine(&self, shim: &dyn Shim) {
        let mut missing = shim.object_names();
        {
            let cat = self.catalog.read();
            missing.retain(|obj| !cat.contains(obj));
        }
        if missing.is_empty() {
            return;
        }
        let (name, kind) = (shim.engine_name(), default_kind(shim.kind()));
        let orphans = self.orphans.lock();
        let mut cat = self.catalog.write();
        for obj in missing {
            if !cat.contains(&obj) && !orphans.contains(&(name.to_string(), obj.clone())) {
                cat.register(&obj, name, kind);
            }
        }
    }

    /// Drop the orphaned copies (undroppable migration sources, skipped
    /// stale replicas) whose engines now allow it. Called where orphans
    /// are made — a placement, a write's cleanup — and by the full
    /// [`BigDawg::refresh_catalog`]; free when there are none. Each reap
    /// holds the object's in-flight placement mark so it cannot race a
    /// placement that is about to legitimize a fresh copy under the same
    /// name.
    fn reap_orphans(&self) {
        let orphaned: Vec<(String, String)> = {
            let orphans = self.orphans.lock();
            if orphans.is_empty() {
                return;
            }
            orphans.iter().cloned().collect()
        };
        for (engine, object) in &orphaned {
            let Ok(_in_flight) = self.begin_placement(object) else {
                continue; // a placement is running; reap on a later pass
            };
            if self.catalog.read().located_on(object, engine) {
                // a placement re-legitimized this copy; it is tracked again
                self.clear_orphan(engine, object);
                continue;
            }
            match self.engine(engine).map(|e| e.lock().drop_object(object)) {
                Ok(Err(e)) if !matches!(e, BigDawgError::NotFound(_)) => {} // still refusing
                _ => self.clear_orphan(engine, object),
            }
        }
    }

    /// Which engine holds the authoritative (primary) copy of `object`.
    pub fn locate(&self, object: &str) -> Result<String> {
        Ok(self.catalog.read().locate(object)?.engine.clone())
    }

    /// The full placement of `object`: primary engine, replicas, kind, and
    /// placement epoch, as one consistent snapshot.
    pub fn placement(&self, object: &str) -> Result<ObjectEntry> {
        Ok(self.catalog.read().locate(object)?.clone())
    }

    /// True when `engine` holds a copy of `object` (primary or replica) —
    /// the planner's co-location test.
    pub fn located_on(&self, object: &str, engine: &str) -> bool {
        self.catalog.read().located_on(object, engine)
    }

    /// The placement epoch of `object` (advances on every migration,
    /// replication, or write invalidation; never goes backwards).
    pub fn placement_epoch(&self, object: &str) -> Result<u64> {
        self.catalog.read().epoch(object)
    }

    // ---- CAST ---------------------------------------------------------------

    /// Generate a unique temp object name.
    pub fn temp_name(&self) -> String {
        format!(
            "__cast_{}",
            self.temp_counter.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Move a copy of `object` to `to_engine` under `new_name`.
    ///
    /// The read side resolves through the catalog's placements: when a
    /// migrator-placed replica already lives on `to_engine`, the copy is
    /// local (no emulated/remote round-trip to the primary). A genuine
    /// remote ship is recorded into the monitor's per-object demand
    /// counters, feeding the migrator's hot set. Placement can change
    /// underneath a racing query (a concurrent move drops the source copy
    /// after this method resolved it); a not-found read re-resolves and
    /// retries rather than failing the query.
    pub fn cast_object(
        &self,
        object: &str,
        to_engine: &str,
        new_name: &str,
        transport: Transport,
    ) -> Result<CastReport> {
        let pushdown = exec::LeafPushdown::default();
        self.cast_object_attempts(object, to_engine, new_name, transport, true, &pushdown)
            .map(|(report, ..)| report)
    }

    /// [`BigDawg::cast_object`] plus the number of retries the winning
    /// attempt consumed (0 = first try) — the per-leaf retry count
    /// `EXPLAIN ANALYZE` reports. `pushdown` carries the rewrites the
    /// optimizer planted below this CAST boundary; they are applied to the
    /// rows before wire encoding, and the reason any of them was skipped
    /// comes back third (see [`plan::apply_pushdown`]). `record_demand` is
    /// off for the monitor's own measurement copies (`probe`), which must
    /// not masquerade as workload demand: placement reacts to queries, not
    /// to the monitor measuring itself.
    pub(crate) fn cast_object_attempts(
        &self,
        object: &str,
        to_engine: &str,
        new_name: &str,
        transport: Transport,
        record_demand: bool,
        pushdown: &exec::LeafPushdown,
    ) -> Result<(CastReport, u32, Vec<&'static str>)> {
        let observer = self.retry_observer("cast");
        // each retry attempt re-runs the whole cast — re-resolving the
        // placement and re-sweeping the surviving copies, so an engine
        // that recovered (or a breaker that opened) changes the next
        // attempt's routing
        retry::with_retry_observed(
            &self.retry_policy(),
            retry::stable_hash(object),
            Some(&observer),
            |attempt| {
                self.cast_once(
                    object,
                    to_engine,
                    new_name,
                    transport,
                    record_demand,
                    pushdown,
                )
                .map(|(report, skipped)| (report, attempt, skipped))
            },
        )
    }

    /// The observability hooks a retry loop in this federation reports to.
    pub(crate) fn retry_observer(&self, scope: &'static str) -> RetryObserver<'_> {
        RetryObserver {
            tracer: &self.tracer,
            metrics: &self.metrics,
            scope,
        }
    }

    /// One data-plane shim call (`get_table`/`put_table`/`execute_native`,
    /// or an island's gather on the downcast engine) with all its
    /// bookkeeping in one place — with [`BigDawg::read_object`] on top of
    /// it, the only way the data plane reaches an engine. The call runs
    /// under the engine's lock inside `op`'s span labelled with the
    /// engine, is counted into the per-engine op counters, and feeds the
    /// engine's circuit breaker — success closes it, a transient failure
    /// counts against it (and into the failure counter, mirroring the
    /// breaker 1:1), any other error (a `not_found` placement race, a
    /// rejected statement, a cancelled hop) is counted but says nothing
    /// about the engine's health.
    ///
    /// The engine's mutex covers the engine's own execution and nothing
    /// else: a request that crosses the wire pays its hop *before* the
    /// lock is taken ([`latency::prepay`]), so one client's network wait
    /// never serialises another's. Time spent acquiring the lock is
    /// recorded per engine (`bigdawg_engine_lock_wait_microseconds`).
    pub(crate) fn engine_call<T>(
        &self,
        engine: &str,
        op: EngineOp,
        call: impl FnOnce(&mut dyn Shim) -> Result<T>,
    ) -> Result<T> {
        let slot = self.engine_entry(engine)?;
        let result = {
            let _span = self.tracer.span(op.span(), engine);
            let hop = if op.crosses_wire() {
                slot.wire
            } else {
                Duration::ZERO
            };
            latency::prepay(hop).and_then(|_credit| {
                let asked = Instant::now();
                let mut shim = slot.shim.lock();
                let waited = asked.elapsed();
                add_lock_wait(waited);
                slot.lock_wait.record(waited);
                call(shim.as_mut())
            })
        };
        let labels = [("engine", engine), ("op", op.label())];
        self.metrics
            .counter(&labeled("bigdawg_engine_ops_total", &labels))
            .inc();
        match &result {
            Ok(_) => self.breakers.record_success(engine),
            Err(e) if retry::is_transient(e) => {
                self.metrics
                    .counter(&labeled("bigdawg_engine_op_failures_total", &labels))
                    .inc();
                self.breakers.record_failure(engine);
            }
            Err(_) => {}
        }
        result
    }

    /// Ship `batch` and land it on `to_engine` as `name` — the one write
    /// path CAST, sub-query materialization and placement copies share.
    /// `wire` is the source side's payload leg (the request round-trip was
    /// paid by the read's `engine_call`); the binary transport pipelines it
    /// chunk-by-chunk, the file transport pays it flat. Zero-copy cannot
    /// reach a target behind a wire, whatever the source side looks like
    /// (the in-flight degrade in `ship_with_wire` only sees the source's
    /// wire), so it falls back to the binary codec here.
    fn land(
        &self,
        batch: &Batch,
        to_engine: &str,
        name: &str,
        transport: Transport,
        wire: Duration,
    ) -> Result<CastReport> {
        let transport = if transport == Transport::ZeroCopy && !self.co_resident(to_engine) {
            Transport::Binary
        } else {
            transport
        };
        let (shipped, report) = ship_with_wire_traced(batch, transport, wire, &self.tracer)?;
        self.engine_call(to_engine, EngineOp::Write, |shim| {
            shim.put_table(name, shipped)
        })?;
        Ok(report)
    }

    /// [`BigDawg::land`] for a CAST temporary: the landed copy is
    /// cataloged under its own name and the ship accumulates into the
    /// registry — cast count by transport, wire bytes, and the
    /// shipping-time histogram.
    fn land_temp(
        &self,
        batch: &Batch,
        to_engine: &str,
        name: &str,
        transport: Transport,
        wire: Duration,
    ) -> Result<CastReport> {
        let report = self.land(batch, to_engine, name, transport, wire)?;
        self.metrics
            .counter(&labeled(
                "bigdawg_casts_total",
                &[("transport", &report.transport.to_string())],
            ))
            .inc();
        self.metrics
            .counter("bigdawg_wire_bytes_total")
            .add(report.wire_bytes as u64);
        self.metrics
            .histogram("bigdawg_cast_duration_microseconds")
            .record(report.total());
        let kind = default_kind(self.kind_of(to_engine)?);
        self.catalog.write().register(name, to_engine, kind);
        Ok(report)
    }

    /// One cast attempt: read a copy (failing over across placements when
    /// the policy allows), ship, land, register.
    fn cast_once(
        &self,
        object: &str,
        to_engine: &str,
        new_name: &str,
        transport: Transport,
        record_demand: bool,
        pushdown: &exec::LeafPushdown,
    ) -> Result<(CastReport, Vec<&'static str>)> {
        let mut last = None;
        for _ in 0..3 {
            let (batch, source) = match self.read_object_copy(object, Some(to_engine)) {
                Ok(read) => read,
                Err(e @ BigDawgError::NotFound(_)) => {
                    // placement raced (the copy moved between resolve and
                    // read): re-resolve against the current catalog
                    last = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            // pushed-down rewrites run here, after the source read and
            // before wire encoding: filtered rows and pruned columns never
            // pay for codec, wire, or target ingest
            let (pushed, skipped) = plan::apply_pushdown(&batch, pushdown);
            for reason in &skipped {
                let labels = [("reason", *reason)];
                self.metrics
                    .counter(&labeled("bigdawg_pushdown_skipped_total", &labels))
                    .inc();
                self.tracer.event("exec.pushdown_skipped", reason);
            }
            let batch = pushed.unwrap_or(batch);
            let wire = self.wire_of(&source);
            let report = self.land_temp(&batch, to_engine, new_name, transport, wire)?;
            if record_demand && source != to_engine {
                self.monitor.lock().record_ship(object, to_engine);
            }
            return Ok((report, skipped));
        }
        Err(last.expect("loop exits early unless a read failed"))
    }

    /// Read one intact copy of `object` — the one door for "read a copy"
    /// outside a CAST (the D4M and Myria loaders, the monitor's probe):
    /// placements, failover sweep, hedging, breaker feedback, op counters,
    /// the `cast.egress` span and the deadline check come with it.
    pub(crate) fn read_object(&self, object: &str) -> Result<Batch> {
        self.read_object_copy(object, None).map(|(batch, _)| batch)
    }

    /// Read one intact copy of `object`, returning the batch and which
    /// engine served it.
    ///
    /// Source preference: a copy co-located with `prefer` (no wire), then
    /// the primary, then the replicas — with breaker-refused engines
    /// demoted to last resorts. Under a failover-enabled policy every
    /// surviving placement is attempted in that order; a transient failure
    /// feeds the source's circuit breaker and the sweep moves on. With
    /// failover disabled only the first preference is tried, which is
    /// exactly the pre-fault-tolerance behavior.
    ///
    /// Error contract: if every attempted copy failed transiently the
    /// error names *all* attempted engines (so an operator sees the whole
    /// blast radius); if all misses were `not_found` the race surfaces as
    /// `not_found` for the caller's re-resolve loop.
    fn read_object_copy(&self, object: &str, prefer: Option<&str>) -> Result<(Batch, String)> {
        deadline::check_current()?;
        let entry = self.placement(object)?;
        let policy = self.retry_policy();
        let mut candidates: Vec<String> = Vec::new();
        if let Some(p) = prefer {
            if entry.located_on(p) {
                candidates.push(p.to_string());
            }
        }
        for loc in entry.locations() {
            if !candidates.iter().any(|c| c == loc) {
                candidates.push(loc.to_string());
            }
        }
        if !policy.failover {
            candidates.truncate(1);
        } else if candidates.len() > 1 {
            // stable partition: breaker-admitted sources keep their
            // preference order, refused ones become last resorts (still
            // attempted — a sweep must never fail without trying every
            // surviving copy)
            let (admitted, refused): (Vec<String>, Vec<String>) = candidates
                .into_iter()
                .partition(|c| self.breakers.allowed(c));
            candidates = admitted;
            candidates.extend(refused);
        }
        let mut failures: Vec<(String, BigDawgError)> = Vec::new();
        let mut last_not_found = None;
        let mut start = 0;
        if policy.hedging && candidates.len() >= 2 {
            // hedge only once the preferred source has a trustworthy tail
            // estimate; a cold board reads plain
            if let Some(threshold) = self.latency_board.read_p99(&candidates[0], READ_CLASS) {
                start = 2;
                match self.read_hedged(object, &candidates[0], &candidates[1], threshold) {
                    Ok(won) => return Ok(won),
                    Err(racer_failures) => {
                        for (source, e) in racer_failures {
                            match e {
                                e @ (BigDawgError::DeadlineExceeded(_)
                                | BigDawgError::Cancelled(_)) => return Err(e),
                                e @ BigDawgError::NotFound(_) => last_not_found = Some(e),
                                e => failures.push((source, e)),
                            }
                        }
                    }
                }
            }
        }
        for source in &candidates[start..] {
            match self.read_one_copy(object, source) {
                Ok(batch) => return Ok((batch, source.clone())),
                // a cancelled or over-budget query must unwind as exactly
                // that — never diluted into an aggregate execution error
                // (which would read as transient and be retried)
                Err(e @ (BigDawgError::DeadlineExceeded(_) | BigDawgError::Cancelled(_))) => {
                    return Err(e)
                }
                Err(e @ BigDawgError::NotFound(_)) => last_not_found = Some(e),
                Err(e) => failures.push((source.clone(), e)),
            }
        }
        match (failures.len(), last_not_found) {
            (0, Some(nf)) => Err(nf),
            (0, None) => Err(BigDawgError::NotFound(format!(
                "a readable copy of `{object}`"
            ))),
            (1, None) if candidates.len() == 1 => Err(failures.pop().expect("one failure").1),
            _ => Err(BigDawgError::Execution(format!(
                "read of `{object}` failed on every attempted copy: {}",
                failures
                    .iter()
                    .map(|(engine, e)| summarize_failure(engine, e))
                    .collect::<Vec<_>>()
                    .join("; ")
            ))),
        }
    }

    /// Read `object` from one specific engine; a success also feeds the
    /// read-latency board that drives hedging thresholds.
    fn read_one_copy(&self, object: &str, source: &str) -> Result<Batch> {
        let started = Instant::now();
        let read = self.engine_call(source, EngineOp::Read, |shim| shim.get_table(object))?;
        self.latency_board
            .record_read(source, READ_CLASS, started.elapsed());
        Ok(read)
    }

    /// A hedged replica read: start the preferred copy, and if it has not
    /// answered within `threshold` (the board's p99 for that engine),
    /// race a second copy — first result wins, the loser's token is
    /// cancelled so its emulated wire sleeps unwind instead of running to
    /// completion.
    ///
    /// Each racer runs under a child context that *shares the parent's
    /// deadline* (so an expiring budget fails both racers fast) but
    /// carries its own token (so cancelling the loser cannot cancel the
    /// query). On a double failure the racers' errors are returned for
    /// the caller's ordinary sweep to aggregate.
    fn read_hedged(
        &self,
        object: &str,
        primary: &str,
        hedge: &str,
        threshold: Duration,
    ) -> std::result::Result<(Batch, String), Vec<(String, BigDawgError)>> {
        use std::sync::mpsc;
        let parent_deadline = deadline::current().and_then(|c| c.deadline().cloned());
        let racer_ctx =
            |token: Arc<CancelToken>| QueryContext::with_token(token, parent_deadline.clone());
        let primary_token = CancelToken::new();
        let hedge_token = CancelToken::new();
        let mut failures: Vec<(String, BigDawgError)> = Vec::new();
        let result = std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            {
                let tx = tx.clone();
                let ctx = racer_ctx(Arc::clone(&primary_token));
                let source = primary.to_string();
                s.spawn(move || {
                    let _g = deadline::enter(ctx);
                    let outcome = self.read_one_copy(object, &source);
                    let _ = tx.send((source, outcome));
                });
            }
            let first = match rx.recv_timeout(threshold) {
                Ok(msg) => Some(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("the primary racer always sends")
                }
            };
            if let Some((source, outcome)) = first {
                // the primary resolved inside its p99: no race needed; a
                // fast failure falls through to a plain read of the
                // would-be hedge copy
                match outcome {
                    Ok(batch) => return Ok((batch, source)),
                    Err(e) => failures.push((source, e)),
                }
                match self.read_one_copy(object, hedge) {
                    Ok(batch) => return Ok((batch, hedge.to_string())),
                    Err(e) => {
                        failures.push((hedge.to_string(), e));
                        return Err(());
                    }
                }
            }
            // slow primary: race the second copy
            if let Some(ctx) = deadline::current() {
                ctx.note_hedge_launched();
            }
            self.metrics.counter("bigdawg_hedge_launched_total").inc();
            {
                let tx = tx.clone();
                let ctx = racer_ctx(Arc::clone(&hedge_token));
                let source = hedge.to_string();
                s.spawn(move || {
                    let _g = deadline::enter(ctx);
                    let outcome = self.read_one_copy(object, &source);
                    let _ = tx.send((source, outcome));
                });
            }
            for _ in 0..2 {
                let (source, outcome) = rx.recv().expect("both racers send exactly once");
                match outcome {
                    Ok(batch) => {
                        // first success wins; the loser is cancelled so
                        // its wire sleeps wake instead of running out
                        primary_token.cancel(CancelCause::User);
                        hedge_token.cancel(CancelCause::User);
                        if source == hedge {
                            if let Some(ctx) = deadline::current() {
                                ctx.note_hedge_win();
                            }
                            self.metrics.counter("bigdawg_hedge_wins_total").inc();
                        }
                        return Ok((batch, source));
                    }
                    Err(e) => failures.push((source, e)),
                }
            }
            Err(())
        });
        match result {
            Ok(won) => Ok(won),
            Err(()) => Err(failures),
        }
    }

    /// Materialize an intermediate result batch on an engine (SCOPE's
    /// nested CAST sub-queries), returning the ship's report plus the
    /// retry count of the winning attempt — the sub-query leg of `EXPLAIN
    /// ANALYZE`'s per-leaf retry count. Untyped result columns are
    /// narrowed to their value types first ([`Batch::narrow_types`]) so
    /// strictly typed target engines accept them.
    pub(crate) fn materialize(
        &self,
        batch: Batch,
        to_engine: &str,
        name: &str,
        transport: Transport,
    ) -> Result<(CastReport, u32)> {
        let batch = batch.narrow_types();
        let observer = self.retry_observer("materialize");
        retry::with_retry_observed(
            &self.retry_policy(),
            retry::stable_hash(name),
            Some(&observer),
            |attempt| {
                self.land_temp(&batch, to_engine, name, transport, Duration::ZERO)
                    .map(|report| (report, attempt))
            },
        )
    }

    /// Drop an object everywhere: every copy the catalog tracks (primary
    /// *and* replicas) plus the catalog entry. Temp cleanup path. Deletion
    /// is a placement change, so it takes the object's in-flight mark
    /// (mutually exclusive with migrations/replications of the object).
    ///
    /// Ordering matters for ghost-freedom: engine copies go first (refused
    /// replica drops are orphan-marked), the catalog entry last — so at
    /// every instant a copy [`BigDawg::refresh_catalog`] could observe is
    /// either still cataloged or already orphan-marked, never registrable.
    pub fn drop_object(&self, object: &str) -> Result<()> {
        let _in_flight = self.begin_placement(object)?;
        let entry = self.placement(object)?;
        self.engine(&entry.engine)?.lock().drop_object(object)?;
        for replica in &entry.replicas {
            self.drop_or_orphan(replica, object);
        }
        self.catalog.write().unregister(object);
        Ok(())
    }

    // ---- migration (see `crate::migrate` for the policy engine) -------------

    /// Mark a placement of `object` in flight. At most one placement per
    /// object runs at a time: without this, two placements racing to the
    /// same target could have the loser's abort-cleanup drop the copy the
    /// winner just committed. Losers get an error and retry on the next
    /// cycle if demand persists. The returned guard releases the mark on
    /// drop (panic-safe).
    fn begin_placement(&self, object: &str) -> Result<PlacementGuard<'_>> {
        if !self.placements_in_flight.lock().insert(object.to_string()) {
            return Err(BigDawgError::Execution(format!(
                "a placement of `{object}` is already in flight"
            )));
        }
        Ok(PlacementGuard {
            bd: self,
            object: object.to_string(),
        })
    }

    /// Record an untracked engine copy the catalog must never resurrect.
    fn note_orphan(&self, engine: &str, object: &str) {
        self.orphans
            .lock()
            .insert((engine.to_string(), object.to_string()));
    }

    /// A copy on `engine` became legitimate again (a placement landed
    /// fresh data there under the same name): stop treating it as orphaned.
    fn clear_orphan(&self, engine: &str, object: &str) {
        self.orphans
            .lock()
            .remove(&(engine.to_string(), object.to_string()));
    }

    /// Drop an untracked copy from an engine; if the engine refuses while
    /// still holding it, record the copy as an orphan so the catalog never
    /// resurrects it. A not-found outcome means nothing lingers — no
    /// orphan.
    fn drop_or_orphan(&self, engine: &str, object: &str) {
        match self.engine(engine).map(|e| e.lock().drop_object(object)) {
            Ok(Ok(())) | Ok(Err(BigDawgError::NotFound(_))) | Err(_) => {}
            Ok(Err(_)) => self.note_orphan(engine, object),
        }
    }

    /// Migrate `object`'s primary to another engine (monitor-driven): copy
    /// through CAST, commit the catalog relocation, drop the source. The
    /// object keeps its name.
    ///
    /// The protocol is copy-then-commit, so a failure at any point leaves
    /// the catalog pointing at an intact copy:
    ///
    /// 1. **Copy.** Read the source, ship, write the target. A failure here
    ///    aborts with the catalog untouched (a partial target object is
    ///    dropped best-effort). If the target already holds a replica the
    ///    copy is skipped — promotion.
    /// 2. **Commit.** Under the catalog write lock, verify the placement
    ///    epoch did not advance since step 1 (a concurrent write or
    ///    migration would have bumped it — committing would install
    ///    pre-write data, so the move aborts and the target copy is
    ///    dropped). Then relocate the primary.
    /// 3. **Cleanup.** Drop the source copy. If the source engine refuses
    ///    (it may have failed), the copy is left behind as an
    ///    *unreferenced* orphan: the catalog never routes to it, and it is
    ///    deliberately not registered as a replica because a write racing
    ///    the commit window may have touched it.
    ///
    /// Placements of the same object are mutually exclusive (a concurrent
    /// one fails fast with an `execution` error).
    pub fn migrate_object(
        &self,
        object: &str,
        to_engine: &str,
        transport: Transport,
    ) -> Result<CastReport> {
        self.place(object, to_engine, transport, Placement::Move)
    }

    /// Place an identical copy of `object` on `to_engine`, keeping the
    /// primary where it is. Future queries gathering on `to_engine` resolve
    /// to the co-located copy and skip the CAST round-trip entirely; a
    /// write to the object invalidates the copy ([`BigDawg::note_write`]).
    ///
    /// Fault-safe the same way as [`BigDawg::migrate_object`]: the replica
    /// is registered only after the copy fully lands, and only if the
    /// placement epoch did not advance during the copy (otherwise the copy
    /// may predate a concurrent write and is discarded). Placements of the
    /// same object are mutually exclusive.
    pub fn replicate_object(
        &self,
        object: &str,
        to_engine: &str,
        transport: Transport,
    ) -> Result<CastReport> {
        self.place(object, to_engine, transport, Placement::Replica)
    }

    /// The copy-then-commit protocol behind [`BigDawg::migrate_object`]
    /// and [`BigDawg::replicate_object`]; the two differ only in the
    /// commit (`relocate` vs `add_replica`), one pre-check, and the
    /// move's promotion short-cut and source drop.
    fn place(
        &self,
        object: &str,
        to_engine: &str,
        transport: Transport,
        how: Placement,
    ) -> Result<CastReport> {
        // before taking the object's mark: a reap of this object's own
        // orphan needs it
        self.reap_orphans();
        let _in_flight = self.begin_placement(object)?;
        let (verb, noun, aborted, label) = how.words();
        let entry = self.placement(object)?;
        if how == Placement::Move && entry.engine == to_engine {
            return Err(BigDawgError::Execution(format!(
                "object `{object}` already lives on `{to_engine}`"
            )));
        }
        if entry.kind.is_pinned() {
            return Err(BigDawgError::Unsupported(format!(
                "{} `{object}` is bound to its engine and cannot {verb}",
                entry.kind
            )));
        }
        if how == Placement::Replica && entry.located_on(to_engine) {
            return Err(BigDawgError::Execution(format!(
                "`{to_engine}` already holds a copy of `{object}`"
            )));
        }
        self.engine(to_engine)?; // fail before copying if the target is unknown

        // 1. copy — skipped when a move promotes an existing replica
        let promoting = entry.located_on(to_engine);
        let report = if promoting {
            CastReport {
                rows: 0,
                wire_bytes: 0,
                encode: Duration::ZERO,
                transfer: Duration::ZERO,
                decode: Duration::ZERO,
                transport,
            }
        } else {
            let _copy_span = self
                .tracer
                .span("migrate.copy", format_args!("{object} -> {to_engine}"));
            let policy = self.retry_policy();
            let key = retry::stable_hash(object);
            let observer = self.retry_observer(verb);
            // the copy step retries under the federation policy: the read
            // sweeps the surviving placements (any intact copy is a valid
            // source — the commit's epoch guard rejects stale data), the
            // put retries against the same target
            let (batch, source) =
                retry::with_retry_observed(&policy, key, Some(&observer), |_| {
                    self.read_object_copy(object, None)
                })?;
            let wire = self.wire_of(&source);
            let landed = retry::with_retry_observed(&policy, key, Some(&observer), |_| {
                self.land(&batch, to_engine, object, transport, wire)
            });
            // abort: drop whatever partial state the target holds; the
            // catalog still points at the intact source
            let report = landed.inspect_err(|_| self.drop_or_orphan(to_engine, object))?;
            // a fresh copy just landed under this name: if an old orphan
            // lived here, it no longer does
            self.clear_orphan(to_engine, object);
            report
        };
        // every pre-commit abort below discards the copy this call landed
        // (a promoted replica was not ours to drop)
        let discard = || {
            if !promoting {
                self.drop_or_orphan(to_engine, object);
            }
        };

        // a cancellation (or deadline) observed between copy and commit
        // aborts *pre-commit*: the target copy is dropped, the catalog —
        // and therefore the epoch protocol — is untouched
        deadline::check_current().inspect_err(|_| discard())?;

        // 2. commit, guarded by the placement epoch
        {
            let _commit_span = self
                .tracer
                .span("migrate.commit", format_args!("{object} -> {to_engine}"));
            let mut cat = self.catalog.write();
            let now_epoch = cat.locate(object)?.epoch;
            if now_epoch != entry.epoch {
                drop(cat);
                discard();
                return Err(BigDawgError::Execution(format!(
                    "placement of `{object}` changed during {noun} \
                     (epoch {} -> {now_epoch}); {aborted}",
                    entry.epoch
                )));
            }
            match how {
                Placement::Move => cat.relocate(object, to_engine)?,
                Placement::Replica => cat.add_replica(object, to_engine)?,
            };
        }
        self.metrics
            .counter(&labeled("bigdawg_migrations_total", &[("kind", label)]))
            .inc();

        // 3. cleanup (moves only): drop the source copy. The move is
        // already committed, so a refusing source engine must not surface
        // as a failed migration; its undropped copy is left as an
        // *unreferenced* orphan — never registered as a replica, because a
        // write racing the commit window may have landed on (and been
        // refused from) exactly that copy, so its contents can no longer
        // be trusted to match the new primary. The orphan is recorded so
        // a rescan never resurrects it and `reap_orphans` drops it once
        // the engine allows.
        if how == Placement::Move {
            self.drop_or_orphan(&entry.engine, object);
        }
        Ok(report)
    }

    /// Record that `object` was written: advance its placement epoch, drop
    /// every replica (catalog first, then the engine copies, so no reader
    /// is routed to a stale copy), and reset the object's demand counters
    /// so the migrator re-places it only under fresh demand.
    ///
    /// The relational island's write path performs the catalog invalidation
    /// *inside* the primary engine's critical section (so no reader can
    /// observe the write and then a stale replica) and uses this method
    /// only for the cleanup half. Callers writing through other channels
    /// (e.g. direct `put_table`) should call this right after the write;
    /// native (degenerate-island) writes bypass the middleware and
    /// therefore also bypass invalidation, exactly as in the paper's
    /// deployment.
    pub fn note_write(&self, object: &str) -> Vec<String> {
        let stale = self.catalog.write().invalidate(object);
        self.drop_stale_copies(object, &stale);
        stale
    }

    /// Cleanup half of write invalidation: drop the engine copies the
    /// catalog no longer references and reset the object's demand counters.
    /// Runs after the write's critical section.
    ///
    /// A placement may have *re*-placed a fresh copy on one of these
    /// engines since the invalidation (the epoch guard admits copies read
    /// after the write) — dropping that would leave the catalog referencing
    /// a copy the engine no longer holds. So the drops run under the
    /// object's in-flight placement mark with the catalog re-checked per
    /// engine; if a placement is mid-flight, the stale copies are left
    /// behind as unreferenced orphans instead (the catalog no longer routes
    /// to them, and any future placement overwrites them).
    pub(crate) fn drop_stale_copies(&self, object: &str, stale: &[String]) {
        self.reap_orphans();
        if !stale.is_empty() {
            if self.placements_in_flight.lock().insert(object.to_string()) {
                let _guard = PlacementGuard {
                    bd: self,
                    object: object.to_string(),
                };
                let current: Vec<String> = self
                    .placement(object)
                    .map(|e| e.locations().map(String::from).collect())
                    .unwrap_or_default();
                for engine in stale {
                    if current.contains(engine) {
                        continue; // a fresh post-write copy landed here — keep it
                    }
                    self.drop_or_orphan(engine, object);
                }
            } else {
                // a placement is mid-flight: leave the stale copies behind
                // as orphans — never routed to, never resurrected, reaped
                // by the next write or placement (a placement landing fresh
                // data on one of these engines clears its mark)
                for engine in stale {
                    self.note_orphan(engine, object);
                }
            }
        }
        self.monitor.lock().reset_ships(object);
    }

    /// Move `object`'s primary to `to_engine` over the columnar binary
    /// transport — the manual migration entry point.
    pub fn migrate(&self, object: &str, to_engine: &str) -> Result<CastReport> {
        self.migrate_object(object, to_engine, Transport::Binary)
    }

    /// Replicate `object` onto `to_engine` over the columnar binary
    /// transport — the manual replication entry point.
    pub fn replicate(&self, object: &str, to_engine: &str) -> Result<CastReport> {
        self.replicate_object(object, to_engine, Transport::Binary)
    }

    /// Enable (`Some(policy)`) or disable (`None`) automatic monitor-driven
    /// placement: with a policy set, every top-level query is followed by a
    /// [`Migrator`] cycle that replicates/moves the monitor's hot objects so
    /// repeat workloads converge onto co-located copies.
    pub fn set_auto_migrate(&self, policy: Option<MigrationPolicy>) {
        *self.auto_migrate.write() = policy;
    }

    /// The currently configured auto-migration policy, if any.
    pub fn auto_migrate_policy(&self) -> Option<MigrationPolicy> {
        *self.auto_migrate.read()
    }

    /// Run one auto-migration cycle if a policy is set and no other cycle
    /// is in flight. Called after every top-level query; cheap when the hot
    /// set is empty.
    pub(crate) fn maybe_auto_migrate(&self) {
        let Some(policy) = self.auto_migrate_policy() else {
            return;
        };
        if self
            .migration_active
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread is already migrating
        }
        // guard, not a trailing store: a panicking shim mid-cycle must not
        // leave the flag set and silently disable auto-migration forever
        let _cycle = CycleGuard(&self.migration_active);
        Migrator::new(policy).run_cycle(self);
    }

    // ---- queries ------------------------------------------------------------

    /// Execute a SCOPE/CAST query: `ISLAND( body with optional CAST(...) )`.
    ///
    /// CAST terms are materialized concurrently by the scatter-gather
    /// executor ([`crate::exec`]); use [`BigDawg::execute_serial`] for the
    /// one-at-a-time reference schedule. When auto-migration is enabled
    /// ([`BigDawg::set_auto_migrate`]), a migrator cycle follows the query.
    ///
    /// When a deadline ([`BigDawg::set_deadline`]) or admission gate
    /// ([`BigDawg::set_admission`]) is configured, the query runs under a
    /// [`QueryContext`] every blocking point checks; see
    /// [`BigDawg::execute_with`] for caller-side cancellation.
    pub fn execute(&self, query: &str) -> Result<Batch> {
        self.run_query("parallel", None, || exec::execute(self, query))
            .0
    }

    /// Execute a SCOPE/CAST query materializing CAST terms serially — the
    /// reference schedule the federation benchmark compares against. Also
    /// triggers auto-migration, like [`BigDawg::execute`], and runs under
    /// the same deadline and admission gate.
    pub fn execute_serial(&self, query: &str) -> Result<Batch> {
        self.run_query("serial", None, || scope::execute(self, query))
            .0
    }

    /// Like [`BigDawg::execute`], but also returns the executed plan
    /// annotated with measured per-leaf wall time, rows, wire bytes, the
    /// transport actually used, retry counts, and — when the overload
    /// machinery is on — admission queue wait, hedged-read outcomes, and
    /// remaining deadline slack: `EXPLAIN ANALYZE` for the federation.
    pub fn execute_analyzed(&self, query: &str) -> Result<(Batch, exec::AnalyzedPlan)> {
        let (result, ctx) =
            self.run_query("parallel", None, || exec::execute_analyzed(self, query));
        result.map(|(batch, mut plan)| {
            if let Some(ctx) = ctx {
                plan.queue_wait = ctx.queue_wait();
                plan.hedge = ctx.hedge_stats();
                plan.deadline_slack = ctx.deadline().map(|d| (d.remaining(), d.budget()));
            }
            (batch, plan)
        })
    }

    /// Run one top-level query under a fresh [`QueryContext`]: arm the
    /// configured deadline, pass the admission gate, install the context
    /// for the duration of `f`, and fold context state (slowest leaf,
    /// deadline cause) into the final error. A call that is already inside
    /// a query context (a leaf's nested sub-query) inherits the outer
    /// context untouched — re-entering the admission gate from inside an
    /// admitted query would deadlock it against itself.
    fn run_query<T>(
        &self,
        schedule: &'static str,
        token: Option<Arc<CancelToken>>,
        f: impl FnOnce() -> Result<T>,
    ) -> (Result<T>, Option<Arc<QueryContext>>) {
        if deadline::current().is_some() {
            return (f(), None);
        }
        let started = std::time::Instant::now();
        let clock = self.query_clock();
        let budget = *self.deadline_budget.read();
        let armed = budget.map(|b| Deadline::after(Arc::clone(&clock), b));
        let ctx = QueryContext::with_token(token.unwrap_or_default(), armed);
        let admission = self.admission.read().clone();
        let permit = match admission.as_deref() {
            Some(gate) => {
                let queue_span = self.tracer.span("admission.queue", schedule);
                match gate.admit(&ctx, clock.as_ref()) {
                    Ok(permit) => {
                        drop(queue_span);
                        Some(permit)
                    }
                    Err(e) => {
                        drop(queue_span);
                        let e = self.finish_query_error(e, &ctx);
                        self.record_query_metrics(schedule, started, false);
                        return (Err(e), Some(ctx));
                    }
                }
            }
            None => None,
        };
        let guard = deadline::enter(Arc::clone(&ctx));
        let result = f();
        drop(guard);
        drop(permit);
        let result = result.map_err(|e| self.finish_query_error(e, &ctx));
        self.record_query_metrics(schedule, started, result.is_ok());
        self.maybe_auto_migrate();
        (result, Some(ctx))
    }

    /// Final bookkeeping on a query-level error: a deadline error is
    /// counted, named after the slowest leaf observed (the usual culprit),
    /// and emitted as an `exec.deadline` trace event.
    fn finish_query_error(&self, e: BigDawgError, ctx: &QueryContext) -> BigDawgError {
        match e {
            BigDawgError::DeadlineExceeded(msg) => {
                self.metrics
                    .counter("bigdawg_deadline_exceeded_total")
                    .inc();
                let msg = match ctx.slowest_leaf() {
                    Some((leaf, wall)) => format!("{msg}; slowest leaf: {leaf} ({wall:?})"),
                    None => msg,
                };
                self.tracer.event("exec.deadline", format_args!("{msg}"));
                BigDawgError::DeadlineExceeded(msg)
            }
            other => other,
        }
    }

    /// Run the query and return only the annotated plan (the result batch
    /// is discarded) — the `EXPLAIN ANALYZE` convenience form. Unlike
    /// [`BigDawg::explain`] this *executes* the query; the annotations are
    /// measurements, not estimates.
    pub fn explain_analyze(&self, query: &str) -> Result<exec::AnalyzedPlan> {
        self.execute_analyzed(query).map(|(_batch, plan)| plan)
    }

    /// One query's worth of registry bookkeeping.
    fn record_query_metrics(&self, schedule: &str, started: std::time::Instant, ok: bool) {
        self.metrics
            .counter(&labeled("bigdawg_queries_total", &[("schedule", schedule)]))
            .inc();
        if !ok {
            self.metrics
                .counter(&labeled(
                    "bigdawg_query_failures_total",
                    &[("schedule", schedule)],
                ))
                .inc();
        }
        self.metrics
            .histogram("bigdawg_query_duration_microseconds")
            .record(started.elapsed());
    }

    /// Decompose a SCOPE/CAST query into its scatter-gather [`exec::Plan`]
    /// without running it — `EXPLAIN` for the federation. The plan's
    /// `Display` impl renders the DAG; when a result cache is installed
    /// the plan also carries (and renders) the cache's dry-run verdict —
    /// hit, miss, stale, or bypass — without serving or dropping anything.
    pub fn explain(&self, query: &str) -> Result<exec::Plan> {
        let ast = plan::parse_query(query)?;
        let mut plan = plan::plan_query(self, &ast, true)?;
        if let Some(cache) = self.result_cache() {
            plan.cache = Some(cache.probe(self, &ast.island, &ast.body.render()));
        }
        Ok(plan)
    }

    // ---- result cache ----------------------------------------------------------

    /// Install (or remove, with `None`) the epoch-validated result cache.
    ///
    /// Cacheable queries through [`BigDawg::execute`] /
    /// [`BigDawg::execute_analyzed`] are then served from memory as long
    /// as the placement epoch of every object they touch is unchanged;
    /// any write or migration bumps an epoch and the entry is dropped on
    /// its next read. [`BigDawg::execute_serial`] never consults the
    /// cache — the serial reference schedule stays an independent oracle.
    ///
    /// ```
    /// use bigdawg_core::{BigDawg, CachePolicy};
    /// use bigdawg_core::shims::RelationalShim;
    ///
    /// let mut bd = BigDawg::new();
    /// bd.add_engine(Box::new(RelationalShim::new("postgres")));
    /// bd.execute("POSTGRES(CREATE TABLE t (x INT))").unwrap();
    /// bd.execute("POSTGRES(INSERT INTO t VALUES (1), (2))").unwrap();
    /// bd.set_result_cache(Some(CachePolicy::admit_all()));
    ///
    /// let q = "RELATIONAL(SELECT COUNT(*) AS n FROM t)";
    /// let cold = bd.execute(q).unwrap(); // miss: computed, admitted
    /// let warm = bd.execute(q).unwrap(); // hit: zero-copy shared batch
    /// assert_eq!(cold.rows(), warm.rows());
    /// assert_eq!(bd.cache_stats().unwrap().hits, 1);
    /// ```
    pub fn set_result_cache(&self, policy: Option<CachePolicy>) {
        *self.result_cache.write() = policy.map(|p| Arc::new(QueryCache::new(p)));
    }

    /// The installed result cache, if any.
    pub fn result_cache(&self) -> Option<Arc<QueryCache>> {
        self.result_cache.read().clone()
    }

    /// Counter snapshot of the installed result cache (`None` when no
    /// cache is installed). The same numbers are exported live as
    /// `bigdawg_cache_*` samples in [`BigDawg::metrics`].
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.result_cache().map(|cache| cache.stats())
    }

    /// Execute a query on a named island directly (already-rewritten body).
    pub fn island_execute(&self, island: &str, body: &str) -> Result<Batch> {
        islands::dispatch(self, island, body)
    }

    /// The islands this federation exposes (Figure 1).
    pub fn island_names(&self) -> Vec<String> {
        islands::island_names(self)
    }

    // ---- overload & deadlines -------------------------------------------------

    /// Apply a per-query time budget to every top-level query (`None`
    /// disables). An over-budget query cancels its own token, so every
    /// worker, wire sleep, and retry backoff of that query unwinds
    /// cooperatively; the error names the slowest leaf. Budgets are
    /// measured against the federation's query clock
    /// ([`BigDawg::set_query_clock`]).
    pub fn set_deadline(&self, budget: Option<Duration>) {
        *self.deadline_budget.write() = budget;
    }

    /// The per-query deadline budget, if one is configured.
    pub fn deadline(&self) -> Option<Duration> {
        *self.deadline_budget.read()
    }

    /// Install (or remove, with `None`) the admission gate in front of
    /// the executor: at most `max_concurrent` queries run at once, at
    /// most `max_queue` wait (FIFO, each for at most `queue_budget`), and
    /// everything beyond that sheds deterministically with
    /// [`BigDawgError::Overloaded`] and a retry hint.
    pub fn set_admission(&self, config: Option<AdmissionConfig>) {
        *self.admission.write() =
            config.map(|c| Arc::new(AdmissionController::new(c, Arc::clone(&self.metrics))));
    }

    /// The installed admission configuration, if any.
    pub fn admission_config(&self) -> Option<AdmissionConfig> {
        self.admission.read().as_ref().map(|a| *a.config())
    }

    /// Counter snapshot of the admission gate (`None` when admission is
    /// off). The same numbers are exported as `bigdawg_admission_*`
    /// metrics.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.read().as_ref().map(|a| a.stats())
    }

    /// Replace the clock deadlines and queue budgets are measured
    /// against. Inject a [`bigdawg_common::ManualClock`] for overload
    /// tests that must not depend on wall time.
    pub fn set_query_clock(&self, clock: Arc<dyn Clock>) {
        *self.query_clock.write() = clock;
    }

    /// The clock deadlines and queue budgets are measured against.
    pub fn query_clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.query_clock.read())
    }

    /// A cancellation handle for use with [`BigDawg::execute_with`]: the
    /// holder can cancel the query from any thread while it runs.
    pub fn query_handle(&self) -> QueryHandle {
        QueryHandle {
            token: CancelToken::new(),
        }
    }

    /// [`BigDawg::execute`] under a caller-held [`QueryHandle`]:
    /// cancelling the handle — from any thread, at any point — makes
    /// every blocking point of the query unwind cooperatively with
    /// [`BigDawgError::Cancelled`], temporaries cleaned up.
    pub fn execute_with(&self, query: &str, handle: &QueryHandle) -> Result<Batch> {
        self.run_query("parallel", Some(Arc::clone(&handle.token)), || {
            exec::execute(self, query)
        })
        .0
    }

    /// [`BigDawg::execute`] with graceful degradation: when the full
    /// path is shed ([`BigDawgError::Overloaded`]), times out, or is
    /// cancelled — and the admission config opted into
    /// `degraded_reads` — the query is served from the result cache
    /// instead (stale entries allowed, and marked), with the unreachable
    /// leaves named in the metadata. Errors outside the overload family,
    /// or with degraded reads off, pass through unchanged.
    pub fn execute_degraded(&self, query: &str) -> Result<PartialResult> {
        let (result, ctx) = self.run_query("parallel", None, || exec::execute(self, query));
        let err = match result {
            Ok(batch) => return Ok(PartialResult::complete(batch)),
            Err(e) => e,
        };
        let degraded_on = self.admission_config().is_some_and(|c| c.degraded_reads);
        let sheddable = matches!(
            err,
            BigDawgError::Overloaded { .. }
                | BigDawgError::DeadlineExceeded(_)
                | BigDawgError::Cancelled(_)
        );
        if !degraded_on || !sheddable {
            return Err(err);
        }
        let unreachable = ctx.map(|c| c.unreachable()).unwrap_or_default();
        let ast = plan::parse_query(query)?;
        let served = self
            .result_cache()
            .and_then(|cache| cache.peek_degraded(self, &ast.island, &ast.body.render()));
        self.metrics
            .counter(&labeled(
                "bigdawg_degraded_total",
                &[("served", if served.is_some() { "cache" } else { "none" })],
            ))
            .inc();
        match served {
            Some((batch, stale)) => Ok(PartialResult {
                batch: Some(batch),
                complete: false,
                stale,
                unreachable,
                error: Some(err),
            }),
            None => Ok(PartialResult {
                batch: None,
                complete: false,
                stale: false,
                unreachable,
                error: Some(err),
            }),
        }
    }

    // ---- fault tolerance ------------------------------------------------------

    /// Install the federation-wide [`RetryPolicy`] governing transient
    /// failures: bounded retries with deterministic seeded backoff, a
    /// per-operation wall-clock budget, and replica failover for reads.
    /// The default is [`RetryPolicy::none`] (fail-fast, no failover), the
    /// exact pre-fault-tolerance behavior.
    ///
    /// ```
    /// use bigdawg_core::{BigDawg, RetryPolicy};
    ///
    /// let bd = BigDawg::new();
    /// bd.set_retry_policy(RetryPolicy::standard(42));
    /// assert!(!bd.retry_policy().is_fail_fast());
    /// ```
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.write() = policy;
    }

    /// The currently installed retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.read()
    }

    /// The circuit-breaker health of one engine: closed (healthy), open
    /// (sick — the planner routes around it), or half-open (probing),
    /// plus the current consecutive-failure streak. Engines that never
    /// failed — and unknown names — read as closed.
    pub fn engine_health(&self, engine: &str) -> EngineHealth {
        self.breakers.health(engine)
    }

    /// The shared circuit-breaker board — the same one the monitor's
    /// planner consults. Data paths record outcomes here directly so
    /// breaker bookkeeping never waits on (or deadlocks against) the
    /// monitor lock.
    pub fn breakers(&self) -> &BreakerBoard {
        &self.breakers
    }

    // ---- observability --------------------------------------------------------

    /// The federation-wide metrics registry: query/op/retry/breaker/cast
    /// counters and latency histograms. Render it with
    /// [`MetricsRegistry::render_prometheus`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The tracer every data-path span is emitted through. Disabled (and
    /// free) until a sink is installed via [`BigDawg::set_trace_sink`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Install a span sink and enable tracing. Pass a
    /// [`bigdawg_common::CollectingSink`] to capture the span tree.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        self.tracer.set_sink(sink);
    }

    /// Replace the tracer's clock — inject a [`bigdawg_common::TestClock`]
    /// for deterministic span timestamps in tests.
    pub fn set_trace_clock(&self, clock: Arc<dyn Clock>) {
        self.tracer.set_clock(clock);
    }

    // ---- monitor --------------------------------------------------------------

    /// The federation's monitor (workload recorder + cost model).
    pub fn monitor(&self) -> &Mutex<Monitor> {
        &self.monitor
    }
}

/// The query class replica reads are booked under on the latency board.
/// Object ships are row scans regardless of what the gather node computes,
/// so one class keeps the hedging histogram dense instead of splitting the
/// same physical operation across classes.
const READ_CLASS: QueryClass = QueryClass::SqlFilter;

/// How much of one engine's failure text survives into the aggregate
/// failover error.
const FAILURE_SNIPPET_CHARS: usize = 160;

/// One engine's failure rendered for the aggregate failover error: first
/// line only, bounded length, with an elision count. Failover errors can
/// nest (a retried cast wraps the previous sweep's aggregate), so quoting
/// messages verbatim grows the error geometrically across attempts — the
/// cap keeps it O(engines).
fn summarize_failure(engine: &str, e: &BigDawgError) -> String {
    let text = e.to_string();
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("").trim_end();
    let elided_lines = lines.count();
    let mut snippet: String = first.chars().take(FAILURE_SNIPPET_CHARS).collect();
    if first.chars().count() > FAILURE_SNIPPET_CHARS {
        snippet.push('…');
    }
    if elided_lines > 0 {
        format!("{engine} ({snippet} [+{elided_lines} more lines elided])")
    } else {
        format!("{engine} ({snippet})")
    }
}

fn default_kind(kind: EngineKind) -> ObjectKind {
    match kind {
        EngineKind::Relational => ObjectKind::Table,
        EngineKind::Array | EngineKind::TileStore => ObjectKind::Array,
        EngineKind::Streaming => ObjectKind::Stream,
        EngineKind::KeyValue => ObjectKind::Corpus,
        EngineKind::Compute => ObjectKind::Dataset,
    }
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
            .execute("INSERT INTO patients VALUES (1, 70), (2, 50)")
            .unwrap();
        bd.add_engine(Box::new(pg));
        let mut scidb = ArrayShim::new("scidb");
        scidb.store(
            "wave",
            Array::from_vector("wave", "v", &[1.0, 2.0, 3.0, 4.0], 2),
        );
        bd.add_engine(Box::new(scidb));
        bd
    }

    #[test]
    fn engines_and_catalog_autoregister() {
        let bd = federation();
        assert_eq!(bd.engine_names(), vec!["postgres", "scidb"]);
        assert_eq!(bd.locate("patients").unwrap(), "postgres");
        assert_eq!(bd.locate("wave").unwrap(), "scidb");
        assert_eq!(
            bd.engine_of_kind(EngineKind::Array).unwrap(),
            "scidb".to_string()
        );
        assert!(bd.engine_of_kind(EngineKind::Streaming).is_err());
    }

    #[test]
    fn cast_object_between_engines() {
        let bd = federation();
        let report = bd
            .cast_object("wave", "postgres", "wave_rel", Transport::Binary)
            .unwrap();
        assert_eq!(report.rows, 4);
        assert_eq!(bd.locate("wave_rel").unwrap(), "postgres");
        let b = bd
            .engine("postgres")
            .unwrap()
            .lock()
            .get_table("wave_rel")
            .unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(b.schema().names(), vec!["i", "v"]);
    }

    /// Every data-plane shim call books through `engine_call`: one op
    /// counted whatever the outcome, a failure counted (and the breaker
    /// fed) only when the error is transient, a success closing the
    /// breaker, and every other error neutral.
    #[test]
    fn engine_call_counts_ops_and_feeds_the_breaker() {
        let bd = federation();
        let value = |family: &str, op: &str| {
            bd.metrics()
                .counter_value(&labeled(family, &[("engine", "postgres"), ("op", op)]))
        };
        for op in [EngineOp::Read, EngineOp::Write, EngineOp::Native] {
            let op_label = op.label();
            // (outcome, failure-counter delta, breaker streak afterwards)
            for (outcome, failed, streak) in [
                ("ok", 0, 0),
                ("transient", 1, 2),
                ("not_found", 0, 1),
                ("non_transient", 0, 1),
            ] {
                // start from a streak of one, so an outcome that leaves the
                // breaker alone reads differently from one that closes it
                bd.breakers().record_success("postgres");
                bd.breakers().record_failure("postgres");
                let ops = value("bigdawg_engine_ops_total", op_label);
                let failures = value("bigdawg_engine_op_failures_total", op_label);
                let result = bd.engine_call("postgres", op, |_| match outcome {
                    "ok" => Ok(()),
                    "transient" => Err(BigDawgError::Execution("flaky".into())),
                    "not_found" => Err(BigDawgError::NotFound("gone".into())),
                    _ => Err(BigDawgError::Unsupported("no".into())),
                });
                assert_eq!(result.is_ok(), outcome == "ok", "{op:?}/{outcome}");
                assert_eq!(
                    value("bigdawg_engine_ops_total", op_label) - ops,
                    1,
                    "{op:?}/{outcome}"
                );
                assert_eq!(
                    value("bigdawg_engine_op_failures_total", op_label) - failures,
                    failed,
                    "{op:?}/{outcome}"
                );
                assert_eq!(
                    bd.engine_health("postgres").consecutive_failures,
                    streak,
                    "{op:?}/{outcome}"
                );
            }
        }
        // an unknown engine fails before anything is counted
        assert!(bd
            .engine_call("nowhere", EngineOp::Read, |_| Ok(()))
            .is_err());
        assert_eq!(
            bd.metrics()
                .counter_family_total("bigdawg_engine_ops_total"),
            12
        );
    }

    #[test]
    fn migrate_relocates_and_drops_source() {
        let bd = federation();
        bd.migrate_object("patients", "scidb", Transport::Binary)
            .unwrap();
        assert_eq!(bd.locate("patients").unwrap(), "scidb");
        assert!(bd
            .engine("postgres")
            .unwrap()
            .lock()
            .get_table("patients")
            .is_err());
        let arr_batch = bd
            .engine("scidb")
            .unwrap()
            .lock()
            .get_table("patients")
            .unwrap();
        assert_eq!(arr_batch.len(), 2);
        // migrating to the same engine is rejected
        assert!(bd
            .migrate_object("patients", "scidb", Transport::Binary)
            .is_err());
    }

    #[test]
    fn drop_object_cleans_catalog() {
        let bd = federation();
        bd.cast_object("wave", "postgres", "tmp", Transport::File)
            .unwrap();
        bd.drop_object("tmp").unwrap();
        assert!(bd.locate("tmp").is_err());
    }

    #[test]
    fn drop_object_removes_every_copy_and_refresh_cannot_resurrect() {
        let bd = federation();
        bd.replicate_object("wave", "postgres", Transport::Binary)
            .unwrap();
        bd.drop_object("wave").unwrap();
        assert!(bd.locate("wave").is_err());
        assert!(bd
            .engine("scidb")
            .unwrap()
            .lock()
            .get_table("wave")
            .is_err());
        assert!(bd
            .engine("postgres")
            .unwrap()
            .lock()
            .get_table("wave")
            .is_err());
        bd.refresh_catalog();
        assert!(bd.locate("wave").is_err(), "dropped object stays dropped");
    }

    #[test]
    fn refresh_catalog_sees_native_objects() {
        let bd = federation();
        bd.engine("postgres")
            .unwrap()
            .lock()
            .execute_native("CREATE TABLE sneaky (x INT)")
            .unwrap();
        assert!(bd.locate("sneaky").is_err());
        bd.refresh_catalog();
        assert_eq!(bd.locate("sneaky").unwrap(), "postgres");
    }

    #[test]
    fn temp_names_unique() {
        let bd = federation();
        assert_ne!(bd.temp_name(), bd.temp_name());
    }

    #[test]
    fn doc_example_holds() {
        let mut bd = BigDawg::new();
        bd.add_engine(Box::new(RelationalShim::new("postgres")));
        bd.execute("POSTGRES(CREATE TABLE t (x INT))").unwrap();
        bd.execute("POSTGRES(INSERT INTO t VALUES (1), (2))")
            .unwrap();
        let rows = bd
            .execute("RELATIONAL(SELECT COUNT(*) AS n FROM t)")
            .unwrap();
        assert_eq!(rows.rows()[0][0], Value::Int(2));
    }
}
