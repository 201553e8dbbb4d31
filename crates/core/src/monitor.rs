//! The cross-system monitor (§2.1): learns which engine suits each object's
//! workload and migrates objects as workloads shift.
//!
//! "We are investigating cross-system monitoring that will migrate data
//! objects between storage engines as query workloads change. … For
//! example, if the majority of the queries accessing MIMIC II's waveforms
//! use linear algebra, this data would naturally be migrated to an array
//! store."
//!
//! The monitor records one [`Event`] per island query (object, query class,
//! engine, latency). [`Monitor::recommend`] inspects each object's recent
//! dominant class and proposes a migration when the current engine's kind
//! does not match the class's preferred kind. [`probe`] implements the
//! paper's "re-execute portions of a query workload on multiple engines"
//! idea: it runs a canned representative query per class on every candidate
//! engine and reports measured latencies.
//!
//! Beyond the passive record/recommend loop, the monitor is also the
//! executor's **cost model** (§2.2: the monitor "collects performance data
//! about the execution of queries … and uses it to choose among equivalent
//! plans"). Every recorded event feeds a per-(engine, class)
//! [`Histogram`]; every CAST feeds per-transport [`TransportStats`]
//! (observability only — the transport itself is chosen structurally:
//! zero-copy when no wire is crossed, the columnar codec otherwise).
//! [`Monitor::cheapest_engine`] turns that history into the plan choice of
//! which engine evaluates a sub-query when several could. With no history
//! (cold start) it falls back to the first capable engine.
//!
//! Finally, the monitor feeds the **migrator** ([`crate::migrate`]): every
//! demand-driven CAST of a named object records one *ship* —
//! [`Monitor::record_ship`] — into per-object [`ShipStats`] counters.
//! [`Monitor::hot_candidates`] turns those counters into the hot set: the
//! objects repeatedly shipped toward the same engine, which the migrator
//! replicates (or moves) there so future queries resolve to a co-located
//! copy and skip the CAST round-trip entirely. Ship counters for an object
//! are reset when a write invalidates its replicas ([`Monitor::reset_ships`])
//! so demand must re-accumulate before the object is placed again.

use crate::cast::{CastReport, Transport};
use crate::polystore::BigDawg;
use crate::shim::EngineKind;
use bigdawg_common::metrics::{labeled, Histogram};
use bigdawg_common::{BigDawgError, MetricsRegistry, Result, Tracer};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Classified query shapes the monitor distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Selection/projection over rows.
    SqlFilter,
    /// Whole-object aggregation (COUNT/SUM/AVG/…).
    Aggregate,
    /// Multi-table joins.
    Join,
    /// Matrix/vector math (matmul, transpose, dot products).
    LinearAlgebra,
    /// Grouped or sliding-window aggregation.
    WindowedAggregate,
    /// Keyword/boolean/phrase search.
    TextSearch,
    /// Append-heavy live ingestion.
    StreamIngest,
}

impl QueryClass {
    /// Which engine kind serves this class best (the monitor's prior; the
    /// probe refines it with measurements).
    pub fn preferred_kind(self) -> EngineKind {
        match self {
            QueryClass::SqlFilter | QueryClass::Aggregate | QueryClass::Join => {
                EngineKind::Relational
            }
            QueryClass::LinearAlgebra | QueryClass::WindowedAggregate => EngineKind::Array,
            QueryClass::TextSearch => EngineKind::KeyValue,
            QueryClass::StreamIngest => EngineKind::Streaming,
        }
    }
}

/// One recorded query execution.
#[derive(Debug, Clone)]
pub struct Event {
    /// The data object the query touched.
    pub object: String,
    /// The classified query shape.
    pub class: QueryClass,
    /// The engine that executed it.
    pub engine: String,
    /// Measured wall-clock execution time.
    pub latency: Duration,
}

/// Per-object workload summary.
#[derive(Debug, Clone, Default)]
pub struct ObjectStats {
    /// Queries that touched the object inside the window.
    pub total_queries: usize,
    /// Breakdown of those queries by class.
    pub by_class: HashMap<QueryClass, usize>,
}

impl ObjectStats {
    /// The most frequent class, if any queries were recorded.
    pub fn dominant_class(&self) -> Option<QueryClass> {
        self.by_class
            .iter()
            .max_by_key(|(_, n)| **n)
            .map(|(c, _)| *c)
    }
}

/// A migration proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recommendation {
    /// The object to move.
    pub object: String,
    /// Where it lives today.
    pub from_engine: String,
    /// Where the dominant workload wants it.
    pub to_engine: String,
    /// The query class that dominated the recent window.
    pub dominant_class: QueryClass,
}

/// Accumulated CAST measurements for one [`Transport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// Number of CASTs recorded.
    pub casts: u64,
    /// Total rows shipped across those CASTs.
    pub rows: u64,
    /// Total end-to-end time (encode + transfer + decode).
    pub total: Duration,
}

/// Per-object demand counters: how often an object was shipped (CAST by
/// name) toward each engine. This is the migrator's hot-set signal — an
/// object repeatedly shipped to the same target wants a copy there.
#[derive(Debug, Clone, Default)]
pub struct ShipStats {
    /// Total demand ships of the object, across all targets.
    pub total: u64,
    /// Ships broken down by target engine.
    pub by_target: HashMap<String, u64>,
}

impl ShipStats {
    /// The engine this object is most often shipped to, with its count.
    /// Ties break toward the lexicographically smallest engine name so the
    /// hot set is deterministic.
    pub fn hottest_target(&self) -> Option<(&str, u64)> {
        self.by_target
            .iter()
            .max_by(|(an, ac), (bn, bc)| ac.cmp(bc).then(bn.cmp(an)))
            .map(|(n, c)| (n.as_str(), *c))
    }
}

/// One hot-set member: an object whose demand ships toward `target` crossed
/// the migration threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotObject {
    /// The repeatedly shipped object.
    pub object: String,
    /// The engine the demand keeps shipping it to.
    pub target: String,
    /// Number of ships recorded toward that engine.
    pub ships: u64,
}

/// Configuration of the per-engine circuit breakers.
///
/// All thresholds are counted in *events* (recorded failures, planner
/// consultations), never in wall-clock time — breaker state transitions
/// are exactly replayable from an operation trace, which is what lets the
/// chaos harness assert "breakers re-close" deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Planner consultations ([`BreakerBoard::allowed`]) an open breaker
    /// sits out before admitting a half-open probe.
    pub probe_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            probe_after: 8,
        }
    }
}

/// The circuit-breaker state machine's position for one engine.
///
/// ```text
///            failure_threshold
///            consecutive fails              probe_after
///  ┌────────┐ ───────────────► ┌──────┐ ────────────────► ┌───────────┐
///  │ Closed │                  │ Open │  allowed-checks   │ Half-open │
///  └────────┘ ◄─────────────── └──────┘ ◄──────────────── └───────────┘
///       ▲       any success        ▲       probe fails          │
///       └──────────────────────────┴────────── probe succeeds ──┘
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow normally.
    Closed,
    /// Sick: the planner routes around the engine while the cooldown runs.
    Open,
    /// Probing: the next request is admitted; its outcome closes or
    /// re-opens the breaker.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Snapshot of one engine's breaker, as reported by
/// [`BreakerBoard::health`] / [`crate::BigDawg::engine_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHealth {
    /// Where the breaker's state machine currently sits.
    pub state: BreakerState,
    /// Transient failures recorded since the last success.
    pub consecutive_failures: u32,
}

impl Default for EngineHealth {
    fn default() -> Self {
        EngineHealth {
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }
}

/// Internal breaker bookkeeping for one engine. Only engines with a
/// non-default state are stored; a success removes the entry.
#[derive(Debug, Clone)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// Remaining allowed-checks before an open breaker half-opens.
    cooldown: u32,
}

/// The federation's circuit-breaker board: one breaker per engine, behind
/// its own short-lived lock.
///
/// The board is *shared* between the [`Monitor`] (whose planner methods
/// consult it) and the data paths in [`crate::BigDawg`] (which record
/// successes and failures). It deliberately does **not** live under the
/// monitor's own mutex: the monitor-driven migrator runs *while holding*
/// the monitor lock, and the migration copy path must still be able to
/// trip and close breakers — putting the breakers behind the monitor lock
/// would deadlock that path against itself. Every board operation locks,
/// updates, and unlocks without calling out, so the only lock order is
/// monitor → board.
#[derive(Debug, Default)]
pub struct BreakerBoard {
    inner: parking_lot::Mutex<BoardInner>,
    /// Observability hooks (installed by the federation): state transitions
    /// become trace events and trip/re-close counters. Kept outside
    /// `inner` and only consulted *after* the inner lock is released, so
    /// sinks can never deadlock against breaker bookkeeping.
    observer: parking_lot::Mutex<Option<BoardObserver>>,
}

#[derive(Debug, Default)]
struct BoardInner {
    breakers: HashMap<String, Breaker>,
    config: BreakerConfig,
}

/// The observability hooks a [`BreakerBoard`] reports transitions through.
#[derive(Debug, Clone)]
pub(crate) struct BoardObserver {
    pub(crate) tracer: Tracer,
    pub(crate) metrics: std::sync::Arc<MetricsRegistry>,
}

impl BoardObserver {
    fn transition(&self, engine: &str, from: BreakerState, to: BreakerState) {
        self.tracer.event(
            "breaker.transition",
            format_args!("{engine}: {from} -> {to}"),
        );
        if to == BreakerState::Open && from != BreakerState::Open {
            self.metrics
                .counter(&labeled(
                    "bigdawg_breaker_trips_total",
                    &[("engine", engine)],
                ))
                .inc();
        }
        if to == BreakerState::Closed && from != BreakerState::Closed {
            self.metrics
                .counter(&labeled(
                    "bigdawg_breaker_recloses_total",
                    &[("engine", engine)],
                ))
                .inc();
        }
    }
}

impl BreakerBoard {
    /// Install (or replace) the board's observability hooks.
    pub(crate) fn set_observer(&self, observer: BoardObserver) {
        *self.observer.lock() = Some(observer);
    }

    /// Report a state transition through the installed observer, if any.
    /// Must be called with the `inner` lock already released.
    fn observe(&self, engine: &str, from: BreakerState, to: BreakerState) {
        if from == to {
            return;
        }
        let observer = self.observer.lock().clone();
        if let Some(obs) = observer {
            obs.transition(engine, from, to);
        }
    }

    /// Replace the breaker thresholds (existing breaker states are kept).
    pub fn set_config(&self, config: BreakerConfig) {
        self.inner.lock().config = config;
    }

    /// The active breaker thresholds.
    pub fn config(&self) -> BreakerConfig {
        self.inner.lock().config
    }

    /// Record a transient failure of `engine` (an injected fault, a failed
    /// put, a native execution error). At `failure_threshold` consecutive
    /// failures the breaker opens; a failed half-open probe re-opens it.
    /// Returns the breaker's state after the transition.
    pub fn record_failure(&self, engine: &str) -> BreakerState {
        let (was, now) = {
            let mut inner = self.inner.lock();
            let cfg = inner.config;
            let b = inner
                .breakers
                .entry(engine.to_string())
                .or_insert_with(|| Breaker {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                    cooldown: 0,
                });
            let was = b.state;
            b.consecutive_failures = b.consecutive_failures.saturating_add(1);
            match b.state {
                BreakerState::Closed if b.consecutive_failures >= cfg.failure_threshold.max(1) => {
                    b.state = BreakerState::Open;
                    b.cooldown = cfg.probe_after.max(1);
                }
                // a failed probe (or a failure from a request admitted before
                // the trip) re-arms the full cooldown
                BreakerState::HalfOpen | BreakerState::Open => {
                    b.state = BreakerState::Open;
                    b.cooldown = cfg.probe_after.max(1);
                }
                BreakerState::Closed => {}
            }
            (was, b.state)
        };
        self.observe(engine, was, now);
        now
    }

    /// Record a successful operation on `engine`: whatever state the
    /// breaker was in, it closes and the failure streak resets.
    pub fn record_success(&self, engine: &str) {
        let removed = self.inner.lock().breakers.remove(engine);
        if let Some(b) = removed {
            self.observe(engine, b.state, BreakerState::Closed);
        }
    }

    /// May the planner route to `engine` right now? Closed and half-open
    /// breakers say yes; an open breaker says no while counting down its
    /// cooldown, then half-opens and admits one probe. Deterministic: the
    /// transition happens on the `probe_after`-th consultation, not after
    /// a wall-clock timeout.
    pub fn allowed(&self, engine: &str) -> bool {
        let (admitted, half_opened) = match self.inner.lock().breakers.get_mut(engine) {
            None => (true, false),
            Some(b) => match b.state {
                BreakerState::Closed | BreakerState::HalfOpen => (true, false),
                BreakerState::Open => {
                    b.cooldown = b.cooldown.saturating_sub(1);
                    if b.cooldown == 0 {
                        b.state = BreakerState::HalfOpen;
                        (true, true)
                    } else {
                        (false, false)
                    }
                }
            },
        };
        if half_opened {
            self.observe(engine, BreakerState::Open, BreakerState::HalfOpen);
        }
        admitted
    }

    /// The breaker snapshot for one engine (closed when never tripped).
    pub fn health(&self, engine: &str) -> EngineHealth {
        self.inner
            .lock()
            .breakers
            .get(engine)
            .map(|b| EngineHealth {
                state: b.state,
                consecutive_failures: b.consecutive_failures,
            })
            .unwrap_or_default()
    }

    /// Every engine whose breaker is not fully healthy (open, half-open,
    /// or closed with a failure streak), sorted by name — what `EXPLAIN`
    /// renders.
    pub fn snapshot(&self) -> Vec<(String, EngineHealth)> {
        let mut out: Vec<(String, EngineHealth)> = self
            .inner
            .lock()
            .breakers
            .iter()
            .map(|(e, b)| {
                (
                    e.clone(),
                    EngineHealth {
                        state: b.state,
                        consecutive_failures: b.consecutive_failures,
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Minimum samples a `(engine, class)` pair needs before its p99 is
/// trusted as a hedging threshold. Below this the tail estimate is noise
/// and hedging would fire on cold engines.
const HEDGE_MIN_SAMPLES: u64 = 8;

/// Per-engine **read** latency distributions, shared between the monitor
/// (planning) and the replica-read path (hedging decisions).
///
/// Like the [`BreakerBoard`], the latency board carries its own lock
/// instead of living under the monitor's mutex: `read_object_copy` both
/// *consults* the board (should this read hedge?) and *feeds* it (every
/// completed read records its latency), and it runs on paths that may
/// already hold the monitor lock (`apply_recommendations` drives
/// migration copies while holding it). Every board operation locks,
/// updates, and unlocks without calling out, keeping the lock order
/// monitor → board.
#[derive(Debug, Default)]
pub struct LatencyBoard {
    inner: parking_lot::Mutex<HashMap<(String, QueryClass), Histogram>>,
}

impl LatencyBoard {
    /// Record one completed replica read of `class` against `engine`.
    pub fn record_read(&self, engine: &str, class: QueryClass, latency: Duration) {
        self.inner
            .lock()
            .entry((engine.to_string(), class))
            .or_default()
            .record(latency);
    }

    /// Samples recorded for `(engine, class)`.
    pub fn read_count(&self, engine: &str, class: QueryClass) -> u64 {
        self.inner
            .lock()
            .get(&(engine.to_string(), class))
            .map_or(0, Histogram::count)
    }

    /// The p99 read latency for `(engine, class)`, once at least
    /// [`HEDGE_MIN_SAMPLES`](self) samples exist — the threshold a hedged
    /// read waits for the primary copy before racing a second one.
    pub fn read_p99(&self, engine: &str, class: QueryClass) -> Option<Duration> {
        let inner = self.inner.lock();
        let h = inner.get(&(engine.to_string(), class))?;
        if h.count() < HEDGE_MIN_SAMPLES {
            return None;
        }
        h.quantile(0.99)
    }
}

/// The workload monitor. Keeps a sliding window of recent events so that
/// *shifts* in the workload change the recommendation (old history ages
/// out).
#[derive(Debug)]
pub struct Monitor {
    events: VecDeque<Event>,
    window: usize,
    /// Cost model: full-history latency distribution per (engine, class).
    engine_class: HashMap<(String, QueryClass), Histogram>,
    /// Cost model: accumulated CAST measurements per transport.
    transports: HashMap<Transport, TransportStats>,
    /// Migrator signal: per-object demand-ship counters.
    ships: HashMap<String, ShipStats>,
    /// Fault signal: per-engine circuit breakers (absent = closed). Shared
    /// with the federation's data paths — see [`BreakerBoard`] for why the
    /// board carries its own lock instead of living under the monitor's.
    breakers: std::sync::Arc<BreakerBoard>,
    /// Hedging signal: per-(engine, class) read-latency distributions,
    /// shared with the replica-read path — see [`LatencyBoard`].
    read_latency: std::sync::Arc<LatencyBoard>,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A monitor with the default 256-event sliding window.
    pub fn new() -> Self {
        Self::with_window(256)
    }

    /// Use a custom sliding-window length.
    pub fn with_window(window: usize) -> Self {
        Monitor {
            events: VecDeque::new(),
            window: window.max(1),
            engine_class: HashMap::new(),
            transports: HashMap::new(),
            ships: HashMap::new(),
            breakers: std::sync::Arc::new(BreakerBoard::default()),
            read_latency: std::sync::Arc::new(LatencyBoard::default()),
        }
    }

    /// The shared read-latency board (hedging thresholds). Cloning the
    /// `Arc` lets the read path record and consult latencies without
    /// taking the monitor lock.
    pub fn latency_board(&self) -> std::sync::Arc<LatencyBoard> {
        std::sync::Arc::clone(&self.read_latency)
    }

    /// Record one query execution. The event enters the sliding window
    /// (driving migration recommendations) and its latency feeds the
    /// per-(engine, class) histogram (driving plan choice). Histograms are
    /// cumulative — unlike the window they never age out, because cost
    /// estimates improve with every sample while placement must track the
    /// *recent* workload.
    pub fn record(&mut self, object: &str, class: QueryClass, engine: &str, latency: Duration) {
        self.engine_class
            .entry((engine.to_string(), class))
            .or_default()
            .record(latency);
        self.events.push_back(Event {
            object: object.to_string(),
            class,
            engine: engine.to_string(),
            latency,
        });
        while self.events.len() > self.window {
            self.events.pop_front();
        }
    }

    /// Record one CAST execution into the per-transport cost model.
    pub fn record_cast(&mut self, report: &CastReport) {
        let stats = self.transports.entry(report.transport).or_default();
        stats.casts += 1;
        stats.rows += report.rows as u64;
        stats.total += report.total();
    }

    // ---- migrator signal ----------------------------------------------------

    /// Record one demand ship: `object` was CAST by name toward `to_engine`
    /// because a query needed it there. Called from the CAST data path, not
    /// from the migrator's own copies (placement must react to *demand*,
    /// not to itself).
    pub fn record_ship(&mut self, object: &str, to_engine: &str) {
        let stats = self.ships.entry(object.to_string()).or_default();
        stats.total += 1;
        *stats.by_target.entry(to_engine.to_string()).or_default() += 1;
    }

    /// The demand-ship counters for one object, if any ships were recorded.
    pub fn ship_stats(&self, object: &str) -> Option<&ShipStats> {
        self.ships.get(object)
    }

    /// Forget an object's demand counters. Called when a write invalidates
    /// the object's replicas: demand must re-accumulate before the migrator
    /// places the object again, preventing write-heavy objects from
    /// thrashing between invalidation and re-replication.
    pub fn reset_ships(&mut self, object: &str) {
        self.ships.remove(object);
    }

    /// The hot set: every (object, target) pair whose demand ships reached
    /// `min_ships`. Sorted hottest-first (then by name, so the migrator's
    /// work order is deterministic).
    pub fn hot_candidates(&self, min_ships: u64) -> Vec<HotObject> {
        let mut out: Vec<HotObject> = self
            .ships
            .iter()
            .flat_map(|(object, stats)| {
                stats
                    .by_target
                    .iter()
                    .filter(|(_, n)| **n >= min_ships.max(1))
                    .map(|(target, n)| HotObject {
                        object: object.clone(),
                        target: target.clone(),
                        ships: *n,
                    })
            })
            .collect();
        out.sort_by(|a, b| {
            b.ships
                .cmp(&a.ships)
                .then_with(|| a.object.cmp(&b.object))
                .then_with(|| a.target.cmp(&b.target))
        });
        out
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently in the sliding window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded (or all have aged out).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    // ---- circuit breakers ---------------------------------------------------

    /// The shared breaker board. [`crate::BigDawg`] clones this handle so
    /// its data paths can record outcomes without taking the monitor lock.
    pub fn breaker_board(&self) -> std::sync::Arc<BreakerBoard> {
        std::sync::Arc::clone(&self.breakers)
    }

    /// Breaker-aware plan choice: [`Monitor::cheapest_engine`] restricted
    /// to candidates whose breakers admit traffic. When *every* breaker is
    /// open the full candidate list competes instead — the federation
    /// never refuses to pick just because everything looks sick (the
    /// attempt doubles as the probe that lets breakers re-close). Returns
    /// `None` only for an empty candidate list; cold-start falls back to
    /// the first candidate by the caller's order.
    pub fn cheapest_healthy_engine(
        &self,
        candidates: &[String],
        class: QueryClass,
    ) -> Option<String> {
        let healthy: Vec<String> = candidates
            .iter()
            .filter(|e| self.breakers.allowed(e))
            .cloned()
            .collect();
        let pool = if healthy.is_empty() {
            candidates.to_vec()
        } else {
            healthy
        };
        self.cheapest_engine(&pool, class)
            .or_else(|| pool.first().cloned())
    }

    // ---- cost model ---------------------------------------------------------

    /// The latency histogram for one (engine, class) pair, if measured.
    pub fn histogram(&self, engine: &str, class: QueryClass) -> Option<&Histogram> {
        self.engine_class.get(&(engine.to_string(), class))
    }

    /// Workload-wide mean query latency, pooled across every
    /// (engine, class) histogram. `None` until anything was recorded.
    ///
    /// This is the result cache's adaptive admission floor: a query far
    /// cheaper than the running workload mean is not worth an LRU slot —
    /// caching it would evict entries whose recomputation actually hurts.
    pub fn mean_query_latency(&self) -> Option<Duration> {
        let mut sum = Duration::ZERO;
        let mut count = 0u64;
        for h in self.engine_class.values() {
            sum += h.sum();
            count += h.count();
        }
        if count == 0 {
            return None;
        }
        Some(Duration::from_nanos(
            (sum.as_nanos() / count as u128) as u64,
        ))
    }

    /// Estimated cost (mean measured latency) of running a `class` query on
    /// `engine`. `None` when no history exists — the cold-start case.
    pub fn engine_cost(&self, engine: &str, class: QueryClass) -> Option<Duration> {
        // an entry exists only once a sample was recorded into it
        self.histogram(engine, class).map(Histogram::mean)
    }

    /// Pick the cheapest engine for a `class` query among `candidates` by
    /// measured history. Candidates without history are skipped; returns
    /// `None` when *no* candidate has history, so callers fall back to a
    /// default order (cold start must never pick blindly between measured
    /// and unmeasured engines).
    pub fn cheapest_engine(&self, candidates: &[String], class: QueryClass) -> Option<String> {
        candidates
            .iter()
            .filter_map(|e| self.engine_cost(e, class).map(|c| (c, e)))
            .min_by_key(|(cost, _)| *cost)
            .map(|(_, e)| e.clone())
    }

    /// Accumulated CAST stats for one transport, if any were recorded.
    pub fn transport_stats(&self, transport: Transport) -> Option<&TransportStats> {
        self.transports.get(&transport)
    }

    /// Workload summary for one object over the window.
    pub fn object_stats(&self, object: &str) -> ObjectStats {
        let mut stats = ObjectStats::default();
        for e in &self.events {
            if e.object == object {
                stats.total_queries += 1;
                *stats.by_class.entry(e.class).or_default() += 1;
            }
        }
        stats
    }

    /// Mean recorded latency for (object, engine), if measured.
    pub fn mean_latency(&self, object: &str, engine: &str) -> Option<Duration> {
        let samples: Vec<Duration> = self
            .events
            .iter()
            .filter(|e| e.object == object && e.engine == engine)
            .map(|e| e.latency)
            .collect();
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().sum::<Duration>() / samples.len() as u32)
    }

    /// Propose migrations: objects whose dominant recent class prefers a
    /// different engine kind than the one they live on.
    pub fn recommend(&self, bd: &BigDawg) -> Vec<Recommendation> {
        let mut objects: Vec<String> = Vec::new();
        for e in &self.events {
            if !objects.contains(&e.object) {
                objects.push(e.object.clone());
            }
        }
        let mut out = Vec::new();
        for object in objects {
            let stats = self.object_stats(&object);
            let Some(dominant) = stats.dominant_class() else {
                continue;
            };
            // Pinned kinds are bound to their engines: text loses its index
            // anywhere else, and live streams cannot leave the ingestion
            // path.
            match bd.catalog().read().locate(&object) {
                Ok(entry) if entry.kind.is_pinned() => continue,
                Err(_) => continue,
                _ => {}
            }
            let Ok(current) = bd.locate(&object) else {
                continue;
            };
            let Ok(current_kind) = bd.kind_of(&current) else {
                continue;
            };
            let preferred = dominant.preferred_kind();
            if current_kind == preferred {
                continue;
            }
            let Ok(target) = bd.engine_of_kind(preferred) else {
                continue;
            };
            out.push(Recommendation {
                object,
                from_engine: current,
                to_engine: target,
                dominant_class: dominant,
            });
        }
        out
    }

    /// Act on every recommendation (binary transport). Returns the applied
    /// migrations.
    pub fn apply_recommendations(&self, bd: &BigDawg) -> Vec<Recommendation> {
        let recs = self.recommend(bd);
        let mut applied = Vec::new();
        for rec in recs {
            if bd
                .migrate_object(&rec.object, &rec.to_engine, Transport::Binary)
                .is_ok()
            {
                applied.push(rec);
            }
        }
        applied
    }
}

/// Measured probe result: latency of a representative query per engine.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Engine the probe ran on.
    pub engine: String,
    /// Measured latency of the representative query there.
    pub latency: Duration,
}

/// Re-execute a representative query of `class` over `object` on every
/// engine kind that can host it (relational and array in this
/// implementation), returning measured latencies sorted fastest-first.
/// Temporary copies are cleaned up.
pub fn probe(bd: &BigDawg, object: &str, class: QueryClass) -> Result<Vec<ProbeResult>> {
    let home = bd.locate(object)?;
    // column names from the exported schema (CAST conventions keep them)
    let batch = bd.read_object(object)?;
    let names = batch.schema().names();
    if names.len() < 2 {
        return Err(BigDawgError::Execution(
            "probe needs an object with at least two columns".into(),
        ));
    }
    let dim = names[0].to_string();
    let val = names[names.len() - 1].to_string();
    drop(batch);

    let mut results = Vec::new();
    for kind in [EngineKind::Relational, EngineKind::Array] {
        let Ok(engine) = bd.engine_of_kind(kind) else {
            continue;
        };
        // place a copy on the engine (or use the object directly at home)
        let (target_obj, is_temp) = if engine == home {
            (object.to_string(), false)
        } else {
            let tmp = bd.temp_name();
            // no demand recorded: a probe's measurement copy is not
            // workload demand and must not feed the migrator's hot set
            let pushdown = crate::exec::LeafPushdown::default();
            bd.cast_object_attempts(object, &engine, &tmp, Transport::Binary, false, &pushdown)?;
            (tmp, true)
        };
        let query = probe_query(kind, class, &target_obj, &dim, &val)?;
        let island = match kind {
            EngineKind::Relational => "RELATIONAL",
            _ => "ARRAY",
        };
        let started = std::time::Instant::now();
        let outcome = bd.island_execute(island, &query);
        let latency = started.elapsed();
        if is_temp {
            let _ = bd.drop_object(&target_obj);
        }
        outcome?;
        results.push(ProbeResult { engine, latency });
    }
    results.sort_by_key(|r| r.latency);
    Ok(results)
}

fn probe_query(
    kind: EngineKind,
    class: QueryClass,
    object: &str,
    dim: &str,
    val: &str,
) -> Result<String> {
    let q = match (kind, class) {
        (EngineKind::Relational, QueryClass::SqlFilter) => {
            format!("SELECT COUNT(*) FROM {object} WHERE {val} > 0")
        }
        (EngineKind::Relational, QueryClass::Aggregate) => {
            format!("SELECT AVG({val}) FROM {object}")
        }
        (EngineKind::Relational, QueryClass::WindowedAggregate) => {
            format!("SELECT {dim} % 32, AVG({val}) FROM {object} GROUP BY {dim} % 32")
        }
        (EngineKind::Relational, QueryClass::LinearAlgebra) => {
            format!("SELECT SUM({val} * {val}) FROM {object}")
        }
        (EngineKind::Array, QueryClass::SqlFilter) => {
            format!("aggregate(filter({object}, {val} > 0), count, {val})")
        }
        (EngineKind::Array, QueryClass::Aggregate) => {
            format!("aggregate({object}, avg, {val})")
        }
        (EngineKind::Array, QueryClass::WindowedAggregate) => {
            format!("aggregate(regrid({object}, 32, avg), count, {val})")
        }
        (EngineKind::Array, QueryClass::LinearAlgebra) => {
            format!("aggregate(apply({object}, __sq, {val} * {val}), sum, __sq)")
        }
        (kind, class) => {
            return Err(BigDawgError::Unsupported(format!(
                "no probe query for {class:?} on a {kind} engine"
            )))
        }
    };
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shims::{ArrayShim, RelationalShim};
    use bigdawg_array::Array;

    fn federation() -> BigDawg {
        let mut bd = BigDawg::new();
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut()
            .execute("CREATE TABLE wave_rel (i INT, v FLOAT)")
            .unwrap();
        let values: Vec<String> = (0..256).map(|i| format!("({i}, {}.5)", i % 17)).collect();
        pg.db_mut()
            .execute(&format!(
                "INSERT INTO wave_rel VALUES {}",
                values.join(", ")
            ))
            .unwrap();
        bd.add_engine(Box::new(pg));
        let mut scidb = ArrayShim::new("scidb");
        scidb.store("other", Array::from_vector("other", "v", &[1.0, 2.0], 2));
        bd.add_engine(Box::new(scidb));
        bd
    }

    #[test]
    fn sliding_window_ages_out() {
        let mut m = Monitor::with_window(3);
        for i in 0..5 {
            m.record(
                "obj",
                if i < 4 {
                    QueryClass::SqlFilter
                } else {
                    QueryClass::LinearAlgebra
                },
                "postgres",
                Duration::from_micros(10),
            );
        }
        assert_eq!(m.len(), 3);
        let stats = m.object_stats("obj");
        assert_eq!(stats.total_queries, 3);
    }

    #[test]
    fn recommendation_on_workload_shift() {
        let bd = federation();
        let mut m = Monitor::with_window(16);
        // phase 1: SQL filters — no recommendation (already relational)
        for _ in 0..8 {
            m.record(
                "wave_rel",
                QueryClass::SqlFilter,
                "postgres",
                Duration::from_micros(50),
            );
        }
        assert!(m.recommend(&bd).is_empty());
        // phase 2: the workload shifts to linear algebra
        for _ in 0..12 {
            m.record(
                "wave_rel",
                QueryClass::LinearAlgebra,
                "postgres",
                Duration::from_micros(900),
            );
        }
        let recs = m.recommend(&bd);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].object, "wave_rel");
        assert_eq!(recs[0].to_engine, "scidb");
        assert_eq!(recs[0].dominant_class, QueryClass::LinearAlgebra);
    }

    #[test]
    fn apply_recommendation_migrates() {
        let bd = federation();
        {
            let mut m = bd.monitor().lock();
            for _ in 0..10 {
                m.record(
                    "wave_rel",
                    QueryClass::LinearAlgebra,
                    "postgres",
                    Duration::from_micros(900),
                );
            }
        }
        let applied = bd.monitor().lock().apply_recommendations(&bd);
        assert_eq!(applied.len(), 1);
        assert_eq!(bd.locate("wave_rel").unwrap(), "scidb");
        // the array side can now run the workload natively
        let b = bd.execute("ARRAY(aggregate(wave_rel, count, v))").unwrap();
        assert_eq!(b.rows()[0][0], bigdawg_common::Value::Float(256.0));
    }

    #[test]
    fn probe_measures_both_engines() {
        let bd = federation();
        let results = probe(&bd, "wave_rel", QueryClass::LinearAlgebra).unwrap();
        assert_eq!(results.len(), 2);
        let engines: Vec<&str> = results.iter().map(|r| r.engine.as_str()).collect();
        assert!(engines.contains(&"postgres") && engines.contains(&"scidb"));
        // temp copies cleaned
        assert_eq!(bd.catalog().read().len(), 2);
        // a probe's measurement copies are not workload demand: the
        // migrator's hot set must stay empty
        assert!(bd.monitor().lock().ship_stats("wave_rel").is_none());
        assert!(bd.monitor().lock().hot_candidates(1).is_empty());
    }

    #[test]
    fn mean_latency_aggregates() {
        let mut m = Monitor::new();
        m.record("o", QueryClass::SqlFilter, "e", Duration::from_micros(10));
        m.record("o", QueryClass::SqlFilter, "e", Duration::from_micros(30));
        assert_eq!(m.mean_latency("o", "e"), Some(Duration::from_micros(20)));
        assert_eq!(m.mean_latency("o", "other"), None);
    }

    #[test]
    fn histogram_buckets_mean_and_quantiles() {
        // the one histogram type the cost model and the latency board hold
        let h = Histogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), None);
        for micros in [10u64, 12, 14, 900] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Duration::from_micros(234));
        // 3 of 4 samples land in the [8,16) µs bucket → median ≤ 16 µs
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(16)));
        // the p99 bucket holds the 900 µs outlier: (512,1024] upper bound
        assert_eq!(h.quantile(0.99), Some(Duration::from_micros(1024)));
    }

    #[test]
    fn cost_model_cold_start_defaults() {
        let m = Monitor::new();
        assert_eq!(m.engine_cost("postgres", QueryClass::Join), None);
        assert_eq!(
            m.cheapest_engine(&["a".into(), "b".into()], QueryClass::Join),
            None
        );
    }

    #[test]
    fn cheapest_engine_follows_measured_history() {
        let mut m = Monitor::new();
        for _ in 0..4 {
            m.record("t", QueryClass::Join, "pg_slow", Duration::from_millis(9));
            m.record("t", QueryClass::Join, "pg_fast", Duration::from_millis(2));
        }
        let candidates = vec!["pg_slow".to_string(), "pg_fast".to_string()];
        assert_eq!(
            m.cheapest_engine(&candidates, QueryClass::Join),
            Some("pg_fast".to_string())
        );
        // a class with no history still reports cold start
        assert_eq!(m.cheapest_engine(&candidates, QueryClass::TextSearch), None);
    }

    #[test]
    fn zero_copy_stats_are_tracked_but_never_win_the_wire_choice() {
        // nothing chooses a transport from this history (the choice is
        // structural), so tracking is all there is to pin
        let mut m = Monitor::new();
        for _ in 0..10 {
            m.record_cast(&CastReport {
                rows: 100_000,
                wire_bytes: 0,
                encode: Duration::from_nanos(500),
                transfer: Duration::ZERO,
                decode: Duration::ZERO,
                transport: Transport::ZeroCopy,
            });
        }
        let stats = m.transport_stats(Transport::ZeroCopy).unwrap();
        assert_eq!(stats.casts, 10, "zero-copy ships are still observable");
        assert_eq!(stats.rows, 1_000_000);
    }

    #[test]
    fn ship_counters_feed_the_hot_set() {
        let mut m = Monitor::new();
        assert!(m.hot_candidates(1).is_empty());
        for _ in 0..3 {
            m.record_ship("wave", "postgres");
        }
        m.record_ship("wave", "tiledb");
        m.record_ship("tiles", "postgres");
        let stats = m.ship_stats("wave").unwrap();
        assert_eq!(stats.total, 4);
        assert_eq!(stats.hottest_target(), Some(("postgres", 3)));
        // threshold filters; ordering is hottest-first then by name
        let hot = m.hot_candidates(3);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].object, "wave");
        assert_eq!(hot[0].target, "postgres");
        assert_eq!(hot[0].ships, 3);
        let all = m.hot_candidates(1);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].object, "wave");
        // a write invalidation resets demand: the object leaves the hot set
        m.reset_ships("wave");
        assert!(m.ship_stats("wave").is_none());
        assert_eq!(m.hot_candidates(3).len(), 0);
    }

    /// Re-registering an engine (reconnect after a restart) must not drop
    /// the monitor's recorded history, and must not reset the catalog's
    /// placement epochs or replica sets for the objects it holds.
    #[test]
    fn stats_survive_engine_reregistration() {
        let mut bd = federation();
        {
            let mut m = bd.monitor().lock();
            for _ in 0..6 {
                m.record(
                    "wave_rel",
                    QueryClass::Aggregate,
                    "postgres",
                    Duration::from_micros(80),
                );
            }
            m.record_ship("wave_rel", "scidb");
        }
        bd.catalog()
            .write()
            .add_replica("wave_rel", "scidb")
            .unwrap();
        let epoch_before = bd.catalog().read().epoch("wave_rel").unwrap();

        // the engine reconnects: a fresh shim re-registers under the same
        // name, re-announcing the same objects
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut()
            .execute("CREATE TABLE wave_rel (i INT, v FLOAT)")
            .unwrap();
        bd.add_engine(Box::new(pg));

        let m = bd.monitor().lock();
        let h = m.histogram("postgres", QueryClass::Aggregate).unwrap();
        assert_eq!(h.count(), 6, "histograms survive re-registration");
        assert_eq!(m.object_stats("wave_rel").total_queries, 6);
        assert_eq!(m.ship_stats("wave_rel").unwrap().total, 1);
        drop(m);
        assert_eq!(
            bd.catalog().read().epoch("wave_rel").unwrap(),
            epoch_before,
            "placement epoch survives re-registration"
        );
        assert!(
            bd.catalog().read().located_on("wave_rel", "scidb"),
            "replica set survives re-registration"
        );
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_probes_closed() {
        let m = BreakerBoard::default();
        let cfg = BreakerConfig::default();
        assert_eq!(m.health("scidb").state, BreakerState::Closed);
        // below the threshold the breaker stays closed (streak visible)
        for i in 1..cfg.failure_threshold {
            assert_eq!(m.record_failure("scidb"), BreakerState::Closed);
            assert_eq!(m.health("scidb").consecutive_failures, i);
            assert!(m.allowed("scidb"));
        }
        // the threshold-th consecutive failure trips it open
        assert_eq!(m.record_failure("scidb"), BreakerState::Open);
        // open: the planner is refused for `probe_after - 1` consultations…
        for _ in 1..cfg.probe_after {
            assert!(!m.allowed("scidb"));
        }
        // …then a half-open probe is admitted
        assert!(m.allowed("scidb"));
        assert_eq!(m.health("scidb").state, BreakerState::HalfOpen);
        // a failed probe re-opens with a fresh cooldown
        assert_eq!(m.record_failure("scidb"), BreakerState::Open);
        assert!(!m.allowed("scidb"));
        for _ in 1..cfg.probe_after {
            m.allowed("scidb");
        }
        assert!(m.allowed("scidb"), "second probe admitted");
        // a successful probe closes the breaker and clears the streak
        m.record_success("scidb");
        let h = m.health("scidb");
        assert_eq!(h.state, BreakerState::Closed);
        assert_eq!(h.consecutive_failures, 0);
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn success_resets_a_failure_streak_before_the_trip() {
        let m = BreakerBoard::default();
        m.record_failure("pg");
        m.record_failure("pg");
        m.record_success("pg");
        // the streak restarted: two more failures still do not trip it
        m.record_failure("pg");
        assert_eq!(m.record_failure("pg"), BreakerState::Closed);
        assert!(m.allowed("pg"));
    }

    #[test]
    fn cheapest_healthy_engine_routes_around_open_breakers() {
        let mut m = Monitor::new();
        let candidates = vec!["pg_a".to_string(), "pg_b".to_string()];
        // history prefers pg_a…
        for _ in 0..4 {
            m.record("t", QueryClass::Join, "pg_a", Duration::from_millis(1));
            m.record("t", QueryClass::Join, "pg_b", Duration::from_millis(9));
        }
        assert_eq!(
            m.cheapest_healthy_engine(&candidates, QueryClass::Join),
            Some("pg_a".to_string())
        );
        // …until its breaker opens: the sick engine is routed around
        for _ in 0..3 {
            m.breaker_board().record_failure("pg_a");
        }
        assert_eq!(
            m.cheapest_healthy_engine(&candidates, QueryClass::Join),
            Some("pg_b".to_string())
        );
        // with every breaker open the full list competes again (the pick
        // doubles as the probe) — never a refusal to plan
        for _ in 0..3 {
            m.breaker_board().record_failure("pg_b");
        }
        assert_eq!(
            m.cheapest_healthy_engine(&candidates, QueryClass::Join),
            Some("pg_a".to_string())
        );
        assert_eq!(m.cheapest_healthy_engine(&[], QueryClass::Join), None);
    }

    #[test]
    fn health_snapshot_lists_sick_engines_sorted() {
        let m = BreakerBoard::default();
        for _ in 0..3 {
            m.record_failure("zeta");
        }
        m.record_failure("alpha");
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "alpha");
        assert_eq!(snap[0].1.state, BreakerState::Closed);
        assert_eq!(snap[0].1.consecutive_failures, 1);
        assert_eq!(snap[1].0, "zeta");
        assert_eq!(snap[1].1.state, BreakerState::Open);
        assert_eq!(format!("{}", snap[1].1.state), "open");
    }

    #[test]
    fn island_queries_feed_engine_histograms() {
        let bd = federation();
        bd.execute("RELATIONAL(SELECT COUNT(*) FROM wave_rel)")
            .unwrap();
        let m = bd.monitor().lock();
        let h = m.histogram("postgres", QueryClass::Aggregate).unwrap();
        assert_eq!(h.count(), 1);
        assert!(m.engine_cost("postgres", QueryClass::Aggregate).is_some());
    }
}
