//! The parallel scatter-gather executor.
//!
//! §2.2 of the architecture companion describes the executor dispatching
//! sub-plans to engines concurrently, and §2.1's CAST work argues "each
//! system needs an access method that knows how to read binary data in
//! parallel". The serial reference implementation in [`crate::scope`]
//! materializes one CAST term at a time, so a cross-island query over four
//! engines pays four round-trips back to back even though the engines are
//! independent. This module runs the same plan as a two-level DAG:
//!
//! ```text
//!              ┌────────────────────────────┐
//!              │ gather: ISLAND( body with  │   barrier: runs once every
//!              │   temps substituted )      │   leaf has materialized
//!              └─────▲──────▲──────▲────────┘
//!        ┌───────────┘      │      └───────────┐
//!   ┌────┴─────┐      ┌─────┴────┐       ┌─────┴────┐
//!   │ leaf 0   │      │ leaf 1   │  ...  │ leaf n   │   scatter: independent
//!   │ CAST(a,…)│      │ CAST(    │       │ CAST(b,…)│   per-engine sub-plans,
//!   │          │      │  SCOPE(…)│       │          │   run concurrently on a
//!   └──────────┘      └──────────┘       └──────────┘   scoped worker pool
//! ```
//!
//! Each leaf is one CAST term of the SCOPE body: either a named object
//! shipped between engines, or a nested scope query executed (recursively
//! through this executor, so sub-DAGs scatter too) and materialized on the
//! target engine. Leaves touch *different* engine mutexes, so running them
//! concurrently overlaps per-engine work and — in the paper's distributed
//! deployment — network round-trips; the worker pool reuses the
//! fixed-width scoped-thread pattern of [`crate::cast`]'s partitioned
//! codec. The gather node then executes the rewritten body on its island.
//!
//! The transport is structural: when every engine a leaf touches is
//! co-resident with the coordinator the leaf ships zero-copy
//! ([`Transport::ZeroCopy`] — `Arc` handover, no codec); otherwise it
//! ships through the columnar codec ([`Transport::Binary`]). Engine choice
//! is monitor-driven: islands pick their engine through
//! [`crate::polystore::BigDawg::choose_engine_of_kind`] (cheapest by
//! measured per-class latency when several engines qualify).

use crate::cast::Transport;
use crate::monitor::EngineHealth;
use crate::polystore::{add_lock_wait, lock_wait_on_this_thread, BigDawg};
use crate::scope;
use bigdawg_common::deadline;
use bigdawg_common::{Batch, BigDawgError, HedgeStats, Result};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What produces the rows of one scatter leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafSource {
    /// A named federation object: `CAST(obj, target)`.
    Object(String),
    /// A nested scope query: `CAST(ISLAND(body), target)`. Executed through
    /// the scatter-gather executor itself, so its own CAST terms form a
    /// sub-DAG that scatters in turn.
    SubQuery(String),
}

/// One independent unit of scatter work: materialize a CAST term's rows as
/// a temporary object on the target engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf {
    /// Where the rows come from.
    pub source: LeafSource,
    /// The engine the temporary lands on.
    pub target_engine: String,
    /// Name of the temporary object the gather body references.
    pub temp: String,
    /// Transport chosen by the monitor's cost model at plan time.
    pub transport: Transport,
    /// Failover edges: the object's other catalog placements the leaf's
    /// read may fall back to when its preferred source fails. Populated
    /// only for object leaves under a failover-enabled
    /// [`crate::RetryPolicy`]; rendered by `EXPLAIN`.
    pub fallbacks: Vec<String>,
    /// Rewrites the pass pipeline pushed below this move: applied to the
    /// rows *before* they are encoded for the wire, so filtered-out rows
    /// and pruned columns never ship. Empty for unoptimized plans.
    pub pushdown: LeafPushdown,
}

/// Predicate/projection rewrites pushed below a CAST boundary by the
/// optimizer (see [`crate::plan::passes`]). Carried on the [`Leaf`] and
/// applied at execution time between the source read and the wire —
/// leniently, since the gather body re-applies both (see
/// `crate::plan::apply_pushdown`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LeafPushdown {
    /// Rendered predicate to filter rows with before shipping.
    pub predicate: Option<String>,
    /// Columns to keep (sorted); others are dropped before shipping.
    pub columns: Option<Vec<String>>,
}

impl LeafPushdown {
    /// True when no rewrite was pushed below this leaf.
    pub fn is_empty(&self) -> bool {
        self.predicate.is_none() && self.columns.is_none()
    }
}

impl fmt::Display for LeafPushdown {
    /// The `EXPLAIN` annotation: `(push: filter v >= 9; cols id, v)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return Ok(());
        }
        f.write_str(" (push:")?;
        let mut sep = " ";
        if let Some(p) = &self.predicate {
            write!(f, "{sep}filter {p}")?;
            sep = "; ";
        }
        if let Some(cols) = &self.columns {
            write!(f, "{sep}cols {}", cols.join(", "))?;
        }
        f.write_str(")")
    }
}

/// A placement choice the planner made for one CAST term: the object was
/// already co-located with the CAST target (a migrator-placed replica or
/// the primary itself), so the leaf — and its round-trip — was elided and
/// the gather body references the object directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The object the CAST term named.
    pub object: String,
    /// The engine whose co-located copy serves it.
    pub engine: String,
    /// The placement epoch the choice was made at.
    pub epoch: u64,
}

/// The plan DAG for one SCOPE query: scatter leaves plus the gather node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Island the gather body runs on.
    pub island: String,
    /// The body with every CAST term replaced by its leaf's temp name (or
    /// by the object's own name when the placement made the CAST
    /// unnecessary).
    pub body: String,
    /// Independent sub-plans; empty for a degenerate single-engine query.
    pub leaves: Vec<Leaf>,
    /// CAST terms resolved to co-located copies at plan time — the
    /// migrator's payoff, shown by `EXPLAIN`.
    pub placements: Vec<Resolution>,
    /// Engines whose circuit breaker was not fully healthy at plan time
    /// (open, half-open, or carrying a failure streak), sorted by name —
    /// the monitor's routing context, shown by `EXPLAIN`.
    pub breakers: Vec<(String, EngineHealth)>,
    /// How the result cache classified this query (`None` when no cache is
    /// installed on the federation), shown by `EXPLAIN`.
    pub cache: Option<crate::cache::CacheStatus>,
}

impl Plan {
    /// True when the query needs no CAST — a single-island plan that runs
    /// without scattering (and without spawning any threads).
    pub fn is_degenerate(&self) -> bool {
        self.leaves.is_empty()
    }
}

impl fmt::Display for Plan {
    /// Render the DAG the way `EXPLAIN` would: gather node first, then one
    /// line per scatter leaf.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "gather  {}( {} )", self.island, self.body)?;
        for (i, leaf) in self.leaves.iter().enumerate() {
            let transport = match leaf.transport {
                Transport::File => "file",
                Transport::Binary => "binary",
                Transport::ZeroCopy => "zero-copy",
            };
            let source = match &leaf.source {
                LeafSource::Object(o) => format!("cast object `{o}`"),
                LeafSource::SubQuery(q) => format!("sub-query {q}"),
            };
            let failover = if leaf.fallbacks.is_empty() {
                String::new()
            } else {
                format!(" (failover: {})", leaf.fallbacks.join(", "))
            };
            writeln!(
                f,
                "  leaf {i}  {source} -> {} as {} [{transport}]{failover}{}",
                leaf.target_engine, leaf.temp, leaf.pushdown
            )?;
        }
        for p in &self.placements {
            writeln!(
                f,
                "  placed  object `{}` co-located on {} (epoch {}) — cast elided",
                p.object, p.engine, p.epoch
            )?;
        }
        for (engine, health) in &self.breakers {
            writeln!(
                f,
                "  breaker {engine}: {} ({} consecutive failure{})",
                health.state,
                health.consecutive_failures,
                if health.consecutive_failures == 1 {
                    ""
                } else {
                    "s"
                }
            )?;
        }
        if let Some(cache) = &self.cache {
            writeln!(f, "  cache   {cache}")?;
        }
        Ok(())
    }
}

/// Execute a SCOPE query through the parallel scatter-gather executor.
/// Semantics match [`scope::execute`]; only the schedule differs. When the
/// federation has a result cache installed, cacheable queries are served
/// from it (see [`crate::cache`]).
pub fn execute(bd: &BigDawg, query: &str) -> Result<Batch> {
    crate::cache::execute_cached(bd, query).map(|(batch, _plan)| batch)
}

/// Measured execution of one scatter leaf — the `EXPLAIN ANALYZE`
/// annotation attached to the corresponding [`Leaf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafMetrics {
    /// Rows the leaf materialized on its target engine.
    pub rows: usize,
    /// Bytes that crossed the (emulated) wire; zero for zero-copy.
    pub wire_bytes: usize,
    /// Transport actually used — may differ from the planned one when a
    /// degraded wire forces zero-copy down to the pipelined binary codec.
    pub transport: Transport,
    /// Transient failures retried before the leaf succeeded.
    pub retries: u32,
    /// Leaf wall time: source read (or sub-query), ship, and target write.
    pub wall: Duration,
    /// The part of `wall` spent *acquiring* engine mutexes — contention
    /// with other leaves and other clients, not the engines' own work.
    /// Counted on the leaf's thread and the leaves of its nested scatter.
    pub lock_wait: Duration,
    /// Why a rewrite pushed below this leaf did not run (`parse`,
    /// `missing_column`, `eval_error`, `projection_noop`); empty when every
    /// pushed rewrite applied.
    pub pushdown_skipped: Vec<&'static str>,
}

/// An executed [`Plan`] annotated with measurements — what
/// [`crate::BigDawg::explain_analyze`] returns. The `Display` impl renders
/// the same DAG as [`Plan`]'s, each leaf line carrying its measured rows,
/// wire bytes, transport, retry count, wall time and lock wait, and elided casts
/// keeping their `placed … cast elided` markers.
#[derive(Debug, Clone)]
pub struct AnalyzedPlan {
    /// The plan that ran.
    pub plan: Plan,
    /// Per-leaf measurements, index-aligned with `plan.leaves`.
    pub leaves: Vec<LeafMetrics>,
    /// Wall time of the gather node (island execution of the rewritten
    /// body), excluding scatter.
    pub gather: Duration,
    /// End-to-end wall time: plan + scatter + gather + cleanup — or, on a
    /// cache hit, the (microsecond) lookup itself.
    pub total: Duration,
    /// How the result cache classified this execution.
    pub cache: crate::cache::CacheStatus,
    /// How long the admission controller queued the query before it ran
    /// (zero when admission is off or the query was admitted immediately).
    pub queue_wait: Duration,
    /// Hedged-read outcomes across the query's replica reads.
    pub hedge: HedgeStats,
    /// `(slack, budget)` when the query ran under a deadline: how much of
    /// the budget was left at the end, and the budget itself.
    pub deadline_slack: Option<(Duration, Duration)>,
}

impl fmt::Display for AnalyzedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gather  {}( {} )  (gather {:?}, total {:?})",
            self.plan.island, self.plan.body, self.gather, self.total
        )?;
        for (i, leaf) in self.plan.leaves.iter().enumerate() {
            let source = match &leaf.source {
                LeafSource::Object(o) => format!("cast object `{o}`"),
                LeafSource::SubQuery(q) => format!("sub-query {q}"),
            };
            write!(
                f,
                "  leaf {i}  {source} -> {} as {}{}",
                leaf.target_engine, leaf.temp, leaf.pushdown
            )?;
            let Some(m) = self.leaves.get(i) else {
                writeln!(f, " [{}]  (not run)", leaf.transport)?;
                continue;
            };
            writeln!(
                f,
                " [{}]  ({} rows, {} wire bytes, {} retr{}, {:?}, lock wait {:?})",
                m.transport,
                m.rows,
                m.wire_bytes,
                m.retries,
                if m.retries == 1 { "y" } else { "ies" },
                m.wall,
                m.lock_wait
            )?;
            // a lenient fallback is never silent, and plans whose rewrites
            // all applied render unchanged
            if !m.pushdown_skipped.is_empty() {
                let reasons = m.pushdown_skipped.join(", ");
                writeln!(f, "          pushdown skipped: {reasons}")?;
            }
        }
        for p in &self.plan.placements {
            writeln!(
                f,
                "  placed  object `{}` co-located on {} (epoch {}) — cast elided",
                p.object, p.engine, p.epoch
            )?;
        }
        if self.cache != crate::cache::CacheStatus::Disabled {
            writeln!(f, "  cache   {}", self.cache)?;
        }
        // overload rows appear only when the feature that produces them is
        // on, so plans from deadline-free federations render unchanged
        if !self.queue_wait.is_zero() {
            writeln!(f, "  queued  {:?} waiting for admission", self.queue_wait)?;
        }
        if self.hedge.launched > 0 {
            writeln!(
                f,
                "  hedged  {} read{} raced, {} won by the hedge",
                self.hedge.launched,
                if self.hedge.launched == 1 { "" } else { "s" },
                self.hedge.hedge_wins
            )?;
        }
        if let Some((slack, budget)) = self.deadline_slack {
            writeln!(f, "  slack   {slack:?} of the {budget:?} deadline budget")?;
        }
        Ok(())
    }
}

/// Execute a SCOPE query and return both the result and the plan annotated
/// with per-leaf measurements — the engine behind
/// [`crate::BigDawg::execute_analyzed`]. Routed through the result cache
/// like [`execute`]; a hit reports an empty-leaf plan whose lines render
/// as `(not run)`.
pub fn execute_analyzed(bd: &BigDawg, query: &str) -> Result<(Batch, AnalyzedPlan)> {
    crate::cache::execute_cached(bd, query)
}

/// Plan `body` into a [`Plan`]: parse it once into the typed AST, run the
/// rewrite-pass pipeline ([`crate::plan`]), and lower to the physical
/// scatter-leaf form. Nothing executes here — temp names are reserved and
/// transports chosen, so the same plan can be displayed (`EXPLAIN`) or
/// run.
///
/// Placement resolution happens at plan time: a CAST term naming an object
/// the catalog already places on the target engine (its primary, or a
/// migrator-placed replica) produces **no leaf at all** — the body
/// references the co-located copy by name and the round-trip disappears.
/// Those choices are recorded in [`Plan::placements`] for `EXPLAIN`.
pub fn plan(bd: &BigDawg, island: &str, body: &str) -> Result<Plan> {
    let ast = crate::plan::QueryAst {
        island: island.to_string(),
        body: crate::plan::ast::parse_body(body)?,
    };
    crate::plan::plan_query(bd, &ast, true)
}

/// Run a plan: scatter every leaf concurrently, then gather. Temporaries
/// are dropped whether or not execution succeeds; a leaf failure surfaces
/// after all in-flight leaves finish (not-yet-started leaves are skipped),
/// so sibling sub-queries complete or fail on their own terms and no
/// engine is left mid-operation.
pub fn run(bd: &BigDawg, plan: &Plan) -> Result<Batch> {
    run_measured(bd, plan).map(|(batch, _leaves, _gather)| batch)
}

/// [`run`] plus the measurements `EXPLAIN ANALYZE` reports: per-leaf
/// [`LeafMetrics`] (index-aligned with `plan.leaves`) and the gather node's
/// wall time. `pub(crate)` so the result cache's miss path can execute the
/// plan it snapshotted epochs for and still collect admission evidence
/// (retry counts, wall time).
pub(crate) fn run_measured(
    bd: &BigDawg,
    plan: &Plan,
) -> Result<(Batch, Vec<LeafMetrics>, Duration)> {
    let result = scatter(bd, &plan.leaves).and_then(|leaves| {
        // a deadline that expired during the scatter must not start the
        // gather: the temps below are dropped either way
        deadline::check_current()?;
        let gather_started = Instant::now();
        let gather_span = bd.tracer().span("exec.gather", &plan.island);
        let batch = bd.island_execute(&plan.island, &plan.body)?;
        drop(gather_span);
        Ok((batch, leaves, gather_started.elapsed()))
    });
    for leaf in &plan.leaves {
        let _ = bd.drop_object(&leaf.temp);
    }
    result
}

/// Run a plan with the serial reference schedule: leaves one at a time, in
/// plan order, stopping at the first failure — the exact semantics
/// [`run`]'s scatter provides, minus the overlap. Shared with
/// [`scope::execute`] so the two schedules can never parse or clean up a
/// query differently.
pub(crate) fn run_serial(bd: &BigDawg, plan: &Plan) -> Result<Batch> {
    let parent = bd.tracer().current();
    let result = plan
        .leaves
        .iter()
        .try_for_each(|leaf| run_leaf(bd, leaf, Schedule::Serial, parent).map(|_| ()))
        .and_then(|()| {
            deadline::check_current()?;
            let _gather_span = bd.tracer().span("exec.gather", &plan.island);
            bd.island_execute(&plan.island, &plan.body)
        });
    for leaf in &plan.leaves {
        let _ = bd.drop_object(&leaf.temp);
    }
    result
}

/// Number of scatter workers. Wider than the CPU count on small machines:
/// leaves spend their time inside per-engine locks and (in a distributed
/// deployment) network waits, so concurrency pays even without parallelism.
fn scatter_width() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(4, 16)
}

/// Materialize every leaf, independent leaves concurrently. The worker pool
/// mirrors [`crate::cast`]'s partitioned codec: a fixed set of scoped
/// threads pulling leaf indices from a shared counter. On success returns
/// the per-leaf measurements, index-aligned with `leaves`.
fn scatter(bd: &BigDawg, leaves: &[Leaf]) -> Result<Vec<LeafMetrics>> {
    // the query span lives on this thread's stack; workers parent their
    // leaf spans under it explicitly since TLS does not cross threads —
    // and install the coordinator's query context the same way, so every
    // blocking point on a worker checks the same token and deadline
    let parent = bd.tracer().current();
    let ctx = deadline::current();
    match leaves.len() {
        0 => Ok(Vec::new()),
        // degenerate scatter: no threads for a single leaf
        1 => run_leaf(bd, &leaves[0], Schedule::Parallel, parent).map(|m| vec![m]),
        n => {
            let next = AtomicUsize::new(0);
            let failure: Mutex<Option<BigDawgError>> = Mutex::new(None);
            let failed = || failure.lock().unwrap_or_else(|p| p.into_inner()).is_some();
            let runs: Vec<Mutex<Option<LeafMetrics>>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..scatter_width().min(n) {
                    let ctx = ctx.clone();
                    let (next, failure, failed, runs) = (&next, &failure, &failed, &runs);
                    s.spawn(move || {
                        let _ctx_guard = ctx.map(deadline::enter);
                        loop {
                            // after a failure, in-flight leaves finish (no
                            // engine is left mid-operation) but
                            // not-yet-started ones are skipped — their
                            // temps would be dropped unused anyway
                            if failed() {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(leaf) = leaves.get(i) else { break };
                            match run_leaf(bd, leaf, Schedule::Parallel, parent) {
                                Ok(m) => {
                                    *runs[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(m);
                                }
                                Err(e) => {
                                    let mut slot =
                                        failure.lock().unwrap_or_else(|p| p.into_inner());
                                    slot.get_or_insert(e);
                                }
                            }
                        }
                    });
                }
            });
            match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
                Some(e) => Err(e),
                None => {
                    let runs: Vec<LeafMetrics> = runs
                        .into_iter()
                        .map(|m| {
                            m.into_inner()
                                .unwrap_or_else(|p| p.into_inner())
                                .expect("no failure recorded, so every leaf ran")
                        })
                        .collect();
                    // what the workers waited counts against this thread
                    // too: an enclosing leaf reports its sub-DAG's waits
                    add_lock_wait(runs.iter().map(|m| m.lock_wait).sum());
                    Ok(runs)
                }
            }
        }
    }
}

/// Which schedule a leaf's nested sub-query recurses into.
#[derive(Clone, Copy)]
enum Schedule {
    Parallel,
    Serial,
}

/// A leaf's span label, formatted lazily so a disabled tracer allocates
/// nothing. Temp names stay out of the label — they are counter-generated
/// and would make golden traces depend on federation history.
struct LeafLabel<'a>(&'a Leaf);

impl fmt::Display for LeafLabel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.source {
            LeafSource::Object(o) => write!(f, "{o} -> {}", self.0.target_engine),
            LeafSource::SubQuery(_) => write!(f, "subquery -> {}", self.0.target_engine),
        }
    }
}

/// Execute one leaf: ship an object or run a nested scope query (a
/// sub-DAG, recursively scattered — or recursively serial under the
/// reference schedule) and materialize the result. The CAST measurement
/// feeds the monitor's transport cost model; the returned [`LeafMetrics`]
/// feed `EXPLAIN ANALYZE`.
fn run_leaf(bd: &BigDawg, leaf: &Leaf, schedule: Schedule, parent: u64) -> Result<LeafMetrics> {
    deadline::check_current()?;
    let _leaf_span = bd.tracer().span_under(parent, "exec.leaf", LeafLabel(leaf));
    let started = Instant::now();
    let lock_wait_before = lock_wait_on_this_thread();
    let result = (|| {
        let (report, retries, pushdown_skipped) = match &leaf.source {
            LeafSource::Object(object) => bd.cast_object_attempts(
                object,
                &leaf.target_engine,
                &leaf.temp,
                leaf.transport,
                true,
                &leaf.pushdown,
            )?,
            LeafSource::SubQuery(query) => {
                let batch = match schedule {
                    Schedule::Parallel => execute(bd, query)?,
                    Schedule::Serial => scope::execute(bd, query)?,
                };
                let (report, retries) =
                    bd.materialize(batch, &leaf.target_engine, &leaf.temp, leaf.transport)?;
                (report, retries, Vec::new())
            }
        };
        bd.monitor().lock().record_cast(&report);
        Ok(LeafMetrics {
            rows: report.rows,
            wire_bytes: report.wire_bytes,
            transport: report.transport,
            retries,
            wall: started.elapsed(),
            lock_wait: lock_wait_on_this_thread() - lock_wait_before,
            pushdown_skipped,
        })
    })();
    // leaf wall time feeds the query context win or lose: a deadline error
    // names the slowest leaf, and an abandoned leaf is usually it
    if let Some(ctx) = deadline::current() {
        ctx.note_leaf(&LeafLabel(leaf).to_string(), started.elapsed());
        if result.is_err() {
            ctx.note_unreachable(&LeafLabel(leaf).to_string());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shims::{ArrayShim, KvShim, RelationalShim};
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
        scidb.store("a", Array::from_vector("a", "v", &[3.0, 6.0, 9.0, 12.0], 2));
        bd.add_engine(Box::new(scidb));
        let mut kv = KvShim::new("accumulo");
        kv.index_document(1, "p1", 0, "very sick");
        bd.add_engine(Box::new(kv));
        bd
    }

    #[test]
    fn plan_decomposes_casts_without_executing() {
        let bd = federation();
        let before = bd.catalog().read().len();
        let p = plan(
            &bd,
            "RELATIONAL",
            "SELECT * FROM CAST(a, relation) x JOIN CAST(ARRAY(filter(a, v > 3)), relation) y ON x.i = y.i",
        )
        .unwrap();
        assert_eq!(p.leaves.len(), 2);
        assert_eq!(p.leaves[0].source, LeafSource::Object("a".into()));
        assert_eq!(
            p.leaves[1].source,
            LeafSource::SubQuery("ARRAY(filter(a, v > 3))".into())
        );
        assert!(p.body.contains(&p.leaves[0].temp));
        assert!(p.body.contains(&p.leaves[1].temp));
        assert!(!p.body.to_ascii_uppercase().contains("CAST("));
        // planning materialized nothing
        assert_eq!(bd.catalog().read().len(), before);
        let rendered = p.to_string();
        assert!(rendered.contains("gather") && rendered.contains("leaf 1"));
    }

    #[test]
    fn degenerate_plan_has_no_leaves() {
        let bd = federation();
        let p = plan(&bd, "POSTGRES", "SELECT * FROM patients").unwrap();
        assert!(p.is_degenerate());
        assert_eq!(p.body, "SELECT * FROM patients");
        let b = run(&bd, &p).unwrap();
        assert_eq!(b.len(), 3);
    }

    // NOTE: the parallel==serial equivalence property is covered once, by
    // `assert_parallel_matches_serial` in `tests/support/mod.rs`, shared by
    // the executor-concurrency and workspace property suites.

    #[test]
    fn multi_leaf_scatter_gathers_across_three_engines() {
        let bd = federation();
        let b = execute(
            &bd,
            "RELATIONAL(SELECT p.id, x.v, n.docs FROM patients p \
             JOIN CAST(a, relation) x ON p.id = x.i \
             JOIN CAST(ACCUMULO(count()), relation) n ON 1 = 1 \
             ORDER BY p.id)",
        )
        .unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.rows()[0][1], Value::Float(6.0));
        assert_eq!(b.rows()[0][2], Value::Int(1));
        assert_eq!(bd.catalog().read().len(), 3, "temps cleaned up");
    }

    #[test]
    fn leaf_error_does_not_poison_other_engines() {
        let bd = federation();
        let err = execute(
            &bd,
            "RELATIONAL(SELECT * FROM CAST(a, relation) x \
             JOIN CAST(ARRAY(filter(ghost, v > 0)), relation) y ON x.i = y.i)",
        )
        .unwrap_err();
        assert_eq!(err.kind(), "not_found");
        // every engine still answers, and no temps leaked
        assert!(execute(&bd, "RELATIONAL(SELECT COUNT(*) FROM patients)").is_ok());
        assert!(execute(&bd, "ARRAY(aggregate(a, sum, v))").is_ok());
        assert!(execute(&bd, "ACCUMULO(count())").is_ok());
        assert_eq!(bd.catalog().read().len(), 3);
    }

    #[test]
    fn colocated_replica_elides_the_leaf() {
        let bd = federation();
        let q = "SELECT COUNT(*) AS n FROM CAST(a, relation) WHERE v > 3";
        // without a co-located copy the term is a real leaf
        assert_eq!(plan(&bd, "RELATIONAL", q).unwrap().leaves.len(), 1);
        // replicate `a` onto the gather engine: the leaf disappears
        bd.replicate_object("a", "postgres", Transport::Binary)
            .unwrap();
        let p = plan(&bd, "RELATIONAL", q).unwrap();
        assert!(p.is_degenerate(), "no scatter work left");
        assert_eq!(p.placements.len(), 1);
        assert_eq!(p.placements[0].object, "a");
        assert_eq!(p.placements[0].engine, "postgres");
        assert!(p.body.contains("FROM a "), "body references the copy");
        assert!(p.to_string().contains("cast elided"));
        let b = run(&bd, &p).unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn nested_subquery_scatters_recursively() {
        let bd = federation();
        // the ARRAY sub-query has its own CAST leaf (patients → scidb), so
        // it forms a sub-DAG that scatters inside the outer leaf
        let b = execute(
            &bd,
            "RELATIONAL(SELECT * FROM \
             CAST(ARRAY(aggregate(CAST(patients, scidb), avg, age)), relation))",
        )
        .unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows()[0][0], Value::Float(67.0));
        assert_eq!(bd.catalog().read().len(), 3, "all sub-DAG temps cleaned");
    }

    #[test]
    fn skipped_pushdown_is_counted_traced_and_explained_by_reason() {
        const REASONS: [&str; 4] = ["parse", "missing_column", "eval_error", "projection_noop"];
        let mut bd = federation();
        bd.add_engine(Box::new(RelationalShim::new("pg2")));
        let sink = std::sync::Arc::new(bigdawg_common::CollectingSink::new());
        bd.set_trace_sink(sink.clone());
        let count = |reason: &str| {
            let labels = [("reason", reason)];
            bd.metrics()
                .counter_value(&bigdawg_common::metrics::labeled(
                    "bigdawg_pushdown_skipped_total",
                    &labels,
                ))
        };
        // (pushed predicate, pushed columns) → reasons skipped, rows shipped
        type Case<'a> = (Option<&'a str>, Option<&'a [&'a str]>, &'a [&'a str], i64);
        let table: [Case; 7] = [
            (Some("age >= 60"), Some(&["id"]), &[], 2),
            (Some("age >>> 1"), None, &["parse"], 3),
            (Some("ghost > 1"), None, &["missing_column"], 3),
            (Some("10 / (age - 50) > 1"), None, &["eval_error"], 3),
            (None, Some(&["age", "id"]), &["projection_noop"], 3),
            (None, Some(&["ghost"]), &["projection_noop"], 3),
            (
                Some("ghost > 1"),
                Some(&["age", "id"]),
                &["missing_column", "projection_noop"],
                3,
            ),
        ];
        for (predicate, columns, skipped, shipped) in table {
            let temp = bd.temp_name();
            let plan = Plan {
                island: "PG2".into(),
                body: format!("SELECT COUNT(*) FROM {temp}"),
                leaves: vec![Leaf {
                    source: LeafSource::Object("patients".into()),
                    target_engine: "pg2".into(),
                    temp,
                    transport: Transport::Binary,
                    fallbacks: Vec::new(),
                    pushdown: LeafPushdown {
                        predicate: predicate.map(str::to_string),
                        columns: columns.map(|c| c.iter().map(|s| s.to_string()).collect()),
                    },
                }],
                placements: Vec::new(),
                breakers: Vec::new(),
                cache: None,
            };
            let before = REASONS.map(count);
            sink.take();
            let (batch, leaves, gather) = run_measured(&bd, &plan).unwrap();
            let case = format!("{}", plan.leaves[0].pushdown);
            // the lenient rule: a skipped rewrite ships the object as read
            assert_eq!(batch.rows()[0][0], Value::Int(shipped), "{case}");
            assert_eq!(leaves[0].pushdown_skipped, skipped, "{case}");
            for (reason, before) in REASONS.iter().zip(before) {
                let fired = skipped.contains(reason) as u64;
                assert_eq!(count(reason) - before, fired, "{case}: {reason}");
            }
            // one event per reason, inside the leaf's span
            let spans = sink.take();
            let leaf_span = spans.iter().find(|s| s.name == "exec.leaf").unwrap();
            let events: Vec<&str> = (spans.iter())
                .filter(|s| s.name == "exec.pushdown_skipped")
                .map(|s| {
                    assert!(leaf_span.start <= s.start && s.end <= leaf_span.end);
                    s.label.as_str()
                })
                .collect();
            assert_eq!(events, skipped, "{case}");
            // EXPLAIN ANALYZE says so on that leaf — and only when it fired
            let rendered = AnalyzedPlan {
                plan,
                leaves,
                gather,
                total: gather,
                cache: crate::cache::CacheStatus::Disabled,
                queue_wait: Duration::ZERO,
                hedge: HedgeStats::default(),
                deadline_slack: None,
            }
            .to_string();
            let note = format!("pushdown skipped: {}\n", skipped.join(", "));
            assert_eq!(rendered.contains("pushdown skipped"), !skipped.is_empty());
            assert!(skipped.is_empty() || rendered.contains(&note), "{rendered}");
        }
    }
}
