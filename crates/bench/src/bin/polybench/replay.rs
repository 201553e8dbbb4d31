//! The traced run: per-layer metrics timed from outside the program.
//!
//! Sampled queries of the workload's own sequence are executed twice — once
//! through `BigDawg::execute_analyzed` (the real pipeline; its
//! `AnalyzedPlan` gives the `exec.*` figures), once step by step through
//! each layer's *public* functions under harness-side spans (parse, catalog
//! lookups, cache probe, admission, planning, then per leaf: shim read,
//! CAST ship, shim ingress; then the island gather and the cleanup). The
//! two answers must agree, and so must the leaf count, the transports and
//! the wire bytes — the table may not drift from the real pipeline.
//!
//! Two things the replay cannot do from outside, and what stands in:
//!
//! * `plan::apply_pushdown` is private. The harness filters and projects
//!   the rows itself (`harness.pushdown` spans, charged to no layer) so the
//!   ship step moves the leaf's real batch; the real filter's cost is
//!   bounded by `exec.leaf_residual_ms`, the real leaf's wall time minus
//!   the replayed read, ship and ingress.
//! * The executor scatters leaves over threads; the replay runs them one
//!   after another. `trace.overhead_frac` therefore compares the replay's
//!   *blocking path* (everything but the leaves that were not the slowest)
//!   with the real query's wall time.

use crate::federations::Scale;
use crate::json::Json;
use crate::load::{self, Bench, Measured};
use crate::report::{Reported, RunResult};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::workloads::{Op, Workload};
use bigdawg_common::{Batch, MetricsRegistry, QueryContext};
use bigdawg_core::exec::{Leaf, LeafSource};
use bigdawg_core::{
    cast, plan, AdmissionController, BigDawg, EngineKind, LeafPushdown, ObjectKind, Transport,
};
use bigdawg_relational::sql::parse_expr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-layer metric: `layer.what_unit`, the layer being a module name.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit }
}

/// Every per-layer metric, in the order the table prints them.
/// `BENCHMARK.json` lists the same names and units.
pub const PER_LAYER: [LayerDef; 37] = [
    layer("plan.ast.parse_us", "us"),
    layer("plan.place_us", "us"),
    layer("plan.optimize_us", "us"),
    layer("plan.leaves", "count"),
    layer("plan.pushed_leaves", "count"),
    layer("admission.admit_us", "us"),
    layer("admission.queue_wait_us", "us"),
    layer("admission.shed", "count"),
    layer("cache.probe_us", "us"),
    layer("cache.hit_ratio", "ratio"),
    layer("cache.stale_drops", "count"),
    layer("cache.evictions", "count"),
    layer("cache.coalesced", "count"),
    layer("catalog.lookup_us", "us"),
    layer("exec.leaf_ms", "ms"),
    layer("exec.leaf_max_ms", "ms"),
    layer("exec.gather_ms", "ms"),
    layer("exec.overhead_ms", "ms"),
    layer("exec.retries", "count"),
    layer("exec.leaf_residual_ms", "ms"),
    layer("shims.read_ms", "ms"),
    layer("shims.read_rows", "count"),
    layer("shims.ingress_ms", "ms"),
    layer("cast.encode_ms", "ms"),
    layer("cast.transfer_ms", "ms"),
    layer("cast.decode_ms", "ms"),
    layer("cast.wire_bytes", "B"),
    layer("cast.bytes_per_row", "B"),
    layer("cast.codec_mb_per_s", "MB/s"),
    layer("pushdown.rows_in", "count"),
    layer("pushdown.rows_out", "count"),
    layer("pushdown.selectivity", "ratio"),
    layer("pushdown.bytes_vs_serial", "ratio"),
    layer("islands.gather_ms", "ms"),
    layer("wire.blocking_sleep_ms", "ms"),
    layer("replay.unattributed_ms", "ms"),
    layer("trace.overhead_frac", "ratio"),
];

/// At most this many queries are sampled for the replay.
const MAX_SAMPLES: usize = 300;

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// The same lenient filter-then-project `plan::physical::apply_pushdown`
/// performs, from the relational crate's public expression evaluator: a
/// rewrite that cannot apply ships the rows as read.
fn emulate_pushdown(batch: &Batch, push: &LeafPushdown) -> Batch {
    let mut out = batch.clone();
    if let Some(expr) = push.predicate.as_deref().and_then(|p| parse_expr(p).ok()) {
        let schema = out.schema().clone();
        if expr.columns().iter().all(|c| schema.index_of(c).is_ok()) {
            let kept: Result<Vec<_>, _> = out
                .rows()
                .iter()
                .filter_map(|row| match expr.matches(&schema, row) {
                    Ok(true) => Some(Ok(row.clone())),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                })
                .collect();
            if let Ok(rows) = kept {
                out = Batch::from_parts_trusted(schema, rows);
            }
        }
    }
    if let Some(keep) = &push.columns {
        let schema = out.schema();
        let names: Vec<&str> = keep
            .iter()
            .map(String::as_str)
            .filter(|n| schema.index_of(n).is_ok())
            .collect();
        if !names.is_empty() && names.len() < schema.len() {
            if let Ok(projected) = out.project(&names) {
                out = projected;
            }
        }
    }
    out
}

/// What the catalog calls an object that lands on `engine`.
fn landed_kind(bd: &BigDawg, engine: &str) -> Result<ObjectKind, String> {
    Ok(match bd.kind_of(engine).map_err(|e| err(engine, e))? {
        EngineKind::Relational => ObjectKind::Table,
        EngineKind::Array | EngineKind::TileStore => ObjectKind::Array,
        EngineKind::Streaming => ObjectKind::Stream,
        EngineKind::KeyValue => ObjectKind::Corpus,
        EngineKind::Compute => ObjectKind::Dataset,
    })
}

/// One replayed leaf, for the fidelity checks and the layer sums.
pub struct ReplayedLeaf {
    /// What `cast::ship_with_wire` reported: rows, wire bytes, transport
    /// actually used, encode / transfer / decode times.
    pub report: cast::CastReport,
    pub pushed: bool,
    /// Rows the source handed over before any pushdown (object leaves).
    rows_read: usize,
    read_ns: u64,
    ship_ns: u64,
    put_ns: u64,
    /// The whole leaf, the harness's stand-in for the pushed filter included.
    span_ns: u64,
    /// Configured wire delays the leaf slept through: request, payload.
    sleep: (Duration, Duration),
    /// What was shipped, kept for the codec throughput measurement.
    shipped: Batch,
}

/// One replayed query.
pub struct Replayed {
    /// `None` when the real pipeline would have answered from the cache:
    /// only the front door was replayed.
    pub answer: Option<Batch>,
    pub leaves: Vec<ReplayedLeaf>,
    parse_ns: u64,
    lookup_ns: u64,
    probe_ns: u64,
    admit_ns: u64,
    place_ns: u64,
    optimize_ns: u64,
    gather_ns: u64,
    cleanup_ns: u64,
    wall_ns: u64,
    /// Time inside the query and its leaves that no layer's span covers.
    unattributed_ns: u64,
    gather_sleep: Duration,
}

impl Replayed {
    /// Wall time had the leaves run side by side: everything but the
    /// leaves that were not the slowest.
    fn blocking_path_ns(&self) -> u64 {
        let all: u64 = self.leaves.iter().map(|l| l.span_ns).sum();
        let slowest = self.leaves.iter().map(|l| l.span_ns).max().unwrap_or(0);
        self.wall_ns - (all - slowest)
    }

    fn blocking_sleep(&self) -> Duration {
        let slowest = self.leaves.iter().max_by_key(|l| l.span_ns);
        slowest.map_or(Duration::ZERO, |l| l.sleep.0 + l.sleep.1) + self.gather_sleep
    }
}

/// Replays queries against one federation, recording spans.
pub struct Replayer<'a> {
    bd: &'a BigDawg,
    pub recorder: Recorder,
    /// A gate of the workload's own configuration, held by the harness:
    /// the federation's is not reachable, and admitting through a second
    /// one leaves the federation's books alone.
    gate: Option<AdmissionController>,
}

impl<'a> Replayer<'a> {
    pub fn new(bd: &'a BigDawg) -> Self {
        Replayer {
            bd,
            recorder: Recorder::new(),
            gate: bd
                .admission_config()
                .map(|config| AdmissionController::new(config, Arc::new(MetricsRegistry::new()))),
        }
    }

    /// Replay `query` step by step. `front_door_only` stops after the
    /// steps a cache hit takes.
    pub fn replay(
        &mut self,
        id: u64,
        query: &str,
        front_door_only: bool,
    ) -> Result<Replayed, String> {
        let bd = self.bd;
        let gate = self.gate.as_ref();
        self.recorder.begin_query(id);
        let first_span = self.recorder.spans().len();
        let (outcome, root) = self.recorder.span("replay.query", |rec| {
            replay_steps(bd, gate, rec, query, front_door_only)
        });
        let mut replayed = outcome?;
        let all = self.recorder.spans();
        let self_ns = spans::self_times_ns(&all[first_span..], first_span);
        replayed.wall_ns = all[root].duration_ns();
        replayed.unattributed_ns = all[first_span..]
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| matches!(s.name, "replay.query" | "exec.leaf"))
            .map(|(_, ns)| *ns)
            .sum();
        Ok(replayed)
    }
}

fn replay_steps(
    bd: &BigDawg,
    gate: Option<&AdmissionController>,
    rec: &mut Recorder,
    query: &str,
    front_door_only: bool,
) -> Result<Replayed, String> {
    // ---- the front door: what every query pays, hit or miss
    let (ast, parse_ns) = rec.time("plan.ast.parse", || plan::parse_query(query));
    let ast = ast.map_err(|e| err(query, e))?;
    let body = ast.body.render();
    let ((), lookup_ns) = rec.time("catalog.lookup", || {
        // the cache snapshots the placement epoch of every word of the
        // body that names a cataloged object
        for word in body.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            let _ = std::hint::black_box(bd.placement(word));
        }
    });
    let probe_ns = bd.result_cache().map_or(0, |cache| {
        rec.time("cache.probe", || cache.probe(bd, &ast.island, &body))
            .1
    });
    let admit_ns = match gate {
        None => 0,
        Some(gate) => {
            let clock = bd.query_clock();
            let (admitted, ns) = rec.time("admission.admit", || {
                gate.admit(&QueryContext::unbounded(), clock.as_ref())
                    .map(drop)
            });
            admitted.map_err(|e| err("admission", e))?;
            ns
        }
    };
    let mut replayed = Replayed {
        answer: None,
        leaves: Vec::new(),
        parse_ns,
        lookup_ns,
        probe_ns,
        admit_ns,
        place_ns: 0,
        optimize_ns: 0,
        gather_ns: 0,
        cleanup_ns: 0,
        wall_ns: 0,
        unattributed_ns: 0,
        gather_sleep: Duration::ZERO,
    };
    if front_door_only {
        return Ok(replayed);
    }

    // ---- planning: placement only, then the full pass pipeline
    let (placed, place_ns) = rec.time("plan.place", || plan::plan_query(bd, &ast, false));
    placed.map_err(|e| err(query, e))?;
    let (planned, optimize_ns) = rec.time("plan.optimize", || plan::plan_query(bd, &ast, true));
    let planned = planned.map_err(|e| err(query, e))?;
    replayed.place_ns = place_ns;
    replayed.optimize_ns = optimize_ns.saturating_sub(place_ns);

    // ---- the leaves, one after another
    let mut failure = None;
    for leaf in &planned.leaves {
        match replay_leaf(bd, rec, leaf) {
            Ok(done) => replayed.leaves.push(done),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }

    // ---- gather on the island, then drop the temporaries
    if failure.is_none() {
        let (answer, gather_ns) = rec.time("islands.gather", || {
            bd.island_execute(&planned.island, &planned.body)
        });
        replayed.gather_ns = gather_ns;
        // a degenerate island is the engine's native language and pays the
        // wire; the language islands run on co-located fast paths
        replayed.gather_sleep = bd.wire_of(&planned.island.to_ascii_lowercase());
        match answer {
            Ok(batch) => replayed.answer = Some(batch),
            Err(e) => failure = Some(err(query, e)),
        }
    }
    let ((), cleanup_ns) = rec.time("shims.ingress", || {
        for leaf in planned.leaves.iter().take(replayed.leaves.len()) {
            let _ = bd.drop_object(&leaf.temp);
        }
    });
    replayed.cleanup_ns = cleanup_ns;
    match failure {
        Some(e) => Err(e),
        None => Ok(replayed),
    }
}

fn replay_leaf(bd: &BigDawg, rec: &mut Recorder, leaf: &Leaf) -> Result<ReplayedLeaf, String> {
    let (done, span) = rec.span("exec.leaf", |rec| -> Result<ReplayedLeaf, String> {
        let locked = |engine: &str| bd.engine(engine).map_err(|e| err(engine, e));
        // read: an object straight off its engine, or a pushed-down
        // sub-query in the engine's native language
        let (batch, read_ns, request, payload) = match &leaf.source {
            LeafSource::Object(object) => {
                let source = bd.locate(object).map_err(|e| err(object, e))?;
                let engine = locked(&source)?;
                let (read, ns) = rec.time("shims.read", || engine.lock().get_table(object));
                let wire = bd.wire_of(&source);
                (read.map_err(|e| err(object, e))?, ns, wire, wire)
            }
            LeafSource::SubQuery(sub) => {
                let sub_ast = plan::parse_query(sub).map_err(|e| err(sub, e))?;
                let native = sub_ast.island.to_ascii_lowercase();
                if sub_ast.body.casts.is_empty() && bd.engine_names().contains(&native.as_str()) {
                    let engine = locked(&native)?;
                    let text = sub_ast.body.render();
                    let (read, ns) = rec.time("shims.read", || engine.lock().execute_native(&text));
                    let wire = bd.wire_of(&native);
                    (
                        read.map_err(|e| err(sub, e))?.narrow_types(),
                        ns,
                        wire,
                        Duration::ZERO,
                    )
                } else {
                    // a nested scatter: no single layer to charge, run it whole
                    let (read, ns) = rec.time("exec.subquery", || bd.execute(sub));
                    (
                        read.map_err(|e| err(sub, e))?.narrow_types(),
                        ns,
                        Duration::ZERO,
                        Duration::ZERO,
                    )
                }
            }
        };
        let rows_read = batch.len();
        let pushed = !leaf.pushdown.is_empty();
        let to_ship = if pushed {
            rec.time("harness.pushdown", || {
                emulate_pushdown(&batch, &leaf.pushdown)
            })
            .0
        } else {
            batch
        };
        // ship: zero-copy cannot reach an engine behind a wire
        let transport =
            if leaf.transport == Transport::ZeroCopy && !bd.co_resident(&leaf.target_engine) {
                Transport::Binary
            } else {
                leaf.transport
            };
        let (shipped, ship_ns) = rec.time("cast.ship", || {
            cast::ship_with_wire(&to_ship, transport, payload)
        });
        let (landed, report) = shipped.map_err(|e| err("cast", e))?;
        // ingress: land the rows on the target and tell the catalog
        let kind = landed_kind(bd, &leaf.target_engine)?;
        let target = locked(&leaf.target_engine)?;
        let (put, put_ns) = rec.time("shims.ingress", || {
            target.lock().put_table(&leaf.temp, landed)?;
            bd.register_object(&leaf.temp, &leaf.target_engine, kind)
        });
        put.map_err(|e| err(&leaf.temp, e))?;
        let crossed_wire = report.transport != Transport::ZeroCopy;
        Ok(ReplayedLeaf {
            pushed,
            rows_read,
            read_ns,
            ship_ns,
            put_ns,
            span_ns: 0,
            sleep: (
                request,
                if crossed_wire {
                    payload
                } else {
                    Duration::ZERO
                },
            ),
            report,
            shipped: to_ship,
        })
    });
    let mut done = done?;
    done.span_ns = rec.spans()[span].duration_ns();
    Ok(done)
}

/// Does the replay of `query` agree with the real pipeline? The answers
/// must match row for row; leaf count, transports and rows must match
/// `execute_analyzed`'s, and so must the wire bytes of every leaf that
/// carried no pushdown (a pushed leaf's bytes depend on the harness's
/// stand-in filter, which is only held to the row count).
pub fn fidelity(
    replayed: &Replayed,
    real_answer: &Batch,
    real: &bigdawg_core::AnalyzedPlan,
) -> Result<(), String> {
    let answer = replayed
        .answer
        .as_ref()
        .ok_or("the replay produced no answer")?;
    if answer.rows() != real_answer.rows() {
        return Err("the replay's answer differs from execute's".into());
    }
    if replayed.leaves.len() != real.leaves.len() {
        return Err(format!(
            "the replay ran {} leaves, the executor {}",
            replayed.leaves.len(),
            real.leaves.len()
        ));
    }
    for (i, (mine, theirs)) in replayed.leaves.iter().zip(&real.leaves).enumerate() {
        let mine_report = &mine.report;
        if mine_report.transport != theirs.transport {
            return Err(format!(
                "leaf {i}: transport {} vs {}",
                mine_report.transport, theirs.transport
            ));
        }
        if mine_report.rows != theirs.rows {
            return Err(format!(
                "leaf {i}: {} rows vs {}",
                mine_report.rows, theirs.rows
            ));
        }
        if !mine.pushed && mine_report.wire_bytes != theirs.wire_bytes {
            return Err(format!(
                "leaf {i}: {} wire bytes vs {}",
                mine_report.wire_bytes, theirs.wire_bytes
            ));
        }
    }
    Ok(())
}

/// Sums over the sampled queries; every reported figure is one of these
/// divided by a count.
#[derive(Default)]
struct Totals {
    sampled: f64,
    executed: f64,
    parse_ns: f64,
    lookup_ns: f64,
    probe_ns: f64,
    admit_ns: f64,
    place_ns: f64,
    optimize_ns: f64,
    leaves: f64,
    pushed_leaves: f64,
    real_leaf_ns: f64,
    real_leaf_max_ns: f64,
    real_gather_ns: f64,
    real_overhead_ns: f64,
    retries: f64,
    residual_ns: f64,
    read_ns: f64,
    read_rows: f64,
    ingress_ns: f64,
    encode_ns: f64,
    transfer_ns: f64,
    decode_ns: f64,
    wire_bytes: f64,
    shipped_rows: f64,
    codec_bytes: f64,
    codec_ns: f64,
    rows_in: f64,
    rows_out: f64,
    gather_ns: f64,
    blocking_sleep_ns: f64,
    unattributed_ns: f64,
    wall_ns: f64,
    blocking_path_ns: Vec<f64>,
    real_total_ns: Vec<f64>,
}

impl Totals {
    fn add(&mut self, replayed: &Replayed, real: &bigdawg_core::AnalyzedPlan) {
        let ns = |d: Duration| d.as_nanos() as f64;
        self.sampled += 1.0;
        self.parse_ns += replayed.parse_ns as f64;
        self.lookup_ns += replayed.lookup_ns as f64;
        self.probe_ns += replayed.probe_ns as f64;
        self.admit_ns += replayed.admit_ns as f64;
        self.unattributed_ns += replayed.unattributed_ns as f64;
        self.wall_ns += replayed.wall_ns as f64;
        self.blocking_path_ns
            .push(replayed.blocking_path_ns() as f64);
        self.real_total_ns.push(ns(real.total));
        if replayed.answer.is_none() {
            return;
        }
        self.executed += 1.0;
        self.place_ns += replayed.place_ns as f64;
        self.optimize_ns += replayed.optimize_ns as f64;
        self.gather_ns += replayed.gather_ns as f64;
        self.ingress_ns += replayed.cleanup_ns as f64;
        self.blocking_sleep_ns += ns(replayed.blocking_sleep());
        let slowest = real.leaves.iter().map(|m| m.wall).max().unwrap_or_default();
        self.real_leaf_max_ns += ns(slowest);
        self.real_gather_ns += ns(real.gather);
        self.real_overhead_ns += ns(real.total.saturating_sub(slowest + real.gather));
        for (mine, theirs) in replayed.leaves.iter().zip(&real.leaves) {
            self.leaves += 1.0;
            self.real_leaf_ns += ns(theirs.wall);
            self.retries += f64::from(theirs.retries);
            // the read's figure leaves out the request's configured delay
            self.read_ns += mine.read_ns as f64 - ns(mine.sleep.0);
            self.read_rows += mine.rows_read as f64;
            self.ingress_ns += mine.put_ns as f64;
            self.encode_ns += ns(mine.report.encode);
            self.transfer_ns += ns(mine.report.transfer);
            self.decode_ns += ns(mine.report.decode);
            self.wire_bytes += mine.report.wire_bytes as f64;
            self.shipped_rows += mine.report.rows as f64;
            if mine.pushed {
                self.pushed_leaves += 1.0;
                self.rows_in += mine.rows_read as f64;
                self.rows_out += theirs.rows as f64;
                self.residual_ns +=
                    ns(theirs.wall) - (mine.read_ns + mine.ship_ns + mine.put_ns) as f64;
            }
            if mine.report.wire_bytes > 0 {
                // the codec by itself: one chunk, one thread, no wire
                let started = Instant::now();
                let parts = cast::encode_columnar(&mine.shipped, mine.shipped.len().max(1));
                let decoded = cast::decode_columnar(&parts, mine.shipped.schema());
                self.codec_ns += started.elapsed().as_nanos() as f64;
                self.codec_bytes += parts.iter().map(Vec::len).sum::<usize>() as f64;
                drop(std::hint::black_box(decoded));
            }
        }
    }
}

/// Counters of the load window that only the program keeps.
struct WindowCounters {
    hit_ratio: f64,
    stale_drops: f64,
    evictions: f64,
    coalesced: f64,
    shed: f64,
    queue_wait_us: f64,
}

fn window_counters(bd: &BigDawg) -> impl FnOnce(&BigDawg) -> WindowCounters {
    let queue_wait = |bd: &BigDawg| {
        let h = bd
            .metrics()
            .histogram("bigdawg_admission_queue_wait_microseconds");
        (h.sum().as_secs_f64() * 1e6, h.count() as f64)
    };
    let cache = bd.cache_stats().unwrap_or_default();
    let shed = bd.admission_stats().map_or(0, |s| s.shed());
    let waited = queue_wait(bd);
    move |bd: &BigDawg| {
        let now = bd.cache_stats().unwrap_or_default();
        let waited_now = queue_wait(bd);
        let admitted = waited_now.1 - waited.1;
        WindowCounters {
            hit_ratio: load::hit_ratio(&cache, &now).unwrap_or(0.0),
            stale_drops: (now.stale_drops - cache.stale_drops) as f64,
            evictions: (now.evictions - cache.evictions) as f64,
            coalesced: (now.coalesced - cache.coalesced) as f64,
            shed: (bd.admission_stats().map_or(0, |s| s.shed()) - shed) as f64,
            queue_wait_us: if admitted == 0.0 {
                0.0
            } else {
                (waited_now.0 - waited.0) / admitted
            },
        }
    }
}

/// The traced run of one workload: a short untraced load window for the
/// counters only the program keeps (cache, admission), then the sampled
/// replay with one client. Writes every span to `spans_out`, if given.
pub fn trace_workload(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    spans_out: Option<&std::path::Path>,
) -> Result<RunResult, String> {
    let bench = Bench::set_up(workload, scale, seed)?;
    let pool = bench.reads.len();
    let sequences = workload.sequences(seed, pool);
    let share = |part: f64| Duration::from_secs_f64(seconds * part);

    load::run_window(&bench, &sequences, share(0.1));
    let counters_since = window_counters(&bench.bd);
    let window = load::run_window(&bench, &sequences, share(0.3));
    let counters = counters_since(&bench.bd);
    let mut attempted = window.records.len();
    let mut failed = window.records.iter().filter(|r| !r.ok).count();

    let mut replayer = Replayer::new(&bench.bd);
    let mut totals = Totals::default();
    let mut problems: Vec<String> = Vec::new();
    let started = Instant::now();
    for (id, op) in sequences[0].iter().cycle().enumerate() {
        if totals.sampled as usize >= MAX_SAMPLES || started.elapsed() >= share(0.6) {
            break;
        }
        attempted += 1;
        let Op::Read(i) = *op else {
            // a write of the sequence: not sampled, but it happens
            failed += usize::from(!bench.run_op(*op).1);
            continue;
        };
        let text = &bench.reads[i].text;
        let outcome = bench
            .bd
            .execute_analyzed(text)
            .map_err(|e| err(text, e))
            .and_then(|(answer, real)| {
                if !bench.check_read(i, &answer, 0) {
                    return Err(format!("wrong answer to {text}"));
                }
                let hit = real.cache == bigdawg_core::CacheStatus::Hit;
                let replayed = replayer.replay(id as u64, text, hit)?;
                if !hit {
                    fidelity(&replayed, &answer, &real).map_err(|e| err(text, e))?;
                }
                totals.add(&replayed, &real);
                Ok(())
            });
        if let Err(e) = outcome {
            failed += 1;
            problems.push(e);
        }
    }
    let landed = bench.check_writes_landed();
    problems.extend(landed.err());
    for p in problems.iter().take(5) {
        eprintln!("polybench: {p}");
    }

    if let Some(path) = spans_out {
        let span_file = Json::obj([
            ("workload", Json::Str(workload.name().into())),
            ("seed", Json::Num(seed as f64)),
            ("spans", spans::to_json(replayer.recorder.spans())),
        ]);
        std::fs::write(path, span_file.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let t = &totals;
    let per = |sum: f64, n: f64| if n == 0.0 { 0.0 } else { sum / n };
    let (us, ms) = (1e-3, 1e-6);
    let real_p50 = stats::median(&t.real_total_ns).unwrap_or(f64::NAN);
    // name by name, in the order of `PER_LAYER`
    let values = [
        ("plan.ast.parse_us", per(t.parse_ns, t.sampled) * us),
        ("plan.place_us", per(t.place_ns, t.executed) * us),
        ("plan.optimize_us", per(t.optimize_ns, t.executed) * us),
        ("plan.leaves", per(t.leaves, t.executed)),
        ("plan.pushed_leaves", per(t.pushed_leaves, t.executed)),
        ("admission.admit_us", per(t.admit_ns, t.sampled) * us),
        ("admission.queue_wait_us", counters.queue_wait_us),
        ("admission.shed", counters.shed),
        ("cache.probe_us", per(t.probe_ns, t.sampled) * us),
        ("cache.hit_ratio", counters.hit_ratio),
        ("cache.stale_drops", counters.stale_drops),
        ("cache.evictions", counters.evictions),
        ("cache.coalesced", counters.coalesced),
        ("catalog.lookup_us", per(t.lookup_ns, t.sampled) * us),
        ("exec.leaf_ms", per(t.real_leaf_ns, t.leaves) * ms),
        ("exec.leaf_max_ms", per(t.real_leaf_max_ns, t.executed) * ms),
        ("exec.gather_ms", per(t.real_gather_ns, t.executed) * ms),
        ("exec.overhead_ms", per(t.real_overhead_ns, t.executed) * ms),
        ("exec.retries", t.retries),
        ("exec.leaf_residual_ms", per(t.residual_ns, t.executed) * ms),
        ("shims.read_ms", per(t.read_ns, t.executed) * ms),
        ("shims.read_rows", per(t.read_rows, t.executed)),
        ("shims.ingress_ms", per(t.ingress_ns, t.executed) * ms),
        ("cast.encode_ms", per(t.encode_ns, t.executed) * ms),
        ("cast.transfer_ms", per(t.transfer_ns, t.executed) * ms),
        ("cast.decode_ms", per(t.decode_ns, t.executed) * ms),
        ("cast.wire_bytes", per(t.wire_bytes, t.executed)),
        ("cast.bytes_per_row", per(t.wire_bytes, t.shipped_rows)),
        (
            "cast.codec_mb_per_s",
            per(t.codec_bytes / 1e6, t.codec_ns / 1e9),
        ),
        ("pushdown.rows_in", per(t.rows_in, t.executed)),
        ("pushdown.rows_out", per(t.rows_out, t.executed)),
        (
            "pushdown.selectivity",
            if t.rows_in == 0.0 {
                1.0
            } else {
                t.rows_out / t.rows_in
            },
        ),
        (
            "pushdown.bytes_vs_serial",
            per(
                bench.pool_wire_bytes.0 as f64,
                bench.pool_wire_bytes.1 as f64,
            ),
        ),
        ("islands.gather_ms", per(t.gather_ns, t.executed) * ms),
        (
            "wire.blocking_sleep_ms",
            per(t.blocking_sleep_ns, t.executed) * ms,
        ),
        (
            "replay.unattributed_ms",
            per(t.unattributed_ns, t.sampled) * ms,
        ),
        (
            "trace.overhead_frac",
            (stats::median(&t.blocking_path_ns).unwrap_or(f64::NAN) - real_p50) / real_p50,
        ),
    ];
    let mut ops = vec![
        ("sampled_queries".to_string(), t.sampled),
        ("replayed_in_full".to_string(), t.executed),
        ("window_operations".to_string(), window.records.len() as f64),
        ("pool".to_string(), pool as f64),
    ];
    // where the replayed time went, span by span: total self time per
    // sampled query
    for (name, (self_ns, _count)) in spans::fold_by_name(replayer.recorder.spans()) {
        ops.push((
            format!("self_ms.{name}"),
            per(self_ns as f64, t.sampled) * ms,
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, (name, value))| {
            assert_eq!(def.name, name, "values follow the order of PER_LAYER");
            Reported {
                name,
                unit: def.unit,
                measured: Measured {
                    value,
                    rounds: Vec::new(),
                },
            }
        })
        .collect();
    Ok(RunResult {
        workload: workload.name(),
        mode: "trace",
        seed,
        seconds,
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        ops,
        metrics,
        // the spans must account for the replayed wall time
        unstable: (t.unattributed_ns > 0.1 * t.wall_ns)
            .then(|| {
                format!(
                    "{:.1} % of the replayed wall time is in no layer's span",
                    100.0 * t.unattributed_ns / t.wall_ns
                )
            })
            .into_iter()
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdawg_common::{DataType, Schema, Value};

    #[test]
    fn emulated_pushdown_filters_projects_and_stays_lenient() {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("v", DataType::Int),
            ("note", DataType::Text),
        ]);
        let rows = (1..=4)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i * 4),
                    Value::Text(format!("n{i}")),
                ]
            })
            .collect();
        let batch = Batch::new(schema, rows).unwrap();
        let push = |predicate: Option<&str>, columns: Option<&[&str]>| LeafPushdown {
            predicate: predicate.map(str::to_string),
            columns: columns.map(|c| c.iter().map(|s| s.to_string()).collect()),
        };
        let out = emulate_pushdown(&batch, &push(Some("v >= 9"), Some(&["id", "v"])));
        assert_eq!((out.len(), out.schema().names()), (2, vec!["id", "v"]));
        // a predicate over a missing column, or one that does not parse,
        // ships the rows as read
        assert_eq!(
            emulate_pushdown(&batch, &push(Some("ghost > 1"), None)).len(),
            4
        );
        assert_eq!(
            emulate_pushdown(&batch, &push(Some("v >>> 1"), None)).len(),
            4
        );
        // a keep-set covering the schema, or missing it entirely, prunes nothing
        let all = emulate_pushdown(&batch, &push(None, Some(&["id", "note", "v"])));
        assert_eq!(all.schema().len(), 3);
        assert_eq!(
            emulate_pushdown(&batch, &push(None, Some(&["ghost"])))
                .schema()
                .len(),
            3
        );
    }

    /// The replay-fidelity test: for every pool query of every workload the
    /// step-by-step replay answers what `execute` answers, with the leaf
    /// count, transports, rows and (pushdown-free) wire bytes of
    /// `execute_analyzed` — and leaves no temporary behind.
    #[test]
    fn replay_matches_the_real_pipeline_on_every_pool_query() {
        let scale = Scale::tiny();
        for workload in Workload::ALL {
            let bench = Bench::set_up(workload, &scale, 11).unwrap();
            // the cache would answer the second execution of each query
            bench.bd.set_result_cache(None);
            let objects = bench.bd.catalog().read().len();
            let mut replayer = Replayer::new(&bench.bd);
            let mut shipped = 0;
            for (i, read) in bench.reads.iter().enumerate() {
                let (answer, real) = bench.bd.execute_analyzed(&read.text).unwrap();
                assert!(bench.check_read(i, &answer, 0), "{}", read.text);
                let replayed = replayer.replay(i as u64, &read.text, false).unwrap();
                fidelity(&replayed, &answer, &real)
                    .unwrap_or_else(|e| panic!("{}: {e}", read.text));
                assert!(!replayed.leaves.is_empty(), "{} scatters", read.text);
                for (mine, theirs) in replayed.leaves.iter().zip(&real.leaves) {
                    // the stand-in filter is a faithful copy today
                    assert_eq!(mine.report.wire_bytes, theirs.wire_bytes, "{}", read.text);
                    shipped += mine.report.wire_bytes;
                }
                assert!(replayed.blocking_path_ns() <= replayed.wall_ns);
            }
            assert!(shipped > 0, "{} crosses the wire", workload.name());
            assert_eq!(
                bench.bd.catalog().read().len(),
                objects,
                "temporaries dropped"
            );
            let names: std::collections::BTreeSet<&str> =
                replayer.recorder.spans().iter().map(|s| s.name).collect();
            for expected in [
                "replay.query",
                "plan.ast.parse",
                "exec.leaf",
                "shims.read",
                "cast.ship",
                "islands.gather",
            ] {
                assert!(
                    names.contains(expected),
                    "{}: no {expected} span",
                    workload.name()
                );
            }
            assert_eq!(
                names.contains("admission.admit"),
                workload == Workload::ZipfCachedRw
            );
        }
    }
}
