//! A shim decorator that injects deterministic failures.
//!
//! Sibling of [`super::latency::LatencyShim`]: where that decorator makes
//! an in-process engine *slow* like a remote one, [`FaultShim`] makes it
//! *unreliable* like one. Every fallible operation — [`Shim::get_table`],
//! [`Shim::put_table`], [`Shim::drop_object`], [`Shim::execute_native`] —
//! increments an operation counter; when the counter lands on a point of
//! a configured [`FaultPlan`], the operation fails with an
//! [`BigDawgError::Execution`] error *before* reaching the wrapped engine,
//! so the engine's state is exactly what a crashed request would leave.
//!
//! Plans are fully deterministic: an explicit operation index
//! ([`FaultPlan::nth`], [`FaultPlan::at`]), an error burst
//! ([`FaultPlan::burst`]), or a seeded pseudo-random schedule
//! ([`FaultPlan::seeded`]) that derives the same failure points for the
//! same seed every run. A plan can be scoped to reads or writes
//! ([`FaultPlan::scoped`]), turned into latency spikes instead of errors
//! ([`FaultPlan::with_latency_spike`]), or made a *crash*
//! ([`FaultPlan::crash_at`]): from the trigger on, every operation fails
//! until [`FaultHandle::restart`] brings the engine back. That makes
//! fault tests reproducible — the torn-placement test in
//! `tests/migration_faults.rs` fails the exact `put_table` in the middle
//! of a migration copy and asserts the catalog still points at the intact
//! source.
//!
//! Observability goes through a [`FaultHandle`]
//! ([`FaultShim::handle`]): per-[`OpKind`] attempt and injection
//! counters, so a test can assert the storm actually exercised the read
//! path (and not just "some op failed") even after the shim is boxed
//! into a federation. The handle stays valid — [`Shim::as_any`]
//! deliberately forwards to the wrapped engine so islands can downcast
//! through the decorator, which means the shim itself is unreachable
//! once boxed.
//!
//! Metadata calls (`engine_name`, `kind`, `capabilities`, `object_names`)
//! never fail and are not counted.
//!
//! Behind a wire ([`super::latency::LatencyShim`], in either stacking
//! order) a refused request costs its round-trip first, as over a real
//! wire: the federation pays the request hop before it takes the engine's
//! lock, so the refusal is only met after it. Counters are unaffected —
//! every injection still reconciles 1:1 with a failed engine op.

use crate::shim::{Capability, EngineKind, Shim};
use bigdawg_common::{Batch, BigDawgError, Result};
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The kind of fallible shim operation, for scoped plans and per-kind
/// counters. `Read` is the CAST egress (`get_table`), `Write` the CAST
/// ingress (`put_table`) — together they are the federation's data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// [`Shim::get_table`] — reads, the CAST egress.
    Read,
    /// [`Shim::put_table`] — writes, the CAST ingress.
    Write,
    /// [`Shim::drop_object`].
    Drop,
    /// [`Shim::execute_native`] — degenerate-island queries.
    Native,
}

impl OpKind {
    /// Every operation kind, in counter-index order.
    pub const ALL: [OpKind; 4] = [OpKind::Read, OpKind::Write, OpKind::Drop, OpKind::Native];

    fn index(self) -> usize {
        match self {
            OpKind::Read => 0,
            OpKind::Write => 1,
            OpKind::Drop => 2,
            OpKind::Native => 3,
        }
    }
}

/// Which operation kinds a [`FaultPlan`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpScope {
    /// Every fallible operation (the default).
    #[default]
    All,
    /// Only reads ([`OpKind::Read`]).
    Reads,
    /// Only mutations ([`OpKind::Write`] and [`OpKind::Drop`]).
    Writes,
}

impl OpScope {
    fn matches(self, kind: OpKind) -> bool {
        match self {
            OpScope::All => true,
            OpScope::Reads => kind == OpKind::Read,
            OpScope::Writes => matches!(kind, OpKind::Write | OpKind::Drop),
        }
    }
}

/// Which operation indices (1-based) fail, and how.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    fail_at: BTreeSet<u64>,
    /// Error burst: every in-scope operation in `[from, to]` fails.
    burst: Option<(u64, u64)>,
    /// Crash: from this operation index on, *everything* fails until the
    /// engine is restarted ([`FaultHandle::restart`]).
    crash_at: Option<u64>,
    /// When set, planned points spike latency instead of erroring.
    latency_spike: Option<Duration>,
    scope: OpScope,
}

impl FaultPlan {
    /// Fail exactly the `n`-th fallible operation (1-based).
    pub fn nth(n: u64) -> Self {
        Self::at(&[n])
    }

    /// Fail exactly the listed operation indices (1-based).
    pub fn at(indices: &[u64]) -> Self {
        FaultPlan {
            fail_at: indices.iter().copied().filter(|i| *i > 0).collect(),
            ..FaultPlan::default()
        }
    }

    /// A seeded pseudo-random schedule: roughly `rate_percent`% of the
    /// first `horizon` operations fail, chosen by a splitmix64 stream so
    /// the same seed always yields the same failure points.
    pub fn seeded(seed: u64, rate_percent: u8, horizon: u64) -> Self {
        let rate = u64::from(rate_percent.min(100));
        let mut state = seed;
        let mut fail_at = BTreeSet::new();
        for i in 1..=horizon {
            if crate::retry::splitmix64(&mut state) % 100 < rate {
                fail_at.insert(i);
            }
        }
        FaultPlan {
            fail_at,
            ..FaultPlan::default()
        }
    }

    /// An error burst: every in-scope operation with index in
    /// `[from, to]` (1-based, inclusive) fails.
    pub fn burst(from: u64, to: u64) -> Self {
        FaultPlan {
            burst: Some((from.max(1), to.max(from))),
            ..FaultPlan::default()
        }
    }

    /// A crash: once the operation counter reaches `at`, the engine is
    /// down — every subsequent operation of any kind fails — until
    /// [`FaultHandle::restart`] is called. `at = 1` means down from the
    /// start.
    pub fn crash_at(at: u64) -> Self {
        FaultPlan {
            crash_at: Some(at.max(1)),
            ..FaultPlan::default()
        }
    }

    /// Restrict the plan to one side of the data plane: reads
    /// (`get_table`) or writes (`put_table`/`drop_object`). Operation
    /// indices stay global — scoping filters which operations the plan
    /// *applies to*, not how they are counted.
    pub fn scoped(mut self, scope: OpScope) -> Self {
        self.scope = scope;
        self
    }

    /// Turn the plan's failure points into latency spikes: a planned
    /// operation sleeps `spike` and then succeeds, emulating a stalling
    /// (rather than erroring) engine. Crashes are unaffected.
    pub fn with_latency_spike(mut self, spike: Duration) -> Self {
        self.latency_spike = Some(spike);
        self
    }

    /// The planned point-failure indices, ascending (bursts and crashes
    /// are ranges, not points, and are not enumerated here).
    pub fn failure_points(&self) -> impl Iterator<Item = u64> + '_ {
        self.fail_at.iter().copied()
    }

    fn fails(&self, op: u64) -> bool {
        self.fail_at.contains(&op)
            || self
                .burst
                .is_some_and(|(from, to)| (from..=to).contains(&op))
    }
}

/// Shared mutable state of a [`FaultShim`]: the operation counters and
/// the crash flag, reachable through a [`FaultHandle`] even after the
/// shim is boxed into a federation.
#[derive(Debug)]
pub struct FaultState {
    ops: AtomicU64,
    injected: AtomicU64,
    attempted_by_kind: [AtomicU64; 4],
    injected_by_kind: [AtomicU64; 4],
    crashed: AtomicBool,
}

impl FaultState {
    fn new() -> Self {
        FaultState {
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            attempted_by_kind: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            injected_by_kind: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            crashed: AtomicBool::new(false),
        }
    }
}

/// A test's view into a boxed [`FaultShim`]: counters (total and per
/// [`OpKind`]) and the crash/restart switch. Clone freely; all clones
/// observe the same shim.
#[derive(Debug, Clone)]
pub struct FaultHandle(Arc<FaultState>);

impl FaultHandle {
    /// Number of fallible operations attempted so far.
    pub fn operations(&self) -> u64 {
        self.0.ops.load(Ordering::Relaxed)
    }

    /// Number of failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.0.injected.load(Ordering::Relaxed)
    }

    /// Operations of one kind attempted so far.
    pub fn attempts(&self, kind: OpKind) -> u64 {
        self.0.attempted_by_kind[kind.index()].load(Ordering::Relaxed)
    }

    /// Failures injected into one kind of operation so far — how a test
    /// asserts a storm actually exercised the intended path.
    pub fn injected(&self, kind: OpKind) -> u64 {
        self.0.injected_by_kind[kind.index()].load(Ordering::Relaxed)
    }

    /// True while the engine is crashed (a [`FaultPlan::crash_at`]
    /// triggered and no restart happened yet).
    pub fn is_crashed(&self) -> bool {
        self.0.crashed.load(Ordering::Relaxed)
    }

    /// Bring a crashed engine back: subsequent operations reach the
    /// wrapped engine again (other plans keep applying).
    pub fn restart(&self) {
        self.0.crashed.store(false, Ordering::Relaxed);
    }
}

/// Wraps a [`Shim`], failing the operations its [`FaultPlan`]s name.
pub struct FaultShim {
    inner: Box<dyn Shim>,
    plans: Vec<FaultPlan>,
    /// One-shot latches: each crash plan downs the engine once; after a
    /// restart the engine stays up (the crash is an event, not a rule).
    crash_fired: Vec<AtomicBool>,
    state: Arc<FaultState>,
}

impl FaultShim {
    /// Wrap `inner` under the given failure plan.
    pub fn new(inner: Box<dyn Shim>, plan: FaultPlan) -> Self {
        Self::with_plans(inner, vec![plan])
    }

    /// Wrap `inner` under several failure plans at once (e.g. a seeded
    /// read storm *and* a write burst). A failure injects as soon as any
    /// plan matches the operation.
    pub fn with_plans(inner: Box<dyn Shim>, plans: Vec<FaultPlan>) -> Self {
        let crash_fired = plans.iter().map(|_| AtomicBool::new(false)).collect();
        FaultShim {
            inner,
            plans,
            crash_fired,
            state: Arc::new(FaultState::new()),
        }
    }

    /// A handle observing this shim's counters and crash state, valid
    /// after the shim is boxed into a federation.
    pub fn handle(&self) -> FaultHandle {
        FaultHandle(Arc::clone(&self.state))
    }

    /// Number of fallible operations attempted so far.
    pub fn operations(&self) -> u64 {
        self.state.ops.load(Ordering::Relaxed)
    }

    /// Number of failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }

    fn inject(&self, kind: OpKind) {
        self.state.injected.fetch_add(1, Ordering::Relaxed);
        self.state.injected_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one operation; inject the planned failure when it is due.
    fn tick(&self, kind: OpKind, op_name: &str, object: &str) -> Result<()> {
        let op = self.state.ops.fetch_add(1, Ordering::Relaxed) + 1;
        self.state.attempted_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        for (plan, fired) in self.plans.iter().zip(&self.crash_fired) {
            if plan
                .crash_at
                .is_some_and(|at| op >= at && plan.scope.matches(kind))
                && !fired.swap(true, Ordering::Relaxed)
            {
                self.state.crashed.store(true, Ordering::Relaxed);
            }
        }
        // a crashed engine serves nothing, whatever the triggering plan's
        // scope was — restart() is the only way back
        if self.state.crashed.load(Ordering::Relaxed) {
            self.inject(kind);
            return Err(BigDawgError::Execution(format!(
                "injected fault: `{}` is crashed ({op_name}(`{object}`) \
                 refused on operation {op}; restart required)",
                self.inner.engine_name()
            )));
        }
        for plan in &self.plans {
            if plan.scope.matches(kind) && plan.fails(op) {
                if let Some(spike) = plan.latency_spike {
                    // a stall, not an error — but still a blocking point a
                    // deadlined query may unwind out of
                    bigdawg_common::deadline::sleep_cancellable(spike)?;
                    continue;
                }
                self.inject(kind);
                return Err(BigDawgError::Execution(format!(
                    "injected fault: {op_name}(`{object}`) failed on operation {op} of `{}`",
                    self.inner.engine_name()
                )));
            }
        }
        Ok(())
    }
}

impl Shim for FaultShim {
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
        self.tick(OpKind::Read, "get_table", object)?;
        self.inner.get_table(object)
    }

    fn put_table(&mut self, object: &str, batch: Batch) -> Result<()> {
        self.tick(OpKind::Write, "put_table", object)?;
        self.inner.put_table(object, batch)
    }

    fn drop_object(&mut self, object: &str) -> Result<()> {
        self.tick(OpKind::Drop, "drop_object", object)?;
        self.inner.drop_object(object)
    }

    fn execute_native(&mut self, query: &str) -> Result<Batch> {
        self.tick(OpKind::Native, "execute_native", query)?;
        self.inner.execute_native(query)
    }

    fn wire_latency(&self) -> std::time::Duration {
        self.inner.wire_latency()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The seed a randomized test should run under: the `BIGDAWG_TEST_SEED`
/// environment variable when set (replaying a failure), else `default`.
/// Tests print the value they used so a failure names its seed.
pub fn test_seed(default: u64) -> u64 {
    std::env::var("BIGDAWG_TEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shims::RelationalShim;

    fn table_shim() -> Box<dyn Shim> {
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut().execute("CREATE TABLE t (x INT)").unwrap();
        pg.db_mut().execute("INSERT INTO t VALUES (1)").unwrap();
        Box::new(pg)
    }

    #[test]
    fn nth_operation_fails_exactly_once() {
        let shim = FaultShim::new(table_shim(), FaultPlan::nth(2));
        assert!(shim.get_table("t").is_ok(), "op 1 passes");
        let err = shim.get_table("t").unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.to_string().contains("injected fault"));
        assert!(shim.get_table("t").is_ok(), "op 3 passes again");
        assert_eq!(shim.operations(), 3);
        assert_eq!(shim.injected_failures(), 1);
    }

    #[test]
    fn metadata_is_never_counted_or_failed() {
        let shim = FaultShim::new(table_shim(), FaultPlan::nth(1));
        assert_eq!(shim.engine_name(), "postgres");
        assert_eq!(shim.object_names(), vec!["t"]);
        assert_eq!(shim.operations(), 0, "metadata calls are free");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_rate_bounded() {
        let a = FaultPlan::seeded(7, 25, 1000);
        let b = FaultPlan::seeded(7, 25, 1000);
        assert_eq!(
            a.failure_points().collect::<Vec<_>>(),
            b.failure_points().collect::<Vec<_>>(),
            "same seed, same schedule"
        );
        let c = FaultPlan::seeded(8, 25, 1000);
        assert_ne!(
            a.failure_points().collect::<Vec<_>>(),
            c.failure_points().collect::<Vec<_>>(),
            "different seed, different schedule"
        );
        let n = a.failure_points().count();
        assert!((150..350).contains(&n), "~25% of 1000, got {n}");
        assert!(FaultPlan::seeded(7, 0, 1000).failure_points().count() == 0);
        assert_eq!(FaultPlan::seeded(7, 100, 50).failure_points().count(), 50);
    }

    #[test]
    fn downcast_reaches_the_wrapped_shim() {
        let shim = FaultShim::new(table_shim(), FaultPlan::default());
        assert!(shim.as_any().downcast_ref::<RelationalShim>().is_some());
    }

    #[test]
    fn per_kind_counters_attribute_injections_to_the_right_path() {
        let mut shim = FaultShim::new(table_shim(), FaultPlan::at(&[1, 2]));
        let handle = shim.handle();
        assert!(shim.get_table("t").is_err(), "op 1: read fails");
        let batch = shim.get_table("t").unwrap_err(); // op 2: read fails
        assert!(batch.to_string().contains("get_table"));
        let rows = shim.get_table("t").unwrap(); // op 3: read passes
        assert!(shim.put_table("t2", rows).is_ok()); // op 4: write passes
        assert_eq!(handle.attempts(OpKind::Read), 3);
        assert_eq!(handle.injected(OpKind::Read), 2);
        assert_eq!(handle.attempts(OpKind::Write), 1);
        assert_eq!(handle.injected(OpKind::Write), 0);
        assert_eq!(handle.operations(), 4);
        assert_eq!(handle.injected_failures(), 2);
    }

    #[test]
    fn scoped_plans_only_hit_their_side_of_the_data_plane() {
        // a "fail everything" burst scoped to writes: reads sail through
        let mut shim = FaultShim::new(
            table_shim(),
            FaultPlan::burst(1, u64::MAX).scoped(OpScope::Writes),
        );
        let handle = shim.handle();
        let rows = shim.get_table("t").unwrap();
        assert!(shim.put_table("t2", rows.clone()).is_err());
        assert!(shim.drop_object("t").is_err(), "drops are writes too");
        assert!(shim.get_table("t").is_ok(), "reads unaffected");
        assert_eq!(handle.injected(OpKind::Write), 1);
        assert_eq!(handle.injected(OpKind::Drop), 1);
        assert_eq!(handle.injected(OpKind::Read), 0);

        // the mirror scope: reads fail, writes pass
        let mut shim = FaultShim::new(
            table_shim(),
            FaultPlan::burst(1, u64::MAX).scoped(OpScope::Reads),
        );
        assert!(shim.get_table("t").is_err());
        assert!(shim.put_table("t2", rows).is_ok());
    }

    #[test]
    fn crash_fails_everything_until_restart() {
        let mut shim = FaultShim::new(table_shim(), FaultPlan::crash_at(2));
        let handle = shim.handle();
        let rows = shim.get_table("t").unwrap(); // op 1: still up
        assert!(!handle.is_crashed());
        let err = shim.get_table("t").unwrap_err(); // op 2: down
        assert!(err.to_string().contains("crashed"));
        assert!(handle.is_crashed());
        // every kind of operation is refused while down
        assert!(shim.put_table("t2", rows).is_err());
        assert!(shim.execute_native("SELECT 1").is_err());
        assert!(shim.drop_object("t").is_err());
        handle.restart();
        assert!(!handle.is_crashed());
        assert!(shim.get_table("t").is_ok(), "back after restart");
        assert_eq!(handle.injected_failures(), 4);
    }

    #[test]
    fn latency_spike_stalls_instead_of_failing() {
        let spike = Duration::from_millis(5);
        let shim = FaultShim::new(table_shim(), FaultPlan::nth(1).with_latency_spike(spike));
        let handle = shim.handle();
        let started = std::time::Instant::now();
        assert!(shim.get_table("t").is_ok(), "a stall is not an error");
        assert!(started.elapsed() >= spike);
        assert_eq!(handle.injected_failures(), 0);
        // the un-spiked operation after it is fast and clean
        let started = std::time::Instant::now();
        assert!(shim.get_table("t").is_ok());
        assert!(started.elapsed() < spike);
    }

    #[test]
    fn multiple_plans_compose() {
        // a read burst and a separate write point failure on one engine
        let mut shim = FaultShim::with_plans(
            table_shim(),
            vec![
                FaultPlan::burst(1, 2).scoped(OpScope::Reads),
                FaultPlan::at(&[4]).scoped(OpScope::Writes),
            ],
        );
        let handle = shim.handle();
        assert!(shim.get_table("t").is_err()); // op 1: read burst
        assert!(shim.get_table("t").is_err()); // op 2: read burst
        let rows = shim.get_table("t").unwrap(); // op 3: burst over
        assert!(shim.put_table("t2", rows.clone()).is_err()); // op 4: write point
        assert!(shim.put_table("t2", rows).is_ok()); // op 5: clean
        assert_eq!(handle.injected(OpKind::Read), 2);
        assert_eq!(handle.injected(OpKind::Write), 1);
    }

    #[test]
    fn test_seed_prefers_the_env_override() {
        // can't set the env var here without racing other tests; the
        // default path must at least be the identity
        assert_eq!(test_seed(99), 99);
        for kind in OpKind::ALL {
            assert!(OpScope::All.matches(kind));
        }
    }
}
