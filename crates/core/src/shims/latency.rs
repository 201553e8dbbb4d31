//! A shim decorator that emulates talking to a *remote* engine.
//!
//! The paper's deployment runs Postgres, SciDB, Accumulo, S-Store & co. as
//! separate servers; every CAST egress and every pushed-down sub-query pays
//! a network round-trip. The in-process engines of this reproduction answer
//! in microseconds, which hides exactly the cost the scatter-gather
//! executor exists to overlap. [`LatencyShim`] wraps any shim and charges
//! a configured delay for each *remote request* — [`Shim::get_table`]
//! (the CAST read path) and [`Shim::execute_native`] (pushed-down queries)
//! — so benchmarks and tests can measure scheduling effects the way a
//! distributed federation would experience them.
//!
//! **Who pays the hop.** A request's round-trip is a client's wait, not
//! the engine's work, so the federation pays it *before* taking the
//! engine's mutex: `BigDawg::engine_call` sleeps the engine's whole
//! [`Shim::wire_latency`] through [`prepay`] and leaves that much credit on
//! its thread; each decorator deducts its own delay from the credit and
//! sleeps only what is left. A shim reached by a caller that paid nothing
//! — a unit test, the benchmark harness's raw `bd.engine(e)?.lock()` —
//! finds no credit and sleeps its full delay itself, as it always has.
//! Spike extras and the request counter stay in the shim either way.
//!
//! Local-side operations ([`Shim::put_table`], [`Shim::drop_object`]) and
//! pure metadata calls are *not* delayed: materializing into the gather
//! engine happens on the coordinator's side of the wire.
//!
//! Downcasts pass through to the wrapped shim ([`Shim::as_any`] forwards):
//! the relational and array islands run their gather on the downcast
//! engine, which models execution on the gather engine itself and pays no
//! wire. Every *read* of an object — CAST, the D4M and Myria loaders, the
//! monitor's probe — goes through [`Shim::get_table`] and pays it.

use crate::shim::{Capability, EngineKind, Shim};
use bigdawg_common::deadline::sleep_cancellable;
use bigdawg_common::{Batch, Result};
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

thread_local! {
    /// Request-hop time this thread's caller already slept on behalf of
    /// the shim call it is about to make (see [`prepay`]).
    static PREPAID: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// The credit a [`prepay`] left on this thread; dropping it clears
/// whatever the shims did not deduct, so credit never leaks into a later
/// call — not even when the call errored before reaching a shim.
pub(crate) struct Prepaid(());

impl Drop for Prepaid {
    fn drop(&mut self) {
        PREPAID.with(|credit| credit.set(Duration::ZERO));
    }
}

impl Prepaid {
    fn credit(hop: Duration) -> Self {
        PREPAID.with(|credit| credit.set(hop));
        Prepaid(())
    }
}

/// Sleep a request hop of `hop` on the caller's side of the engine lock
/// and credit it to the [`LatencyShim`]s the guarded call goes through.
pub(crate) fn prepay(hop: Duration) -> Result<Prepaid> {
    sleep_hop(hop)?;
    Ok(Prepaid::credit(hop))
}

/// The one place emulated request-hop time is slept. A blocking point: it
/// rides the query's deadline and cancellation when one is in scope.
fn sleep_hop(hop: Duration) -> Result<()> {
    if hop.is_zero() {
        return Ok(());
    }
    #[cfg(test)]
    tests::ASKED.with(|asked| asked.set(asked.get() + hop));
    sleep_cancellable(hop)
}

/// Wraps a [`Shim`], delaying each remote request by a fixed duration —
/// optionally with a deterministic *slow-request schedule* spiking every
/// Nth request, the tool overload experiments use to manufacture a slow
/// leaf without randomness.
pub struct LatencyShim {
    inner: Box<dyn Shim>,
    delay: Duration,
    /// `(every, extra)`: request numbers divisible by `every` pay `extra`
    /// on top of the base delay.
    spike: Option<(u64, Duration)>,
    requests: AtomicU64,
}

impl LatencyShim {
    /// Wrap `inner`, delaying every remote request by `delay`.
    pub fn new(inner: Box<dyn Shim>, delay: Duration) -> Self {
        LatencyShim {
            inner,
            delay,
            spike: None,
            requests: AtomicU64::new(0),
        }
    }

    /// Add a deterministic slow-request schedule: every `every`-th remote
    /// request (1-based) pays `extra` on top of the base delay. `every`
    /// is clamped to ≥ 1 (every request spikes at 1).
    pub fn with_spike(mut self, every: u64, extra: Duration) -> Self {
        self.spike = Some((every.max(1), extra));
        self
    }

    /// The configured per-request delay.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    fn wire(&self) -> Result<()> {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        // this decorator's share of what the caller prepaid, if anything
        let covered = PREPAID.with(|credit| {
            let covered = credit.get().min(self.delay);
            credit.set(credit.get() - covered);
            covered
        });
        let mut pause = self.delay - covered;
        if let Some((every, extra)) = self.spike {
            if n % every == 0 {
                pause += extra;
            }
        }
        sleep_hop(pause)
    }
}

impl Shim for LatencyShim {
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
        self.wire()?;
        self.inner.get_table(object)
    }

    fn put_table(&mut self, object: &str, batch: Batch) -> Result<()> {
        self.inner.put_table(object, batch)
    }

    fn drop_object(&mut self, object: &str) -> Result<()> {
        self.inner.drop_object(object)
    }

    fn execute_native(&mut self, query: &str) -> Result<Batch> {
        self.wire()?;
        self.inner.execute_native(query)
    }

    fn wire_latency(&self) -> Duration {
        // stacked decorators compound, like hops would
        self.delay + self.inner.wire_latency()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polystore::{BigDawg, EngineOp};
    use crate::shims::{ArrayShim, RelationalShim};
    use bigdawg_array::Array;
    use bigdawg_common::{deadline, BigDawgError, Deadline, ManualClock, QueryContext, Value};
    use std::sync::Arc;
    use std::time::Instant;

    thread_local! {
        /// Every request-hop sleep this thread *asked for* (see
        /// `sleep_hop`), whether it was slept or refused by a deadline.
        pub(super) static ASKED: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    }

    const MS: Duration = Duration::from_millis(1);
    const SECOND: Duration = Duration::from_secs(1);
    const MINUTE: Duration = Duration::from_secs(60);

    fn postgres() -> Box<dyn Shim> {
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut().execute("CREATE TABLE t (x INT)").unwrap();
        pg.db_mut().execute("INSERT INTO t VALUES (1)").unwrap();
        Box::new(pg)
    }

    /// Run `f` under a deadline with one second left on a clock that never
    /// moves, and return its result with the hop time it asked for. Any
    /// pause longer than the second is refused at once instead of slept,
    /// so minute-long delays cost the test nothing.
    fn asked<T>(f: impl FnOnce() -> T) -> (T, Duration) {
        let budget = Deadline::after(Arc::new(ManualClock::new()), SECOND);
        let _ctx = deadline::enter(QueryContext::with_deadline(budget));
        let before = ASKED.with(Cell::get);
        let out = f();
        (out, ASKED.with(Cell::get) - before)
    }

    #[test]
    fn delays_remote_requests_only() {
        let shim = LatencyShim::new(postgres(), 5 * MS);

        let t0 = Instant::now();
        shim.get_table("t").unwrap();
        assert!(t0.elapsed() >= 5 * MS, "get is remote");

        let (names, hop) = asked(|| shim.object_names());
        assert_eq!(names, vec!["t"]);
        assert_eq!(hop, Duration::ZERO, "metadata is free");
    }

    #[test]
    fn downcast_reaches_the_wrapped_shim() {
        let shim = LatencyShim::new(Box::new(RelationalShim::new("postgres")), MS);
        assert!(shim.as_any().downcast_ref::<RelationalShim>().is_some());
    }

    /// Who pays the hop: a shim driven directly pays its whole delay, a
    /// prepaid one nothing, stacked decorators split the credit outside-in
    /// — and spike extras stay with the shim whoever paid the base.
    #[test]
    fn a_shim_sleeps_only_what_its_caller_did_not_prepay() {
        let shim = LatencyShim::new(postgres(), MINUTE);
        let (read, hop) = asked(|| shim.get_table("t"));
        assert_eq!(read.unwrap_err().kind(), "deadline_exceeded");
        assert_eq!(hop, MINUTE, "nobody prepaid: the shim pays in full");

        let (read, hop) = asked(|| {
            let _credit = Prepaid::credit(MINUTE);
            shim.get_table("t")
        });
        assert_eq!(read.unwrap().len(), 1);
        assert_eq!(hop, Duration::ZERO, "fully prepaid: nothing left to pay");

        let stacked = LatencyShim::new(Box::new(LatencyShim::new(postgres(), MINUTE)), 2 * MINUTE);
        assert_eq!(stacked.wire_latency(), 3 * MINUTE);
        let (read, hop) = asked(|| {
            let _credit = Prepaid::credit(3 * MINUTE);
            stacked.get_table("t")
        });
        assert!(read.is_ok());
        assert_eq!(hop, Duration::ZERO, "each decorator took its share");
        let (read, hop) = asked(|| {
            let _credit = Prepaid::credit(3 * MINUTE - 2 * SECOND);
            stacked.get_table("t")
        });
        assert!(read.is_err());
        assert_eq!(hop, 2 * SECOND, "the inner one was short two seconds");

        let spiky = LatencyShim::new(postgres(), MINUTE).with_spike(2, 7 * MINUTE);
        let prepaid_read = || {
            asked(|| {
                let _credit = Prepaid::credit(MINUTE);
                spiky.get_table("t").map(|_| ())
            })
        };
        assert_eq!(prepaid_read(), (Ok(()), Duration::ZERO));
        let (read, hop) = prepaid_read();
        assert!(read.is_err());
        assert_eq!(hop, 7 * MINUTE, "the second request spikes, in the shim");
    }

    /// Credit is scoped to the `engine_call` that paid it: a call that
    /// errored before reaching the shim leaves nothing behind for the
    /// thread's next shim call to spend.
    #[test]
    fn credit_never_outlives_its_engine_call() {
        let mut bd = BigDawg::new();
        bd.add_engine(Box::new(LatencyShim::new(postgres(), MS)));
        let outcome = bd.engine_call("postgres", EngineOp::Read, |_shim| -> Result<()> {
            Err(BigDawgError::NotFound("gave up before the shim".into()))
        });
        assert_eq!(outcome.unwrap_err().kind(), "not_found");
        let bystander = LatencyShim::new(postgres(), MINUTE);
        let (_, hop) = asked(|| bystander.get_table("t"));
        assert_eq!(hop, MINUTE, "no leftover credit");
    }

    /// One way to pay the hop in the production path: a query asks for
    /// exactly one request hop per remote leaf — an object read or a
    /// degenerate sub-query — each slept by `engine_call` before the
    /// engine's lock, none again by the shim behind it; landing a leaf,
    /// the gather on the co-resident engine and the temporaries' drops
    /// ask for none. (The serial schedule keeps every leaf on this
    /// thread, where the hops are summed.)
    #[test]
    fn a_query_pays_one_request_hop_per_remote_leaf() {
        let mut bd = BigDawg::new();
        bd.add_engine(postgres());
        // four engines behind wires of 1, 2, 3 and 4 ms
        for (i, name) in ["scidb_a", "scidb_b", "scidb_c", "scidb_d"]
            .into_iter()
            .enumerate()
        {
            let mut scidb = ArrayShim::new(name);
            let wave = format!("wave_{i}");
            scidb.store(&wave, Array::from_vector(&wave, "v", &[1.0, 2.0, 3.0], 2));
            bd.add_engine(Box::new(LatencyShim::new(
                Box::new(scidb),
                (i as u32 + 1) * MS,
            )));
        }
        let before = ASKED.with(Cell::get);
        let answer = bd
            .execute_serial(
                "RELATIONAL(SELECT a.v AS a, b.v AS b, c.sum_v AS c, d.sum_v AS d \
                 FROM CAST(wave_0, relation) a \
                 JOIN CAST(wave_1, relation) b ON a.i = b.i \
                 JOIN CAST(SCIDB_C(aggregate(wave_2, sum, v)), relation) c ON 1 = 1 \
                 JOIN CAST(SCIDB_D(aggregate(wave_3, sum, v)), relation) d ON 1 = 1 \
                 WHERE a.i = 0)",
            )
            .unwrap();
        assert_eq!(answer.rows()[0][2], Value::Float(6.0));
        assert_eq!(ASKED.with(Cell::get) - before, (1 + 2 + 3 + 4) * MS);
    }
}
