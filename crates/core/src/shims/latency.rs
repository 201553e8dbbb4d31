//! A shim decorator that emulates talking to a *remote* engine.
//!
//! The paper's deployment runs Postgres, SciDB, Accumulo, S-Store & co. as
//! separate servers; every CAST egress and every pushed-down sub-query pays
//! a network round-trip. The in-process engines of this reproduction answer
//! in microseconds, which hides exactly the cost the scatter-gather
//! executor exists to overlap. [`LatencyShim`] wraps any shim and sleeps
//! for a configured delay before each *remote request* — [`Shim::get_table`]
//! (the CAST read path) and [`Shim::execute_native`] (pushed-down queries)
//! — so benchmarks and tests can measure scheduling effects the way a
//! distributed federation would experience them.
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
use bigdawg_common::{Batch, Result};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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
        let mut pause = self.delay;
        if let Some((every, extra)) = self.spike {
            if n % every == 0 {
                pause += extra;
            }
        }
        if !pause.is_zero() {
            // the emulated wire is a blocking point: it rides the query's
            // deadline/cancellation when one is in scope
            bigdawg_common::deadline::sleep_cancellable(pause)?;
        }
        Ok(())
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
    use crate::shims::RelationalShim;
    use std::time::Instant;

    #[test]
    fn delays_remote_requests_only() {
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut().execute("CREATE TABLE t (x INT)").unwrap();
        pg.db_mut().execute("INSERT INTO t VALUES (1)").unwrap();
        let shim = LatencyShim::new(Box::new(pg), Duration::from_millis(5));

        let t0 = Instant::now();
        shim.get_table("t").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5), "get is remote");

        let t0 = Instant::now();
        assert_eq!(shim.object_names(), vec!["t"]);
        assert!(t0.elapsed() < Duration::from_millis(5), "metadata is free");
    }

    #[test]
    fn downcast_reaches_the_wrapped_shim() {
        let shim = LatencyShim::new(
            Box::new(RelationalShim::new("postgres")),
            Duration::from_millis(1),
        );
        assert!(shim.as_any().downcast_ref::<RelationalShim>().is_some());
    }
}
