//! The shim abstraction: how islands talk to storage engines.
//!
//! A shim exposes three things (§2.1): the engine's *capabilities* (so an
//! island can compute the intersection it offers), a tabular import/export
//! surface (what CAST moves), and the engine's *native* query language
//! (what a degenerate island passes through).

use bigdawg_common::{Batch, Result};
use std::any::Any;
use std::time::Duration;

/// Which family an engine belongs to (Figure 1's boxes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Row-store SQL engines (Postgres).
    Relational,
    /// N-dimensional array engines (SciDB).
    Array,
    /// Stream-processing engines (S-Store).
    Streaming,
    /// Sorted key-value stores with text indexing (Accumulo).
    KeyValue,
    /// Fragment/tile array storage (TileDB).
    TileStore,
    /// Compiled-UDF compute engines (Tupleware).
    Compute,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineKind::Relational => "relational",
            EngineKind::Array => "array",
            EngineKind::Streaming => "streaming",
            EngineKind::KeyValue => "key-value",
            EngineKind::TileStore => "tile-store",
            EngineKind::Compute => "compute",
        };
        f.write_str(s)
    }
}

/// A coarse capability an engine may offer. Islands expose the
/// *intersection* of their member engines' capabilities (§2.1); the
/// monitor uses capabilities to know where an object may migrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Row selection/projection.
    SqlFilter,
    /// Whole-object aggregation.
    Aggregate,
    /// Multi-object joins.
    Join,
    /// Matrix/vector math.
    LinearAlgebra,
    /// Grouped or sliding-window aggregation.
    WindowedAggregate,
    /// Keyword/boolean/phrase search.
    TextSearch,
    /// Live append-heavy ingestion.
    StreamIngest,
    /// ACID transactional updates.
    Transactions,
}

/// A connector to one storage engine.
pub trait Shim: Send {
    /// Unique engine name in the federation (e.g. `"postgres"`).
    fn engine_name(&self) -> &str;

    /// Which engine family this shim connects to.
    fn kind(&self) -> EngineKind;

    /// The coarse capabilities the engine offers.
    fn capabilities(&self) -> Vec<Capability>;

    /// Names of the data objects this engine currently holds.
    fn object_names(&self) -> Vec<String>;

    /// Export an object as rows (the CAST egress path).
    fn get_table(&self, object: &str) -> Result<Batch>;

    /// Import rows as a new object (the CAST ingress path). Conventions
    /// for non-relational engines are documented on each shim.
    fn put_table(&mut self, object: &str, batch: Batch) -> Result<()>;

    /// Drop an object (used when the monitor migrates data away).
    fn drop_object(&mut self, object: &str) -> Result<()>;

    /// Execute a query in the engine's native language — the degenerate
    /// island path, offering "the full functionality of a single storage
    /// engine" (§2.1).
    fn execute_native(&mut self, query: &str) -> Result<Batch>;

    /// One-way payload latency of the emulated wire between the
    /// coordinator and this engine. Zero (the default) means the engine is
    /// *co-resident* with the coordinator: CAST may hand its columns over
    /// by `Arc` (the zero-copy transport) instead of encoding them.
    /// Decorators that emulate remote engines
    /// ([`crate::shims::LatencyShim`]) override this; the CAST data plane
    /// uses it to pipeline chunk transfers over the wire. The federation
    /// samples it once, at `add_engine`, and plans from that copy without
    /// taking the engine lock — it must be constant for the shim's life.
    ///
    /// It is also the *request hop* the federation pays on the shim's
    /// behalf: a call that crosses the wire (`get_table`, a native
    /// statement) sleeps this long before the engine's lock is taken and
    /// credits the decorators behind the lock, which then sleep nothing.
    /// Only a caller that holds the raw shim — a test, the benchmark's
    /// replay — makes the decorator pay its own delay.
    fn wire_latency(&self) -> Duration {
        Duration::ZERO
    }

    /// Downcast support for islands that need engine-specific fast paths.
    fn as_any(&self) -> &dyn Any;
    /// Mutable counterpart of [`Shim::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
