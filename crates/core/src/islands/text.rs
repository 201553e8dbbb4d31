//! The text island: keyword/boolean/phrase search over the KV engine.

use crate::monitor::QueryClass;
use crate::polystore::{BigDawg, EngineOp};
use crate::shim::EngineKind;
use bigdawg_common::{Batch, Result};
use std::time::Instant;

/// Execute a text-island query (the KV shim's native command set:
/// `search(...)`, `docs(...)`, `owners_min(..., n)`, `get(id)`, `count()`).
pub fn execute(bd: &BigDawg, query: &str) -> Result<Batch> {
    let engine = bd.engine_of_kind(EngineKind::KeyValue)?;
    let started = Instant::now();
    // The corpus object is the engine's only object; record against it.
    let mut corpus = None;
    let result = bd.engine_call(&engine, EngineOp::IslandNative, |shim| {
        corpus = shim.object_names().into_iter().next();
        shim.execute_native(query)
    });
    if let Some(obj) = corpus {
        bd.monitor()
            .lock()
            .record(&obj, QueryClass::TextSearch, &engine, started.elapsed());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shims::KvShim;
    use bigdawg_common::Value;

    #[test]
    fn search_through_island() {
        let mut bd = BigDawg::new();
        let mut kv = KvShim::new("accumulo");
        kv.index_document(1, "p1", 0, "very sick patient on heparin");
        kv.index_document(2, "p2", 0, "recovering nicely");
        bd.add_engine(Box::new(kv));
        let b = execute(&bd, "search(\"very sick\" AND heparin)").unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows()[0][0], Value::Int(1));
        assert_eq!(bd.monitor().lock().object_stats("notes").total_queries, 1);
    }

    #[test]
    fn no_kv_engine_errors() {
        let bd = BigDawg::new();
        assert!(execute(&bd, "search(x)").is_err());
    }
}
