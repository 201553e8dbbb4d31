//! The array island: the AFL dialect over the whole federation.
//!
//! Location transparency mirrors the relational island: objects living on
//! other engines are CAST toward the chosen array engine (monitor-preferred
//! transport) first, and the monitor's cost model arbitrates when several
//! array engines could evaluate the query.

use crate::monitor::QueryClass;
use crate::polystore::BigDawg;
use crate::shim::EngineKind;
use crate::shims::{afl, ArrayShim};
use bigdawg_common::{Batch, BigDawgError, Result};

/// AFL operator names — identifiers that are never treated as objects.
const AFL_KEYWORDS: &[&str] = &[
    "scan",
    "subarray",
    "filter",
    "apply",
    "project",
    "regrid",
    "window",
    "transpose",
    "matmul",
    "aggregate",
    "and",
    "or",
    "not",
    "between",
    "in",
    "like",
    "is",
    "null",
    "sum",
    "avg",
    "min",
    "max",
    "count",
    "stddev",
    "mean",
    "std",
    "true",
    "false",
];

/// Execute an AFL query on the array island, under the frame it shares
/// with the relational island (`islands::gather`): objects living on other
/// engines are CAST toward the array engine first (location transparency),
/// and a racy `not_found` re-resolves and retries while an attempt that
/// never depended on a placement (an unknown identifier) fails immediately.
pub fn execute(bd: &BigDawg, query: &str) -> Result<Batch> {
    super::gather(bd, EngineKind::Array, classify(query), |gather| {
        let mut rewritten = query.to_string();
        // the first object the query names is the one the monitor records
        let mut first_object = None;
        for ident in identifiers(query) {
            if AFL_KEYWORDS.contains(&ident.to_ascii_lowercase().as_str()) {
                continue;
            }
            let Ok(entry) = bd.placement(&ident) else {
                continue; // attribute/dimension names are resolved by AFL itself
            };
            if let Some(tmp) = gather.localize(&ident, &entry)? {
                rewritten = replace_ident(&rewritten, &ident, &tmp);
            }
            first_object.get_or_insert(ident);
        }
        gather.run(first_object.as_deref(), |engine, shim| {
            let arr = shim.as_any().downcast_ref::<ArrayShim>().ok_or_else(|| {
                BigDawgError::Internal(format!("engine `{engine}` is not an ArrayShim"))
            })?;
            afl::execute(arr, &rewritten)
        })
    })
}

fn classify(query: &str) -> QueryClass {
    let q = query.to_ascii_lowercase();
    if q.contains("matmul") || q.contains("transpose") {
        QueryClass::LinearAlgebra
    } else if q.contains("window") || q.contains("regrid") {
        QueryClass::WindowedAggregate
    } else if q.contains("aggregate") {
        QueryClass::Aggregate
    } else {
        QueryClass::SqlFilter
    }
}

/// All identifier-shaped tokens in a query, deduplicated, in order.
fn identifiers(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut cur = String::new();
    for c in text.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            if !cur.chars().next().is_some_and(|c| c.is_ascii_digit()) && !out.contains(&cur) {
                out.push(cur.clone());
            }
            cur.clear();
        }
    }
    out
}

/// Replace whole-word occurrences of `from` with `to`.
fn replace_ident(text: &str, from: &str, to: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let bytes: Vec<char> = text.chars().collect();
    let target: Vec<char> = from.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let matches = bytes[i..].starts_with(&target)
            && (i == 0 || !(bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_'))
            && bytes
                .get(i + target.len())
                .is_none_or(|c| !(c.is_alphanumeric() || *c == '_'));
        if matches {
            out.push_str(to);
            i += target.len();
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    out
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
            .execute("CREATE TABLE readings (i INT, v FLOAT)")
            .unwrap();
        pg.db_mut()
            .execute("INSERT INTO readings VALUES (0, 1.0), (1, 4.0), (2, 9.0)")
            .unwrap();
        bd.add_engine(Box::new(pg));
        let mut scidb = ArrayShim::new("scidb");
        scidb.store(
            "wave",
            Array::from_vector(
                "wave",
                "v",
                &(0..64).map(|i| i as f64).collect::<Vec<_>>(),
                16,
            ),
        );
        bd.add_engine(Box::new(scidb));
        bd
    }

    #[test]
    fn local_afl() {
        let bd = federation();
        let b = execute(&bd, "aggregate(wave, max, v)").unwrap();
        assert_eq!(b.rows()[0][0], Value::Float(63.0));
    }

    #[test]
    fn relational_table_transparently_cast_to_array() {
        let bd = federation();
        // `readings` lives on postgres; the island pulls it over and runs
        // array ops on it.
        let b = execute(&bd, "aggregate(readings, sum, v)").unwrap();
        assert_eq!(b.rows()[0][0], Value::Float(14.0));
        assert_eq!(bd.catalog().read().len(), 2, "temps cleaned up");
    }

    #[test]
    fn identifier_replacement_is_word_bounded() {
        assert_eq!(
            replace_ident("scan(wave), wave2, wave", "wave", "tmp"),
            "scan(tmp), wave2, tmp"
        );
    }

    #[test]
    fn classification() {
        assert_eq!(classify("matmul(a, b)"), QueryClass::LinearAlgebra);
        assert_eq!(
            classify("aggregate(window(a, 1, 1, avg), max, v)"),
            QueryClass::WindowedAggregate
        );
        assert_eq!(classify("aggregate(a, max, v)"), QueryClass::Aggregate);
        assert_eq!(classify("filter(a, v > 5)"), QueryClass::SqlFilter);
    }

    #[test]
    fn attribute_names_do_not_trigger_casts() {
        let bd = federation();
        // `v` and `i` are attribute/dimension names, not objects
        let b = execute(&bd, "filter(wave, i < 3 AND v > 0)").unwrap();
        assert_eq!(b.len(), 2);
    }
}
