//! The D4M island (§2.1.1): associative-array queries over federation
//! objects, with shims from the associative model to the KV, relational,
//! and array engines — exactly the three backends the paper lists for D4M.
//!
//! Query dialect (operators nest where an assoc-array is expected):
//!
//! ```text
//! query  := expr | topk(expr, k)
//! expr   := assoc(OBJECT)              -- load a federation object:
//!                                      --   corpus → doc×term counts
//!                                      --   table  → (col0, col1) → col2
//!                                      --   array  → coords → first attr
//!         | transpose(expr)
//!         | plus(expr, expr)           -- union-sum
//!         | times(expr, expr)          -- intersection-product
//!         | matmul(expr, expr [, plustimes|maxplus|minplus])
//!         | correlate(expr)            -- Aᵀ·A co-occurrence
//!         | rowsum(expr) | colsum(expr)
//!         | subsref(expr, rowprefix|*, colprefix|*)
//!         | filtergt(expr, lit)        -- keep values > lit
//! ```
//!
//! Results are triples batches `(row TEXT, col TEXT, val FLOAT)`.

use crate::monitor::QueryClass;
use crate::polystore::BigDawg;
use crate::shim::EngineKind;
use bigdawg_common::{parse_err, Batch, BigDawgError, DataType, Result, Row, Schema, Value};
use bigdawg_d4m::algebra::{self, Semiring};
use bigdawg_d4m::AssocArray;
use std::time::Instant;

/// Execute a D4M island query.
pub fn execute(bd: &BigDawg, query: &str) -> Result<Batch> {
    let started = Instant::now();
    let q = query.trim();
    let result = if let Some(args) = op_args(q, "topk")? {
        let parts = split_args(&args);
        if parts.len() != 2 {
            return Err(parse_err!("topk(expr, k) takes 2 arguments"));
        }
        let a = eval(bd, &parts[0])?;
        let k: usize = parts[1]
            .trim()
            .parse()
            .map_err(|_| parse_err!("bad k `{}`", parts[1].trim()))?;
        let rows: Vec<Row> = a
            .top_k(k)
            .into_iter()
            .map(|(r, c, v)| vec![Value::Text(r), Value::Text(c), Value::Float(v)])
            .collect();
        Batch::new(triple_schema(), rows)
    } else {
        let a = eval(bd, q)?;
        Ok(to_batch(&a))
    };
    // Record against the first referenced object, if any.
    if let Some(obj) = first_object(q) {
        if bd.locate(&obj).is_ok() {
            let engine = bd.locate(&obj)?;
            bd.monitor()
                .lock()
                .record(&obj, QueryClass::LinearAlgebra, &engine, started.elapsed());
        }
    }
    result
}

fn triple_schema() -> Schema {
    Schema::from_pairs(&[
        ("row", DataType::Text),
        ("col", DataType::Text),
        ("val", DataType::Float),
    ])
}

fn to_batch(a: &AssocArray) -> Batch {
    let rows: Vec<Row> = a
        .triples()
        .map(|(r, c, v)| {
            vec![
                Value::Text(r.to_string()),
                Value::Text(c.to_string()),
                Value::Float(v),
            ]
        })
        .collect();
    Batch::new(triple_schema(), rows).expect("triples match schema")
}

fn eval(bd: &BigDawg, text: &str) -> Result<AssocArray> {
    let t = text.trim();
    if let Some(args) = op_args(t, "assoc")? {
        return load_object(bd, args.trim());
    }
    if let Some(args) = op_args(t, "transpose")? {
        return Ok(algebra::transpose(&eval(bd, &args)?));
    }
    if let Some(args) = op_args(t, "plus")? {
        let parts = split_args(&args);
        if parts.len() != 2 {
            return Err(parse_err!("plus(a, b) takes 2 arguments"));
        }
        return Ok(algebra::plus(&eval(bd, &parts[0])?, &eval(bd, &parts[1])?));
    }
    if let Some(args) = op_args(t, "times")? {
        let parts = split_args(&args);
        if parts.len() != 2 {
            return Err(parse_err!("times(a, b) takes 2 arguments"));
        }
        return Ok(algebra::times(&eval(bd, &parts[0])?, &eval(bd, &parts[1])?));
    }
    if let Some(args) = op_args(t, "matmul")? {
        let parts = split_args(&args);
        if parts.len() < 2 || parts.len() > 3 {
            return Err(parse_err!("matmul(a, b[, semiring]) takes 2–3 arguments"));
        }
        let semiring = match parts.get(2).map(|s| s.trim().to_ascii_lowercase()) {
            None => Semiring::PlusTimes,
            Some(s) => match s.as_str() {
                "plustimes" => Semiring::PlusTimes,
                "maxplus" => Semiring::MaxPlus,
                "minplus" => Semiring::MinPlus,
                other => return Err(parse_err!("unknown semiring `{other}`")),
            },
        };
        return Ok(algebra::matmul(
            &eval(bd, &parts[0])?,
            &eval(bd, &parts[1])?,
            semiring,
        ));
    }
    if let Some(args) = op_args(t, "correlate")? {
        return Ok(algebra::correlate(&eval(bd, &args)?));
    }
    if let Some(args) = op_args(t, "rowsum")? {
        return Ok(eval(bd, &args)?.row_sums());
    }
    if let Some(args) = op_args(t, "colsum")? {
        return Ok(eval(bd, &args)?.col_sums());
    }
    if let Some(args) = op_args(t, "subsref")? {
        let parts = split_args(&args);
        if parts.len() != 3 {
            return Err(parse_err!("subsref(expr, rowprefix, colprefix)"));
        }
        let a = eval(bd, &parts[0])?;
        let rp = parts[1].trim();
        let cp = parts[2].trim();
        let mut out = AssocArray::new();
        for (r, c, v) in a.triples() {
            if (rp == "*" || r.starts_with(rp)) && (cp == "*" || c.starts_with(cp)) {
                out.set(r.to_string(), c.to_string(), v);
            }
        }
        return Ok(out);
    }
    if let Some(args) = op_args(t, "filtergt")? {
        let parts = split_args(&args);
        if parts.len() != 2 {
            return Err(parse_err!("filtergt(expr, lit) takes 2 arguments"));
        }
        let lit: f64 = parts[1]
            .trim()
            .parse()
            .map_err(|_| parse_err!("bad literal `{}`", parts[1].trim()))?;
        return Ok(eval(bd, &parts[0])?.filter_values(|v| v > lit));
    }
    Err(parse_err!("unrecognized D4M expression: `{t}`"))
}

/// Load a federation object as an associative array (the D4M shims),
/// reading whichever copy the federation's read path serves.
fn load_object(bd: &BigDawg, object: &str) -> Result<AssocArray> {
    let on_kv = bd.kind_of(&bd.locate(object)?)? == EngineKind::KeyValue;
    let batch = bd.read_object(object)?;
    // Corpus shim: build doc×term counts from the text index's documents.
    if on_kv {
        let mut a = AssocArray::new();
        let body_col = batch.schema().index_of("body")?;
        let id_col = batch.schema().index_of("doc_id")?;
        for row in batch.rows() {
            let id = row[id_col].as_i64()?;
            let body = row[body_col].as_str()?;
            for term in bigdawg_kv::text::tokenize(body) {
                let key = format!("doc{id:08}");
                let cur = a.get(&key, &term);
                a.set(key, term, cur + 1.0);
            }
        }
        return Ok(a);
    }
    // Generic tabular shims: first two columns are keys, third (if any) the
    // value.
    let schema = batch.schema();
    if schema.len() < 2 {
        return Err(BigDawgError::SchemaMismatch(format!(
            "assoc() needs ≥ 2 columns, object `{object}` has {}",
            schema.len()
        )));
    }
    let mut a = AssocArray::new();
    for row in batch.rows() {
        let r = row[0].to_string();
        let c = row[1].to_string();
        let v = if schema.len() >= 3 {
            row[2].as_f64().unwrap_or(1.0)
        } else {
            1.0
        };
        let cur = a.get(&r, &c);
        a.set(r, c, cur + v);
    }
    Ok(a)
}

fn first_object(query: &str) -> Option<String> {
    let idx = query.find("assoc(")?;
    let rest = &query[idx + 6..];
    let end = rest.find(')')?;
    Some(rest[..end].trim().to_string())
}

fn op_args(text: &str, op: &str) -> Result<Option<String>> {
    let t = text.trim();
    let Some(rest) = t.strip_prefix(op) else {
        return Ok(None);
    };
    let rest = rest.trim_start();
    if !rest.starts_with('(') || !rest.ends_with(')') {
        return Ok(None);
    }
    let inner = &rest[1..rest.len() - 1];
    let mut depth = 0i32;
    for c in inner.chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth < 0 {
                    return Ok(None);
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(parse_err!("unbalanced parentheses in `{t}`"));
    }
    Ok(Some(inner.to_string()))
}

fn split_args(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in args.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shims::{KvShim, RelationalShim};
    use bigdawg_common::Value;

    fn federation() -> BigDawg {
        let mut bd = BigDawg::new();
        let mut kv = KvShim::new("accumulo");
        kv.index_document(1, "p1", 0, "sick heparin sick");
        kv.index_document(2, "p1", 1, "sick aspirin");
        kv.index_document(3, "p2", 2, "well");
        bd.add_engine(Box::new(kv));
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut()
            .execute("CREATE TABLE rx (patient TEXT, drug TEXT, dose FLOAT)")
            .unwrap();
        pg.db_mut()
            .execute("INSERT INTO rx VALUES ('p1', 'heparin', 2.0), ('p2', 'aspirin', 1.0), ('p1', 'heparin', 3.0)")
            .unwrap();
        bd.add_engine(Box::new(pg));
        bd
    }

    #[test]
    fn corpus_to_doc_term_matrix() {
        let bd = federation();
        let b = execute(&bd, "assoc(notes)").unwrap();
        // doc1: sick=2, heparin=1; doc2: sick=1, aspirin=1; doc3: well=1
        assert_eq!(b.len(), 5);
        let sick2 = b
            .rows()
            .iter()
            .find(|r| {
                r[0] == Value::Text("doc00000001".into()) && r[1] == Value::Text("sick".into())
            })
            .unwrap();
        assert_eq!(sick2[2], Value::Float(2.0));
    }

    #[test]
    fn relational_table_to_assoc_sums_duplicates() {
        let bd = federation();
        let b = execute(&bd, "assoc(rx)").unwrap();
        let hep = b
            .rows()
            .iter()
            .find(|r| r[0] == Value::Text("p1".into()) && r[1] == Value::Text("heparin".into()))
            .unwrap();
        assert_eq!(hep[2], Value::Float(5.0));
    }

    #[test]
    fn correlate_finds_cooccurring_terms() {
        let bd = federation();
        let b = execute(&bd, "topk(correlate(assoc(notes)), 1)").unwrap();
        // "sick" co-occurs with itself most (2² + 1² = 5)
        assert_eq!(b.rows()[0][0], Value::Text("sick".into()));
        assert_eq!(b.rows()[0][1], Value::Text("sick".into()));
        assert_eq!(b.rows()[0][2], Value::Float(5.0));
    }

    #[test]
    fn cross_engine_algebra() {
        let bd = federation();
        // patients × drugs (from postgres) times patients × drugs (again) —
        // intersection keeps the shared structure
        let b = execute(&bd, "times(assoc(rx), assoc(rx))").unwrap();
        assert_eq!(b.len(), 2);
        // rowsum over the matmul of notes-terms with its transpose
        let b = execute(&bd, "rowsum(matmul(assoc(notes), transpose(assoc(notes))))").unwrap();
        assert!(!b.is_empty());
    }

    #[test]
    fn subsref_and_filter() {
        let bd = federation();
        let b = execute(&bd, "subsref(assoc(rx), p1, *)").unwrap();
        assert!(b.rows().iter().all(|r| r[0] == Value::Text("p1".into())));
        let b = execute(&bd, "filtergt(assoc(rx), 2.5)").unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn parse_errors() {
        let bd = federation();
        assert!(execute(&bd, "frobnicate(assoc(rx))").is_err());
        assert!(execute(&bd, "matmul(assoc(rx))").is_err());
        assert!(execute(&bd, "matmul(assoc(rx), assoc(rx), warp)").is_err());
        assert!(execute(&bd, "assoc(ghost)").is_err());
    }
}
