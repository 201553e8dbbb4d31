//! The Myria island (§2.1.1): relational algebra extended with iteration,
//! over the whole federation.
//!
//! Query dialect — a pipeline syntax compiled to `bigdawg_myria::RaPlan`
//! and run through Myria's optimizer and semi-naive executor:
//!
//! ```text
//! pipeline := source (" |> " stage)*
//! source   := scan(OBJECT)
//!           | closure(OBJECT, from_col, to_col, max_iters)   -- transitive closure
//! stage    := filter(<predicate>)
//!           | project(col, …)
//!           | join(<pipeline>, left_col, right_col)
//!           | union(<pipeline>)
//!           | agg(group_col…; func; [arg_col])
//! ```
//!
//! Scans resolve through the polystore catalog, so a pipeline can join a
//! Postgres table against a SciDB array without the user knowing where
//! either lives.

use crate::monitor::QueryClass;
use crate::polystore::BigDawg;
use bigdawg_common::{parse_err, Batch, Result};
use bigdawg_myria::exec::TableProvider;
use bigdawg_myria::{execute as myria_execute, optimize, RaPlan};
use bigdawg_relational::expr::AggFunc;
use bigdawg_relational::sql::parser::parse_expr;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// A Myria table provider backed by the whole federation. Each object is
/// exported once per pipeline: the optimizer's row estimate and the scan
/// (and every re-scan of an iteration) answer from the same `Arc`-shared
/// batch.
struct PolystoreProvider<'a> {
    bd: &'a BigDawg,
    scanned: RefCell<HashMap<String, Batch>>,
}

impl TableProvider for PolystoreProvider<'_> {
    fn scan_table(&self, name: &str) -> Result<Batch> {
        if let Some(batch) = self.scanned.borrow().get(name) {
            return Ok(batch.clone());
        }
        let batch = self.bd.read_object(name)?;
        self.scanned
            .borrow_mut()
            .insert(name.to_string(), batch.clone());
        Ok(batch)
    }

    fn estimated_rows(&self, name: &str) -> Option<usize> {
        self.scan_table(name).ok().map(|b| b.len())
    }
}

/// Execute a Myria pipeline query.
pub fn execute(bd: &BigDawg, query: &str) -> Result<Batch> {
    let plan = parse_pipeline(query)?;
    let provider = PolystoreProvider {
        bd,
        scanned: RefCell::default(),
    };
    let plan = optimize(&provider, plan);
    let started = Instant::now();
    let result = myria_execute(&provider, &plan);
    if let Some(obj) = plan.scanned_tables().first() {
        if let Ok(engine) = bd.locate(obj) {
            let class = if matches!(plan, RaPlan::Iterate { .. }) {
                QueryClass::LinearAlgebra // iteration ≈ graph/recursive analytics
            } else {
                QueryClass::Join
            };
            bd.monitor()
                .lock()
                .record(obj, class, &engine, started.elapsed());
        }
    }
    result
}

/// Parse `source |> stage |> …`.
pub fn parse_pipeline(text: &str) -> Result<RaPlan> {
    let segments = split_pipeline(text);
    let mut iter = segments.into_iter();
    let src = iter
        .next()
        .ok_or_else(|| parse_err!("empty Myria pipeline"))?;
    let mut plan = parse_source(&src)?;
    for seg in iter {
        plan = parse_stage(plan, &seg)?;
    }
    Ok(plan)
}

/// Split on top-level `|>` (not inside parentheses).
fn split_pipeline(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i32;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '(' => {
                depth += 1;
                cur.push('(');
                i += 1;
            }
            ')' => {
                depth -= 1;
                cur.push(')');
                i += 1;
            }
            '|' if depth == 0 && chars.get(i + 1) == Some(&'>') => {
                out.push(cur.trim().to_string());
                cur.clear();
                i += 2;
            }
            c => {
                cur.push(c);
                i += 1;
            }
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn parse_source(text: &str) -> Result<RaPlan> {
    if let Some(args) = call_args(text, "scan") {
        return Ok(RaPlan::scan(args.trim()));
    }
    if let Some(args) = call_args(text, "closure") {
        let parts: Vec<&str> = args.split(',').map(str::trim).collect();
        if parts.len() != 4 {
            return Err(parse_err!("closure(object, from_col, to_col, max_iters)"));
        }
        let (obj, from, to) = (parts[0], parts[1], parts[2]);
        let iters: usize = parts[3]
            .parse()
            .map_err(|_| parse_err!("bad max_iters `{}`", parts[3]))?;
        let base = RaPlan::scan(obj).project(&[from, to]);
        let body = RaPlan::IterInput
            .join(RaPlan::scan(obj).project(&[from, to]), to, from)
            .project(&[from, &format!("right.{to}")]);
        return Ok(RaPlan::iterate(base, body, iters));
    }
    Err(parse_err!(
        "pipeline must start with scan(...) or closure(...), got `{text}`"
    ))
}

fn parse_stage(input: RaPlan, text: &str) -> Result<RaPlan> {
    if let Some(args) = call_args(text, "filter") {
        return Ok(input.filter(parse_expr(&args)?));
    }
    if let Some(args) = call_args(text, "project") {
        let cols: Vec<&str> = args.split(',').map(str::trim).collect();
        return Ok(input.project(&cols));
    }
    if let Some(args) = call_args(text, "join") {
        // join(<pipeline>, lcol, rcol): split from the right so the nested
        // pipeline may contain commas inside calls.
        let parts = rsplit_n_commas(&args, 2)?;
        let right = parse_pipeline(&parts[0])?;
        return Ok(input.join(right, parts[1].trim(), parts[2].trim()));
    }
    if let Some(args) = call_args(text, "union") {
        return Ok(input.union(parse_pipeline(&args)?));
    }
    if let Some(args) = call_args(text, "agg") {
        let sections: Vec<&str> = args.split(';').collect();
        if sections.len() < 2 || sections.len() > 3 {
            return Err(parse_err!("agg(group…; func; [arg])"));
        }
        let groups: Vec<&str> = sections[0]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty() && *s != "*")
            .collect();
        let func = AggFunc::by_name(sections[1].trim())
            .ok_or_else(|| parse_err!("unknown aggregate `{}`", sections[1].trim()))?;
        let arg = sections.get(2).map(|s| s.trim()).filter(|s| !s.is_empty());
        return Ok(input.aggregate(&groups, func, arg));
    }
    Err(parse_err!("unknown pipeline stage `{text}`"))
}

/// Split `args` at the last `n` top-level commas, returning n+1 pieces
/// (head, then the n tail items).
fn rsplit_n_commas(args: &str, n: usize) -> Result<Vec<String>> {
    let mut depth = 0i32;
    let chars: Vec<char> = args.chars().collect();
    let mut commas = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => commas.push(i),
            _ => {}
        }
    }
    if commas.len() < n {
        return Err(parse_err!("expected {n} trailing arguments"));
    }
    let cut = commas.len() - n;
    let mut pieces = Vec::with_capacity(n + 1);
    let head_end = commas[cut];
    pieces.push(args[..head_end].trim().to_string());
    for w in cut..commas.len() {
        let start = commas[w] + 1;
        let end = if w + 1 < commas.len() {
            commas[w + 1]
        } else {
            args.len()
        };
        pieces.push(args[start..end].trim().to_string());
    }
    Ok(pieces)
}

fn call_args(text: &str, op: &str) -> Option<String> {
    let t = text.trim();
    let rest = t.strip_prefix(op)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    let mut depth = 0i32;
    for c in rest.chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            _ => {}
        }
    }
    (depth == 0).then(|| rest.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shims::RelationalShim;
    use bigdawg_common::Value;

    fn federation() -> BigDawg {
        let mut bd = BigDawg::new();
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut()
            .execute("CREATE TABLE transfers (src TEXT, dst TEXT)")
            .unwrap();
        pg.db_mut()
            .execute("INSERT INTO transfers VALUES ('er','icu'), ('icu','ward'), ('ward','rehab')")
            .unwrap();
        bd.add_engine(Box::new(pg));
        bd
    }

    #[test]
    fn scan_filter_project() {
        let bd = federation();
        let b = execute(
            &bd,
            "scan(transfers) |> filter(src = 'icu') |> project(dst)",
        )
        .unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.rows()[0][0], Value::Text("ward".into()));
    }

    #[test]
    fn transitive_closure() {
        let bd = federation();
        let b = execute(&bd, "closure(transfers, src, dst, 10)").unwrap();
        // chain er→icu→ward→rehab: 3+2+1 = 6 reachable pairs
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn closure_then_filter() {
        let bd = federation();
        let b = execute(
            &bd,
            "closure(transfers, src, dst, 10) |> filter(src = 'er')",
        )
        .unwrap();
        assert_eq!(b.len(), 3, "er reaches icu, ward, rehab");
    }

    #[test]
    fn join_and_aggregate() {
        let bd = federation();
        let b = execute(
            &bd,
            "scan(transfers) |> join(scan(transfers), dst, src) |> agg(*; count)",
        )
        .unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(2)); // two 2-hop paths
        let b = execute(&bd, "scan(transfers) |> agg(src; count)").unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn union_pipelines() {
        let bd = federation();
        let b = execute(
            &bd,
            "scan(transfers) |> union(scan(transfers) |> filter(src = 'er'))",
        )
        .unwrap();
        assert_eq!(b.len(), 3, "union dedups");
    }

    #[test]
    fn parse_errors() {
        let bd = federation();
        assert!(execute(&bd, "warp(transfers)").is_err());
        assert!(execute(&bd, "scan(transfers) |> fold(x)").is_err());
        assert!(execute(&bd, "closure(transfers, src, dst)").is_err());
        assert!(execute(&bd, "scan(transfers) |> agg(src; median)").is_err());
    }
}
