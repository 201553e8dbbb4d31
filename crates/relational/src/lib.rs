//! A relational engine — the PostgreSQL stand-in of the BigDAWG
//! reproduction (paper §1.1: Postgres stores the MIMIC II patient metadata).
//!
//! The engine is embedded (no server): a [`Database`] owns
//! [`table::Table`]s and B-tree [`index::Index`]es, accepts a SQL subset
//! through [`Database::execute`], and returns
//! [`bigdawg_common::Batch`]es. A table keeps its rows in two images, each
//! derived from the other on first need: a heap with stable row ids for
//! DML and the indexes, and a columnar image that scans read, CAST ships,
//! and a bulk load ([`Database::load_table`]) can hand over as is.
//!
//! Pipeline: [`sql`] (lexer + parser) → [`planner`] (AST → logical plan with
//! predicate pushdown and index selection) → [`exec`] (batch-to-batch
//! execution over columns: selection vectors, index-vector joins, typed
//! gathers).
//!
//! Supported SQL: `CREATE TABLE`, `CREATE INDEX`, `INSERT`, `UPDATE`,
//! `DELETE`, and `SELECT` with joins, `WHERE`, `GROUP BY`/`HAVING`,
//! `ORDER BY`, `LIMIT`, `DISTINCT`, and the aggregate functions
//! `COUNT/SUM/AVG/MIN/MAX/STDDEV`.
//!
//! This crate is also the *"one size fits all"* baseline for experiment E1:
//! the polystore benches store waveforms, text, and streams in here to show
//! what the paper's §4 claim (specialized engines win by 1–2 orders of
//! magnitude) looks like.

pub mod db;
pub mod exec;
pub mod expr;
pub mod index;
pub mod plan;
pub mod planner;
pub mod sql;
pub mod table;

pub use db::Database;
pub use expr::Expr;
pub use table::Table;
