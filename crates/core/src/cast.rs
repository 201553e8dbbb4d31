//! The CAST operator: moving data between engines.
//!
//! §2.1: "BigDAWG also relies on a CAST operator to move data between
//! engines … we are investigating techniques to make cross-database CASTs
//! more efficient than file-based import/export. For maximum performance,
//! each system needs an access method that knows how to read binary data in
//! parallel directly from another engine."
//!
//! Three transports implement that spectrum (experiments E4 and E13):
//!
//! * [`Transport::File`] — the baseline: serialize the batch to CSV text
//!   and parse it back (what `COPY TO`/`COPY FROM` across engines does);
//! * [`Transport::Binary`] — the optimized wire path: a *columnar* binary
//!   codec. Each (row-chunk × column) becomes one contiguous buffer —
//!   type tag, NULL bitmap, packed payload — encoded and decoded **in
//!   parallel across both columns and row chunks**. When the source engine
//!   sits behind an emulated wire ([`crate::shims::LatencyShim`]), each
//!   buffer's transfer is pipelined on its own stream, so wire time
//!   overlaps codec work instead of adding to it. A stream is a
//!   deadline, not a thread: a buffer's transfer runs from the moment it
//!   is encoded, and whichever codec worker encoded it decodes it once it
//!   has arrived — so a ship of small buffers needs no thread but the
//!   caller's;
//! * [`Transport::ZeroCopy`] — the co-resident fast path: the batch's
//!   `Arc`-shared columns are handed over as-is. No encode, no decode, and
//!   `wire_bytes` is honestly reported as 0 — nothing crossed any wire.
//!   Copy-on-write at the batch layer guarantees the receiver's snapshot
//!   is immune to later writes on the source.

use bigdawg_common::{
    Batch, BigDawgError, Column, ColumnData, DataType, NullMask, Result, Row, Schema, Tracer, Value,
};
use bigdawg_stream::recovery::{read_value, write_value};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How CAST ships rows between engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// CSV text export/import (the paper's "file-based import/export").
    File,
    /// Parallel columnar binary encode/decode, pipelined over the wire.
    Binary,
    /// In-process `Arc` handover between co-resident engines: no codec, no
    /// wire. Falls back to [`Transport::Binary`] when a wire is present —
    /// zero-copy cannot cross process boundaries.
    ZeroCopy,
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transport::File => "file",
            Transport::Binary => "binary",
            Transport::ZeroCopy => "zero-copy",
        })
    }
}

/// Measured result of one CAST.
#[derive(Debug, Clone)]
pub struct CastReport {
    /// Number of rows shipped.
    pub rows: usize,
    /// Bytes that crossed the wire. Zero for [`Transport::ZeroCopy`] —
    /// nothing was serialized.
    pub wire_bytes: usize,
    /// Time spent serializing on the source side (for the pipelined binary
    /// transport: the longest per-buffer encode, since buffers encode in
    /// parallel).
    pub encode: Duration,
    /// Time not hidden behind codec work: end-to-end wall time minus the
    /// overlapped encode/decode, so `total()` is honest wall clock. Behind
    /// an emulated wire this is dominated by the payload's flight time and
    /// pipelining shows up as `total() < encode + wire + decode` of the
    /// serial schedule; in-process it is the (small) scheduling/merge
    /// remainder of the parallel codec — exactly zero only for the
    /// zero-copy and CSV transports.
    pub transfer: Duration,
    /// Time spent deserializing on the target side (longest per-buffer
    /// decode for the pipelined transport).
    pub decode: Duration,
    /// Which transport shipped the rows.
    pub transport: Transport,
}

impl CastReport {
    /// End-to-end shipping time: encode + wire transfer + decode.
    pub fn total(&self) -> Duration {
        self.encode + self.transfer + self.decode
    }
}

/// Ship a batch through the chosen transport with no wire in between (the
/// in-process case). This is the data-plane of CAST; the engine
/// egress/ingress (get_table/put_table) happens in `BigDawg::cast_object`.
pub fn ship(batch: &Batch, transport: Transport) -> Result<(Batch, CastReport)> {
    ship_with_wire(batch, transport, Duration::ZERO)
}

/// Ship a batch through the chosen transport across an emulated wire with
/// the given one-way payload latency (zero = in-process). The binary
/// transport pipelines per-buffer transfers so the wire overlaps codec
/// work; the file transport pays the wire serially, like a file copy
/// between import and export would.
pub fn ship_with_wire(
    batch: &Batch,
    transport: Transport,
    wire: Duration,
) -> Result<(Batch, CastReport)> {
    ship_with_wire_traced(batch, transport, wire, Tracer::noop())
}

/// [`ship_with_wire`] with tracing: each transport opens spans for the
/// transfer phases it actually has. The sequential CSV path gets distinct
/// `cast.encode` / `cast.wire` / `cast.decode` spans; the pipelined binary
/// codec overlaps all three phases across worker threads, so it is traced
/// honestly as one `cast.wire` span covering the pipelined region; the
/// zero-copy handover is all "encode" (O(columns) `Arc` bumps).
pub(crate) fn ship_with_wire_traced(
    batch: &Batch,
    transport: Transport,
    wire: Duration,
    tracer: &Tracer,
) -> Result<(Batch, CastReport)> {
    match transport {
        Transport::File => ship_csv(batch, wire, tracer),
        Transport::Binary => {
            let _wire_span = tracer.span("cast.wire", "binary (pipelined)");
            ship_binary(batch, wire)
        }
        Transport::ZeroCopy if wire.is_zero() => {
            let _encode_span = tracer.span("cast.encode", "zero-copy");
            ship_zero_copy(batch)
        }
        // zero-copy cannot cross a wire: degrade to the columnar codec
        Transport::ZeroCopy => {
            let _wire_span = tracer.span("cast.wire", "binary (pipelined)");
            ship_binary(batch, wire)
        }
    }
}

// ---- zero-copy (co-resident) path ------------------------------------------

fn ship_zero_copy(batch: &Batch) -> Result<(Batch, CastReport)> {
    let t0 = Instant::now();
    // O(columns) Arc bumps; the receiver shares the source's columns until
    // either side writes (copy-on-write)
    let out = batch.clone();
    let encode = t0.elapsed();
    let report = CastReport {
        rows: batch.len(),
        wire_bytes: 0,
        encode,
        transfer: Duration::ZERO,
        decode: Duration::ZERO,
        transport: Transport::ZeroCopy,
    };
    Ok((out, report))
}

// ---- CSV (file-based) path -------------------------------------------------

fn ship_csv(batch: &Batch, wire: Duration, tracer: &Tracer) -> Result<(Batch, CastReport)> {
    let encode_span = tracer.span("cast.encode", "file");
    let t0 = Instant::now();
    let text = to_csv(batch);
    let encode = t0.elapsed();
    drop(encode_span);
    let t1 = Instant::now();
    if !wire.is_zero() {
        // one file, one transfer, strictly between export and import —
        // cancellable, so an over-budget query never rides out the wire
        let _wire_span = tracer.span("cast.wire", "file");
        bigdawg_common::deadline::sleep_cancellable(wire)?;
    }
    let transfer = t1.elapsed();
    let decode_span = tracer.span("cast.decode", "file");
    let t2 = Instant::now();
    let out = from_csv(&text, batch.schema())?;
    let decode = t2.elapsed();
    drop(decode_span);
    let report = CastReport {
        rows: batch.len(),
        wire_bytes: text.len(),
        encode,
        transfer,
        decode,
        transport: Transport::File,
    };
    Ok((out, report))
}

/// CSV with minimal quoting (quotes around fields containing `,`/`"`/newline,
/// embedded quotes doubled). Header row carries column names and types.
/// Cells are written straight into the output buffer (no per-cell `format!`
/// temporaries), which is pre-reserved from a per-row size estimate.
pub fn to_csv(batch: &Batch) -> String {
    let schema = batch.schema();
    // rough per-row estimate: numerics print ≤ ~13 chars, floats ≤ ~20,
    // text we guess; close enough to avoid repeated re-allocation
    let per_row: usize = schema
        .fields()
        .iter()
        .map(|f| match f.data_type {
            DataType::Float => 20,
            DataType::Text | DataType::Null => 16,
            DataType::Bool => 6,
            _ => 13,
        } + 1)
        .sum::<usize>()
        .max(2);
    let mut out = String::with_capacity(16 * (schema.len() + 1) + batch.len() * per_row);
    for (i, f) in schema.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", f.name, f.data_type);
    }
    out.push('\n');
    for i in 0..batch.len() {
        for (c, col) in batch.columns().iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            if col.is_null(i) {
                continue;
            }
            match col.data() {
                ColumnData::Int(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Timestamp(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Float(v) => {
                    let _ = write!(out, "{:?}", v[i]); // keeps precision
                }
                ColumnData::Bool(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Text(v) => csv_text(&mut out, &v[i]),
                ColumnData::Mixed(vals) => match &vals[i] {
                    Value::Null => {}
                    Value::Text(s) => csv_text(&mut out, s),
                    Value::Float(f) => {
                        let _ = write!(out, "{f:?}");
                    }
                    Value::Timestamp(t) => {
                        let _ = write!(out, "{t}");
                    }
                    other => {
                        let _ = write!(out, "{other}");
                    }
                },
            }
        }
        out.push('\n');
    }
    out
}

/// Append one text cell with CSV quoting.
fn csv_text(out: &mut String, s: &str) {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Parse CSV produced by [`to_csv`] back into a batch with `schema` types.
/// Quote-aware across newlines (RFC-4180 style), so quoted fields may
/// contain record separators.
pub fn from_csv(text: &str, schema: &Schema) -> Result<Batch> {
    let records = split_csv_records(text)?;
    let mut it = records.into_iter();
    let _header = it
        .next()
        .ok_or_else(|| BigDawgError::Cast("empty CSV payload".into()))?;
    let mut rows = Vec::new();
    for fields in it {
        if fields.len() != schema.len() {
            return Err(BigDawgError::Cast(format!(
                "CSV row has {} fields, schema has {}",
                fields.len(),
                schema.len()
            )));
        }
        let row: Row = fields
            .into_iter()
            .zip(schema.fields())
            .map(|(text, f)| parse_csv_value(&text, f.data_type))
            .collect::<Result<_>>()?;
        rows.push(row);
    }
    // arity was checked against the schema above — no re-validation needed
    Ok(Batch::from_parts_trusted(schema.clone(), rows))
}

/// Split a CSV payload into records of fields, honoring quoting. A field
/// that was quoted is marked non-null even when empty by the presence of
/// quotes; since `to_csv` never quotes empty fields, empty = NULL here.
fn split_csv_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                '\n' => {
                    fields.push(std::mem::take(&mut cur));
                    records.push(std::mem::take(&mut fields));
                }
                '\r' => {}
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(BigDawgError::Cast("unterminated CSV quote".into()));
    }
    if !cur.is_empty() || !fields.is_empty() {
        fields.push(cur);
        records.push(fields);
    }
    Ok(records)
}

fn parse_csv_value(text: &str, ty: DataType) -> Result<Value> {
    if text.is_empty() {
        return Ok(Value::Null);
    }
    let parsed = match ty {
        DataType::Text | DataType::Null => return Ok(infer_text(text)),
        other => Value::Text(text.to_string()).cast_to(other),
    };
    parsed.map_err(|_| BigDawgError::Cast(format!("cannot parse `{text}` as {ty}")))
}

/// For untyped (Null) columns, re-infer a scalar type the way a file
/// importer would.
fn infer_text(text: &str) -> Value {
    if let Ok(i) = text.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = text.parse::<f64>() {
        return Value::Float(f);
    }
    match text {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::Text(text.to_string()),
    }
}

// ---- columnar binary codec ---------------------------------------------------
//
// Wire unit: one buffer per (row-chunk × column), laid out as
//
//   u64 rows | u8 type-tag | u8 has-nulls | [null bitmap] | packed payload
//
// Numeric payloads are contiguous little-endian runs (NULL slots hold a
// placeholder so offsets stay trivial); text is u64-length-prefixed; mixed
// columns fall back to the per-value command-log codec. Buffers are
// independent, which is what buys parallel encode/decode across both axes
// and per-buffer transfer pipelining.

/// Number of parallel encode/decode partitions. Asked of the OS once:
/// `available_parallelism` reads the affinity mask and the cgroup files on
/// every call, tens of microseconds a ship.
fn partitions() -> usize {
    static PARTITIONS: OnceLock<usize> = OnceLock::new();
    *PARTITIONS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4)
    })
}

const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;
const TAG_TIMESTAMP: u8 = 5;
const TAG_MIXED: u8 = 6;

/// Encode one column's rows `lo..hi` into a self-contained buffer.
fn encode_column_slice(col: &Column, lo: usize, hi: usize) -> Vec<u8> {
    let n = hi - lo;
    let nulls = col.nulls();
    let has_nulls = (lo..hi).any(|i| nulls.is_null(i));
    let mut buf = Vec::with_capacity(16 + n / 8 + n * 9);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    let tag = match col.data() {
        ColumnData::Bool(_) => TAG_BOOL,
        ColumnData::Int(_) => TAG_INT,
        ColumnData::Float(_) => TAG_FLOAT,
        ColumnData::Text(_) => TAG_TEXT,
        ColumnData::Timestamp(_) => TAG_TIMESTAMP,
        ColumnData::Mixed(_) => TAG_MIXED,
    };
    buf.push(tag);
    if tag == TAG_MIXED {
        // mixed columns carry NULLs inline as tagged values
        buf.push(0);
    } else {
        buf.push(u8::from(has_nulls));
        if has_nulls {
            let mut byte = 0u8;
            for (k, i) in (lo..hi).enumerate() {
                if nulls.is_null(i) {
                    byte |= 1 << (k % 8);
                }
                if k % 8 == 7 {
                    buf.push(byte);
                    byte = 0;
                }
            }
            if n % 8 != 0 {
                buf.push(byte);
            }
        }
    }
    match col.data() {
        ColumnData::Bool(v) => buf.extend(v[lo..hi].iter().map(|&b| u8::from(b))),
        ColumnData::Int(v) | ColumnData::Timestamp(v) => {
            for x in &v[lo..hi] {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Float(v) => {
            for x in &v[lo..hi] {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Text(v) => {
            for s in &v[lo..hi] {
                buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        }
        ColumnData::Mixed(vals) => {
            for v in &vals[lo..hi] {
                write_value(&mut buf, v);
            }
        }
    }
    buf
}

/// Decode one buffer produced by [`encode_column_slice`].
fn decode_column_part(buf: &[u8]) -> Result<Column> {
    let corrupt = |what: &str| BigDawgError::Cast(format!("corrupt columnar part: {what}"));
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8]> {
        // `n` may be a forged u64 length near usize::MAX: compare against
        // the remaining bytes without computing `pos + n` (which would
        // overflow) so corruption always errors instead of panicking
        if n > buf.len().saturating_sub(pos) {
            return Err(corrupt("truncated"));
        }
        let s = &buf[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let n = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes")) as usize;
    // every layout costs ≥ 1 payload byte per row, so a row count beyond
    // the buffer length is corruption — reject it *before* sizing any
    // allocation from it (a forged header must error, not OOM)
    if n > buf.len() {
        return Err(corrupt("row count exceeds payload"));
    }
    let tag = take(1)?[0];
    let has_nulls = take(1)?[0] != 0;
    let mut nulls = NullMask::new();
    if tag != TAG_MIXED {
        if has_nulls {
            let bitmap = take(n.div_ceil(8))?;
            for i in 0..n {
                nulls.push(bitmap[i / 8] & (1 << (i % 8)) != 0);
            }
        } else {
            nulls = NullMask::all_valid(n);
        }
    }
    let data = match tag {
        TAG_BOOL => ColumnData::Bool(take(n)?.iter().map(|&b| b != 0).collect()),
        TAG_INT | TAG_TIMESTAMP => {
            let raw = take(n * 8)?;
            let v: Vec<i64> = raw
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            if tag == TAG_INT {
                ColumnData::Int(v)
            } else {
                ColumnData::Timestamp(v)
            }
        }
        TAG_FLOAT => {
            let raw = take(n * 8)?;
            ColumnData::Float(
                raw.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            )
        }
        TAG_TEXT => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let len = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes")) as usize;
                let bytes = take(len)?;
                v.push(String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("bad utf8 in text"))?);
            }
            ColumnData::Text(v)
        }
        TAG_MIXED => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let (val, used) = read_value(&buf[pos..])?;
                pos += used;
                v.push(val);
            }
            return Ok(Column::from_values(v));
        }
        other => return Err(corrupt(&format!("unknown column tag {other}"))),
    };
    Ok(Column::from_parts(data, nulls))
}

/// Row ranges splitting `len` rows into `n_chunks` chunks.
fn chunk_ranges(len: usize, n_chunks: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return vec![(0, 0)];
    }
    let chunk = len.div_ceil(n_chunks.max(1)).max(1);
    (0..len.div_ceil(chunk))
        .map(|c| (c * chunk, ((c + 1) * chunk).min(len)))
        .collect()
}

/// Encode a batch into (row-chunk × column) buffers, chunk-major — the
/// columnar wire codec, serially (the pipelined parallel path lives in
/// [`ship_with_wire`]). `rows_per_chunk` controls the chunking; pass
/// `batch.len().max(1)` for a single chunk.
pub fn encode_columnar(batch: &Batch, rows_per_chunk: usize) -> Vec<Vec<u8>> {
    let n_chunks = batch.len().div_ceil(rows_per_chunk.max(1)).max(1);
    let mut parts = Vec::with_capacity(n_chunks * batch.schema().len());
    for (lo, hi) in chunk_ranges(batch.len(), n_chunks) {
        for col in batch.columns() {
            parts.push(encode_column_slice(col, lo, hi));
        }
    }
    parts
}

/// Decode chunk-major (row-chunk × column) buffers back into a batch.
/// Pairs with [`encode_columnar`].
pub fn decode_columnar(parts: &[Vec<u8>], schema: &Schema) -> Result<Batch> {
    let width = schema.len();
    if width == 0 {
        return Ok(Batch::empty(schema.clone()));
    }
    if parts.len() % width != 0 || parts.is_empty() {
        return Err(BigDawgError::Cast(format!(
            "columnar payload has {} parts, not a multiple of {width} columns",
            parts.len()
        )));
    }
    let decoded: Vec<Column> = parts
        .iter()
        .map(|buf| decode_column_part(buf))
        .collect::<Result<_>>()?;
    // from_columns re-checks column-length agreement; surface a violation
    // as payload corruption, which on this path it is
    Batch::from_columns(schema.clone(), assemble_columns(width, decoded))
        .map_err(|e| BigDawgError::Cast(format!("corrupt columnar payload: {e}")))
}

/// Reassemble chunk-major per-buffer columns (buffer `k` holds column
/// `k % width` of chunk `k / width`) into whole columns. Shared by the
/// serial decoder and the pipelined ship path so the two can never
/// disagree on ordering.
fn assemble_columns(width: usize, parts: Vec<Column>) -> Vec<Column> {
    let mut columns: Vec<Option<Column>> = (0..width).map(|_| None).collect();
    for (k, part) in parts.into_iter().enumerate() {
        match &mut columns[k % width] {
            Some(col) => col.append(part),
            slot => *slot = Some(part),
        }
    }
    columns
        .into_iter()
        .map(|c| c.expect("at least one chunk per column"))
        .collect()
}

/// Average payload per buffer below which a ship spawns no codec worker
/// and the calling thread pipelines every buffer itself: at the codec's
/// ~1 GB/s this is ~30 µs of work, what spawning and reaping one scoped
/// thread costs (`pushdown_scan` ships 30–32 buffers of at most 8 kB; a
/// thread for each was 1 ms of its 6.3 ms query — and each thread's exit
/// is a TLB-shootdown interrupt whenever the process is on both CPUs, so
/// `cpu_ms_per_query` read 1.5 or 3.1 ms from one run to the next).
const STREAM_THREAD_MIN_BYTES: usize = 32 * 1024;

/// Outcome of one pipelined (encode → transfer → decode) buffer.
struct PartOutcome {
    column: Column,
    bytes: usize,
    encode: Duration,
    decode: Duration,
}

fn ship_binary(batch: &Batch, wire: Duration) -> Result<(Batch, CastReport)> {
    let started = Instant::now();
    let len = batch.len();
    let width = batch.schema().len();
    if width == 0 {
        // a zero-column batch still ships its row count — encode the
        // header for real so wire_bytes stays an honest byte count
        let t0 = Instant::now();
        let header = (len as u64).to_le_bytes();
        let encode = t0.elapsed();
        if !wire.is_zero() {
            bigdawg_common::deadline::sleep_cancellable(wire)?;
        }
        let t1 = Instant::now();
        let n = u64::from_le_bytes(header) as usize;
        let out = Batch::from_parts_trusted(batch.schema().clone(), vec![Vec::new(); n]);
        let decode = t1.elapsed();
        let wall = started.elapsed();
        return Ok((
            out,
            CastReport {
                rows: len,
                wire_bytes: header.len(),
                encode,
                transfer: wall.saturating_sub(encode + decode),
                decode,
                transport: Transport::Binary,
            },
        ));
    }

    // chunking: enough buffers to keep every codec worker busy and — when a
    // wire is present — enough independent streams that transfers overlap
    let target_parts: usize = if wire.is_zero() { partitions() } else { 32 };
    let n_chunks = if len < 4096 {
        1
    } else {
        (target_parts / width).clamp(1, 16)
    };
    let ranges = chunk_ranges(len, n_chunks);
    // (result slot, row range) per buffer, chunk-major
    let task_list: Vec<(usize, usize, usize)> = ranges
        .iter()
        .enumerate()
        .flat_map(|(c, &(lo, hi))| (0..width).map(move |j| (c * width + j, lo, hi)))
        .collect();

    // the codec workers below have no thread-local query context of their
    // own, so the caller's is captured once and its deadline-aware sleep
    // shared — a cancellation wakes every in-flight transfer stream
    let ctx = bigdawg_common::deadline::current();
    let n_tasks = task_list.len();
    let next = AtomicUsize::new(0);
    // One worker's share. A buffer's transfer — its own stream, `wire`
    // long — starts the moment it is encoded; the worker goes on encoding,
    // decodes whatever has arrived in the meantime, and at the end waits
    // for the rest. Transfers overlap each other and the codec work
    // without a thread per stream.
    let work = || -> Vec<(usize, Result<PartOutcome>)> {
        let receive = |(slot, buf, encode, arrives): (usize, Vec<u8>, Duration, Instant)| {
            let decoded = || -> Result<PartOutcome> {
                if !wire.is_zero() {
                    let left = arrives.saturating_duration_since(Instant::now());
                    match &ctx {
                        Some(c) => c.sleep(left)?,
                        None => std::thread::sleep(left),
                    }
                }
                let t1 = Instant::now();
                let column = decode_column_part(&buf)?;
                Ok(PartOutcome {
                    column,
                    bytes: buf.len(),
                    encode,
                    decode: t1.elapsed(),
                })
            };
            (slot, decoded())
        };
        let mut in_flight = VecDeque::new();
        let mut received = Vec::new();
        while let Some(&(slot, lo, hi)) = task_list.get(next.fetch_add(1, Ordering::Relaxed)) {
            let t0 = Instant::now();
            let buf = encode_column_slice(batch.column_ref(slot % width), lo, hi);
            let encode = t0.elapsed();
            in_flight.push_back((slot, buf, encode, Instant::now() + wire));
            while in_flight
                .front()
                .is_some_and(|sent| sent.3 <= Instant::now())
            {
                received.extend(in_flight.pop_front().map(receive));
            }
        }
        received.extend(in_flight.into_iter().map(receive));
        received
    };
    // The calling thread is always a worker. More are spawned only for
    // buffers big enough to pay for a thread: a wired ship then runs one
    // stream per thread, an in-process one a worker per core.
    let workers = if batch.approx_bytes() / n_tasks < STREAM_THREAD_MIN_BYTES {
        1
    } else {
        n_tasks.min(if wire.is_zero() { partitions() } else { 32 })
    };
    let mut outcomes = std::thread::scope(|s| {
        let others: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut outcomes = work();
        for other in others {
            let share = other.join();
            outcomes.extend(share.unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        outcomes
    });
    // back into chunk-major order, whichever worker took which buffer
    outcomes.sort_unstable_by_key(|&(slot, _)| slot);

    let mut parts = Vec::with_capacity(n_tasks);
    let mut wire_bytes = 0usize;
    let mut encode = Duration::ZERO;
    let mut decode = Duration::ZERO;
    for (_, outcome) in outcomes {
        let part = outcome?;
        wire_bytes += part.bytes;
        encode = encode.max(part.encode);
        decode = decode.max(part.decode);
        parts.push(part.column);
    }
    let out = Batch::from_columns(batch.schema().clone(), assemble_columns(width, parts))?;
    let wall = started.elapsed();
    let report = CastReport {
        rows: len,
        wire_bytes,
        encode,
        transfer: wall.saturating_sub(encode + decode),
        decode,
        transport: Transport::Binary,
    };
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdawg_common::Field;
    use std::sync::Arc;

    fn batch() -> Batch {
        let schema = Schema::new(vec![
            Field::required("id", DataType::Int),
            Field::new("name", DataType::Text),
            Field::new("hr", DataType::Float),
            Field::new("ok", DataType::Bool),
            Field::new("ts", DataType::Timestamp),
        ]);
        let rows = (0..500)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Text(format!("patient, \"{i}\"\n-x"))
                    },
                    Value::Float(i as f64 * 0.31),
                    Value::Bool(i % 2 == 0),
                    Value::Timestamp(1_420_000_000_000 + i),
                ]
            })
            .collect();
        Batch::new(schema, rows).unwrap()
    }

    #[test]
    fn csv_roundtrip_with_quoting() {
        let b = batch();
        let (back, report) = ship(&b, Transport::File).unwrap();
        assert_eq!(
            back.rows(),
            b.rows(),
            "commas, quotes, and newlines survive"
        );
        assert_eq!(report.rows, 500);
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn binary_roundtrip_exact() {
        let b = batch();
        let (back, report) = ship(&b, Transport::Binary).unwrap();
        assert_eq!(back.rows(), b.rows());
        assert_eq!(report.transport, Transport::Binary);
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn zero_copy_shares_columns_and_reports_no_wire_bytes() {
        let b = batch();
        let (back, report) = ship(&b, Transport::ZeroCopy).unwrap();
        assert_eq!(back.rows(), b.rows());
        assert_eq!(report.transport, Transport::ZeroCopy);
        assert_eq!(report.wire_bytes, 0, "nothing was serialized");
        assert!(
            Arc::ptr_eq(&b.columns()[0], &back.columns()[0]),
            "columns are handed over, not copied"
        );
    }

    #[test]
    fn zero_copy_degrades_to_binary_across_a_wire() {
        let b = batch();
        let (back, report) =
            ship_with_wire(&b, Transport::ZeroCopy, Duration::from_millis(1)).unwrap();
        assert_eq!(back.rows(), b.rows());
        assert_eq!(
            report.transport,
            Transport::Binary,
            "zero-copy cannot cross a wire"
        );
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn columnar_codec_multi_chunk_roundtrip() {
        let b = batch();
        let parts = encode_columnar(&b, 100);
        assert_eq!(parts.len(), 5 * 5, "5 chunks × 5 columns");
        let back = decode_columnar(&parts, b.schema()).unwrap();
        assert_eq!(back.rows(), b.rows());
        // typed layouts survive the wire
        assert!(back.column_ref(0).as_ints().is_some());
        assert!(back.column_ref(2).as_floats().is_some());
    }

    #[test]
    fn binary_ship_with_wire_roundtrips_and_pays_the_wire() {
        let b = batch();
        let wire = Duration::from_millis(2);
        let (back, report) = ship_with_wire(&b, Transport::Binary, wire).unwrap();
        assert_eq!(back.rows(), b.rows());
        assert!(
            report.total() >= wire,
            "the wire cannot be cheated: {:?}",
            report.total()
        );
    }

    #[test]
    fn buffers_in_flight_share_the_wire_whatever_the_worker_count() {
        // 30 small buffers (6 row chunks × 5 columns), so the calling
        // thread is the only codec worker: sleeping out each transfer in
        // turn would pay the wire once per buffer
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Float),
            ("d", DataType::Text),
            ("e", DataType::Bool),
        ]);
        let rows = (0..5000i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 9 == 0 {
                        Value::Null
                    } else {
                        Value::Int(-i)
                    },
                    Value::Float(i as f64 / 4.0),
                    Value::Text(format!("row {i}")),
                    Value::Bool(i % 2 == 0),
                ]
            })
            .collect();
        let b = Batch::new(schema, rows).unwrap();
        let wire = Duration::from_millis(50);
        let (back, report) = ship_with_wire(&b, Transport::Binary, wire).unwrap();
        assert_eq!(back.rows(), b.rows());
        assert_eq!(back.schema(), b.schema());
        assert!(report.total() >= wire, "{:?}", report.total());
        // one wire and a few milliseconds of codec; 30 wires if serial
        assert!(
            report.total() < 10 * wire,
            "transfers must overlap: {:?}",
            report.total()
        );
    }

    #[test]
    fn csv_precision_preserved_for_floats() {
        let schema = Schema::from_pairs(&[("x", DataType::Float)]);
        let b = Batch::new(
            schema.clone(),
            vec![
                vec![Value::Float(std::f64::consts::PI)],
                vec![Value::Float(1e-300)],
            ],
        )
        .unwrap();
        let back = from_csv(&to_csv(&b), &schema).unwrap();
        assert_eq!(back.rows(), b.rows());
    }

    #[test]
    fn csv_null_roundtrip() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Text)]);
        let b = Batch::new(
            schema.clone(),
            vec![vec![Value::Null, Value::Text("x".into())]],
        )
        .unwrap();
        let back = from_csv(&to_csv(&b), &schema).unwrap();
        assert!(back.rows()[0][0].is_null());
    }

    #[test]
    fn corrupt_columnar_detected() {
        let b = batch();
        let mut parts = encode_columnar(&b, 250);
        parts[1].truncate(6);
        assert!(decode_columnar(&parts, b.schema()).is_err());
        let parts = encode_columnar(&b, 250);
        assert!(
            decode_columnar(&parts[..3], b.schema()).is_err(),
            "part count must be a multiple of the column count"
        );
        // a forged row count must error, not size an allocation
        let mut parts = encode_columnar(&b, 250);
        parts[0][..8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let err = decode_columnar(&parts, b.schema()).unwrap_err();
        assert_eq!(err.kind(), "cast");
        // a forged text-length prefix (near u64::MAX) must error, not
        // overflow the cursor arithmetic
        let mut parts = encode_columnar(&b, 250);
        let text_part = &mut parts[1]; // column 1 is the Text column
        let first_len_at = 8 + 1 + 1 + 250usize.div_ceil(8); // rows, tag, has_nulls, bitmap
        text_part[first_len_at..first_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_columnar(&parts, b.schema()).unwrap_err();
        assert_eq!(err.kind(), "cast");
    }

    #[test]
    fn csv_field_count_mismatch_detected() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        assert!(from_csv("a:int,b:int\n1,2,3\n", &schema).is_err());
    }
}
