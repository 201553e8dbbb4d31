//! Set-up, the oracle pass, and the closed-loop load: everything here goes
//! through the public façade (`BigDawg::execute`) with tracing off.

use crate::federations::Scale;
use crate::stats;
use crate::workloads::{self, Op, Read, Workload};
use bigdawg_common::Batch;
use bigdawg_core::{BigDawg, CacheStats};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// The timed window is cut into this many equal rounds; each metric is
/// also computed per round, so a result file shows how steady it was.
pub const ROUNDS: usize = 5;

/// What a read query must answer, taken from the oracle pass.
#[derive(Debug, Clone)]
pub struct Reference {
    rows: usize,
    /// Over every column, or over all but the first for a `dim_sum` read.
    checksum: u64,
}

/// A federation that passed its oracle pass, ready for load.
pub struct Bench {
    pub workload: Workload,
    pub bd: BigDawg,
    pub reads: Vec<Read>,
    refs: Vec<Reference>,
    /// `SUM(dim.w)` before any write of the harness.
    dim_base: i64,
    writes_started: AtomicI64,
    writes_committed: AtomicI64,
    /// Wire bytes the pool shipped in the oracle pass, optimized plan and
    /// serial (placement-only) plan.
    pub pool_wire_bytes: (u64, u64),
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

pub fn wire_bytes(bd: &BigDawg) -> u64 {
    bd.metrics().counter_value("bigdawg_wire_bytes_total")
}

fn int_at(batch: &Batch, row: usize, col: usize) -> Option<i64> {
    (row < batch.len() && col < batch.schema().len())
        .then(|| batch.value_at(row, col).as_i64().ok())
        .flatten()
}

impl Bench {
    /// Build the workload's federation and run the oracle pass: every
    /// distinct query of the pool must answer the same rows through the
    /// optimized parallel executor and through the serial reference
    /// schedule. The optimized answers become the references the timed
    /// answers are checked against.
    pub fn set_up(workload: Workload, scale: &Scale, seed: u64) -> Result<Bench, String> {
        let bd = workload
            .federation(scale)
            .map_err(|e| err("building the federation", e))?;
        let reads = workload.reads(seed);
        let dim_total = |bd: &BigDawg| {
            bd.execute(workloads::DIM_TOTAL)
                .map_err(|e| err(workloads::DIM_TOTAL, e))
                .and_then(|b| int_at(&b, 0, 0).ok_or_else(|| "SUM(dim.w) is not an integer".into()))
        };
        let dim_base = dim_total(&bd)?;
        let mut refs = Vec::with_capacity(reads.len());
        let (mut optimized_bytes, mut serial_bytes) = (0, 0);
        for read in &reads {
            let before = wire_bytes(&bd);
            let optimized = bd.execute(&read.text).map_err(|e| err(&read.text, e))?;
            let between = wire_bytes(&bd);
            let serial = bd
                .execute_serial(&read.text)
                .map_err(|e| err(&read.text, e))?;
            optimized_bytes += between - before;
            serial_bytes += wire_bytes(&bd) - between;
            if optimized.rows() != serial.rows() {
                return Err(format!(
                    "oracle: execute and execute_serial disagree on {}",
                    read.text
                ));
            }
            if optimized.is_empty() {
                return Err(format!("oracle: {} answers no rows", read.text));
            }
            if read.dim_sum && int_at(&optimized, 0, 0) != Some(dim_base) {
                return Err(format!(
                    "oracle: {} does not lead with SUM(dim.w)",
                    read.text
                ));
            }
            refs.push(Reference {
                rows: optimized.len(),
                checksum: stats::checksum(&optimized, read.dim_sum.then_some(0)),
            });
        }
        Ok(Bench {
            workload,
            bd,
            reads,
            refs,
            dim_base,
            writes_started: AtomicI64::new(0),
            writes_committed: AtomicI64::new(0),
            pool_wire_bytes: (optimized_bytes, serial_bytes),
        })
    }

    /// Run one operation; returns its latency and whether it succeeded
    /// and answered correctly. The answer is checked after the stopwatch
    /// stops.
    pub fn run_op(&self, op: Op) -> (Duration, bool) {
        match op {
            Op::Read(i) => {
                let committed_before = self.writes_committed.load(Ordering::SeqCst);
                let started = Instant::now();
                let answer = self.bd.execute(&self.reads[i].text);
                let latency = started.elapsed();
                let ok = answer.is_ok_and(|batch| self.check_read(i, &batch, committed_before));
                (latency, ok)
            }
            Op::Write(k) => {
                let text = workloads::write_text(k);
                self.writes_started.fetch_add(1, Ordering::SeqCst);
                let started = Instant::now();
                let answer = self.bd.execute(&text);
                let latency = started.elapsed();
                let ok = answer.is_ok_and(|batch| int_at(&batch, 0, 0) == Some(1));
                if ok {
                    self.writes_committed.fetch_add(1, Ordering::SeqCst);
                }
                (latency, ok)
            }
        }
    }

    /// Row count and order-sensitive checksum against the reference; for a
    /// `dim_sum` read also the staleness check: a read issued after `W`
    /// writes were committed must see at least `base + W`, and can see at
    /// most as many as were started by the time it returned.
    pub fn check_read(&self, i: usize, batch: &Batch, committed_before: i64) -> bool {
        let (read, reference) = (&self.reads[i], &self.refs[i]);
        if batch.len() != reference.rows
            || stats::checksum(batch, read.dim_sum.then_some(0)) != reference.checksum
        {
            return false;
        }
        if !read.dim_sum {
            return true;
        }
        let started_by_end = self.writes_started.load(Ordering::SeqCst);
        int_at(batch, 0, 0).is_some_and(|sum| {
            (self.dim_base + committed_before..=self.dim_base + started_by_end).contains(&sum)
        })
    }

    /// `n` writes back to back from this thread with nothing else running:
    /// how the read-only workloads measure the UPDATE path, which their
    /// windows never take — so a tenth as many untimed writes warm it
    /// first. Returns the latency (ms) of each timed write that succeeded;
    /// the rest count as failed operations.
    pub fn write_burst(&self, n: usize) -> Vec<f64> {
        let write = |i: usize| self.run_op(Op::Write(i as i64 % crate::federations::DIM_ROWS));
        for i in 0..n / 10 {
            write(i);
        }
        (0..n)
            .filter_map(|i| {
                let (latency, ok) = write(i);
                ok.then_some(latency.as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// After the load has stopped: `dim` must hold exactly the committed
    /// writes — none lost, none applied twice.
    pub fn check_writes_landed(&self) -> Result<(), String> {
        let total = self
            .bd
            .execute_serial(workloads::DIM_TOTAL)
            .map_err(|e| err(workloads::DIM_TOTAL, e))
            .map(|b| int_at(&b, 0, 0))?;
        let want = self.dim_base + self.writes_committed.load(Ordering::SeqCst);
        if total == Some(want) {
            Ok(())
        } else {
            Err(format!(
                "SUM(dim.w) is {total:?} after the load, expected {want}"
            ))
        }
    }
}

/// Share of the cacheable lookups between two snapshots that were hits;
/// `None` when there were none.
pub fn hit_ratio(before: &CacheStats, after: &CacheStats) -> Option<f64> {
    let lookups = |s: &CacheStats| s.hits + s.misses + s.stale_drops;
    let n = lookups(after) - lookups(before);
    (n > 0).then(|| (after.hits - before.hits) as f64 / n as f64)
}

/// Set up `repeats` times, timing each (federation build + load + oracle
/// pass); only one federation is alive at a time. Returns the last one and
/// every set-up time in seconds.
pub fn timed_set_up(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    repeats: usize,
) -> Result<(Bench, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut bench = None;
    for _ in 0..repeats.max(1) {
        drop(bench.take());
        let started = Instant::now();
        bench = Some(Bench::set_up(workload, scale, seed)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((bench.expect("at least one set-up ran"), times))
}

/// One finished operation of a window.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Seconds from the window's start to the operation's end.
    pub end_s: f64,
    pub latency_ms: f64,
    pub write: bool,
    pub ok: bool,
}

/// Process counters read at a round boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at_s: f64,
    pub cpu_s: f64,
    pub wire_bytes: u64,
}

/// Everything a load window observed.
pub struct Window {
    pub records: Vec<OpRecord>,
    /// `ROUNDS + 1` marks: the start, the inner boundaries, the end.
    pub marks: Vec<Mark>,
    /// The length asked for; the window itself runs until the last client
    /// has reached a boundary.
    pub duration_s: f64,
}

/// Drive the closed loop for `duration`: one thread per sequence, each
/// sending its next operation when the previous one has answered. A client
/// stops at the first operation boundary after the time is up — under
/// [`Workload::whole_passes`] at the first *pass* boundary, so every pool
/// query ran equally often.
pub fn run_window(bench: &Bench, sequences: &[Vec<Op>], duration: Duration) -> Window {
    let mark = |started: Instant| Mark {
        at_s: started.elapsed().as_secs_f64(),
        cpu_s: stats::process_cpu_seconds().unwrap_or(f64::NAN),
        wire_bytes: wire_bytes(&bench.bd),
    };
    let pool = bench.reads.len();
    let whole_passes = bench.workload.whole_passes();
    let started = Instant::now();
    let mut marks = vec![mark(started)];
    let mut records = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = sequences
            .iter()
            .map(|ops| {
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(1 << 14);
                    let mut pos = 0;
                    loop {
                        let boundary = !whole_passes || pos % pool == 0;
                        if boundary && started.elapsed() >= duration {
                            return mine;
                        }
                        let op = ops[pos];
                        let (latency, ok) = bench.run_op(op);
                        mine.push(OpRecord {
                            end_s: started.elapsed().as_secs_f64(),
                            latency_ms: latency.as_secs_f64() * 1e3,
                            write: matches!(op, Op::Write(_)),
                            ok,
                        });
                        pos = (pos + 1) % ops.len();
                    }
                })
            })
            .collect();
        for round in 1..ROUNDS {
            let boundary = duration.mul_f64(round as f64 / ROUNDS as f64);
            std::thread::sleep(boundary.saturating_sub(started.elapsed()));
            marks.push(mark(started));
        }
        for handle in handles {
            records.extend(handle.join().expect("a load client panicked"));
        }
    });
    marks.push(mark(started));
    Window {
        records,
        marks,
        duration_s: duration.as_secs_f64(),
    }
}

/// A metric over the whole window and over each of its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub rounds: Vec<f64>,
}

/// What one window measured, pooled and per round.
pub struct WindowMetrics {
    pub query_p50_ms: Measured,
    pub query_p95_ms: Measured,
    pub write_p50_ms: Measured,
    pub throughput_qps: Measured,
    pub cpu_ms_per_query: Measured,
    pub wire_bytes_per_query: Measured,
    pub attempted: usize,
    pub failed: usize,
    pub reads: usize,
    pub writes: usize,
    pub wall_s: f64,
}

/// Median of `latencies` (ms), and of each of [`ROUNDS`] equal runs of them.
pub fn p50_in_rounds(latencies: &[f64]) -> Measured {
    let p50 = |part: &[f64]| {
        let mut sorted = part.to_vec();
        sorted.sort_by(f64::total_cmp);
        stats::percentile(&sorted, 50.0).unwrap_or(f64::NAN)
    };
    Measured {
        value: p50(latencies),
        rounds: latencies
            .chunks((latencies.len() / ROUNDS).max(1))
            .take(ROUNDS)
            .map(p50)
            .collect(),
    }
}

/// What one slice of a window (all of it, or one round) measured: read
/// p50 and p95, write p50, operations per second, CPU ms per operation,
/// wire bytes per read.
fn slice_metrics(records: &[&OpRecord], from: &Mark, to: &Mark) -> [f64; 6] {
    let latencies = |write: bool| {
        let mut v: Vec<f64> = records
            .iter()
            .filter(|r| r.ok && r.write == write)
            .map(|r| r.latency_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (reads, writes) = (latencies(false), latencies(true));
    let read_ops = records.iter().filter(|r| !r.write).count() as f64;
    [
        stats::percentile(&reads, 50.0).unwrap_or(f64::NAN),
        stats::percentile(&reads, 95.0).unwrap_or(f64::NAN),
        stats::percentile(&writes, 50.0).unwrap_or(f64::NAN),
        (reads.len() + writes.len()) as f64 / (to.at_s - from.at_s),
        (to.cpu_s - from.cpu_s) * 1e3 / records.len() as f64,
        (to.wire_bytes - from.wire_bytes) as f64 / read_ops,
    ]
}

pub fn window_metrics(window: &Window) -> WindowMetrics {
    let marks = &window.marks;
    let round_len = window.duration_s / ROUNDS as f64;
    let round_of = |r: &OpRecord| ((r.end_s / round_len) as usize).min(ROUNDS - 1);
    let all: Vec<&OpRecord> = window.records.iter().collect();
    let pooled = slice_metrics(&all, &marks[0], &marks[ROUNDS]);
    let per_round: Vec<[f64; 6]> = (0..ROUNDS)
        .map(|k| {
            let slice: Vec<&OpRecord> = all.iter().copied().filter(|r| round_of(r) == k).collect();
            slice_metrics(&slice, &marks[k], &marks[k + 1])
        })
        .collect();
    let measured = |m: usize| Measured {
        value: pooled[m],
        rounds: per_round.iter().map(|r| r[m]).collect(),
    };
    WindowMetrics {
        query_p50_ms: measured(0),
        query_p95_ms: measured(1),
        write_p50_ms: measured(2),
        throughput_qps: measured(3),
        cpu_ms_per_query: measured(4),
        wire_bytes_per_query: measured(5),
        attempted: all.len(),
        failed: all.iter().filter(|r| !r.ok).count(),
        reads: all.iter().filter(|r| !r.write).count(),
        writes: all.iter().filter(|r| r.write).count(),
        wall_s: marks[ROUNDS].at_s - marks[0].at_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(end_s: f64, latency_ms: f64, write: bool, ok: bool) -> OpRecord {
        OpRecord {
            end_s,
            latency_ms,
            write,
            ok,
        }
    }

    #[test]
    fn window_metrics_pool_and_split_by_round() {
        // 5 rounds of 1 s; one read per 0.1 s at 2 ms, one write per round
        // at 1 ms; the last read failed
        let mut records = Vec::new();
        for i in 0..50 {
            let end_s = 0.05 + i as f64 * 0.1;
            records.push(record(end_s, 2.0, false, i != 49));
            if i % 10 == 5 {
                records.push(record(end_s + 0.01, 1.0, true, true));
            }
        }
        let marks = (0..=ROUNDS)
            .map(|k| Mark {
                at_s: k as f64,
                cpu_s: 10.0 + k as f64 * 0.11,
                wire_bytes: 1000 * k as u64,
            })
            .collect();
        let m = window_metrics(&Window {
            records,
            marks,
            duration_s: 5.0,
        });
        assert_eq!((m.attempted, m.failed, m.reads, m.writes), (55, 1, 50, 5));
        assert_eq!(m.query_p50_ms.value, 2.0);
        assert_eq!(m.query_p95_ms.value, 2.0);
        assert_eq!(m.write_p50_ms.rounds, vec![1.0; 5]);
        assert!((m.throughput_qps.value - 54.0 / 5.0).abs() < 1e-9);
        assert_eq!(m.throughput_qps.rounds, vec![11.0, 11.0, 11.0, 11.0, 10.0]);
        assert!((m.cpu_ms_per_query.value - 550.0 / 55.0).abs() < 1e-9);
        assert!((m.wire_bytes_per_query.value - 100.0).abs() < 1e-9);
        assert_eq!(m.wire_bytes_per_query.rounds, vec![100.0; 5]);
    }

    #[test]
    fn p50_in_rounds_splits_a_burst_into_equal_runs() {
        let latencies: Vec<f64> = (1..=10).map(f64::from).collect();
        let m = p50_in_rounds(&latencies);
        assert_eq!(m.value, 5.0);
        assert_eq!(m.rounds, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        assert!(p50_in_rounds(&[]).value.is_nan());
    }
}
