//! The four workloads: which federation each runs on, the pool of read
//! queries a seed generates, and each client's operation sequence.
//!
//! A seed changes query text (constants, which variant sits where) and the
//! order of operations, never the *mix*: thresholds are drawn one per
//! stratum and variants are assigned round-robin, so two seeds ask for the
//! same amount of work and the metrics of two seeds are comparable.

use crate::federations::{self, Scale, DIM_ROWS, WAVEFORMS};
use crate::stats::{Rng, Zipf};
use bigdawg_common::Result;
use bigdawg_core::{AdmissionConfig, BigDawg, CachePolicy};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FanoutWire,
    PushdownScan,
    JoinShip,
    ZipfCachedRw,
}

/// Generator threads: callers of a polystore wait for their answer, so the
/// load is a closed loop, one outstanding operation per client.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Entries of the result cache on `zipf_cached_rw`: half its read pool.
const CACHE_ENTRIES: usize = 32;
/// Distinct read queries of `zipf_cached_rw`.
const ZIPF_POOL: usize = 64;
const ZIPF_S: f64 = 1.1;
/// Operations per client before the `zipf_cached_rw` sequence wraps.
const ZIPF_SEQUENCE: usize = 1 << 16;
/// On `zipf_cached_rw` one operation in this many is a write.
const WRITE_EVERY: u64 = 50;
/// Differently ordered passes over the pool before a read-only client's
/// sequence repeats.
const PASSES: usize = 8;
/// Per-query deadline of the production shell.
const DEADLINE: Duration = Duration::from_secs(2);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FanoutWire,
        Workload::PushdownScan,
        Workload::JoinShip,
        Workload::ZipfCachedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FanoutWire => "fanout_wire",
            Workload::PushdownScan => "pushdown_scan",
            Workload::JoinShip => "join_ship",
            Workload::ZipfCachedRw => "zipf_cached_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when a client reads the pool in whole passes, every query
    /// equally often, so that wire bytes per read repeat exactly.
    pub fn whole_passes(self) -> bool {
        self != Workload::ZipfCachedRw
    }

    /// Build the federation and switch on whatever shell the workload
    /// runs under.
    pub fn federation(self, scale: &Scale) -> Result<BigDawg> {
        match self {
            Workload::FanoutWire => federations::fanout(scale),
            Workload::PushdownScan => federations::pushdown(scale),
            Workload::JoinShip => federations::join_ship(scale),
            Workload::ZipfCachedRw => {
                let bd = federations::hot_objects(scale)?;
                bd.set_result_cache(Some(CachePolicy {
                    max_entries: CACHE_ENTRIES,
                    ..CachePolicy::default()
                }));
                bd.set_admission(Some(
                    AdmissionConfig::default()
                        .with_max_concurrent(clients())
                        .with_max_queue(16),
                ));
                bd.set_deadline(Some(DEADLINE));
                Ok(bd)
            }
        }
    }

    /// The pool of distinct read queries for `seed`.
    pub fn reads(self, seed: u64) -> Vec<Read> {
        let mut rng = Rng::new(seed ^ 0x706f_6f6c);
        match self {
            Workload::FanoutWire => fanout_reads(&mut rng),
            Workload::PushdownScan => pushdown_reads(&mut rng),
            Workload::JoinShip => join_reads(&mut rng),
            Workload::ZipfCachedRw => zipf_reads(&mut rng),
        }
    }

    /// One operation sequence per client.
    pub fn sequences(self, seed: u64, pool: usize) -> Vec<Vec<Op>> {
        (0..clients())
            .map(|client| self.sequence(seed, client, pool))
            .collect()
    }

    /// Client `client`'s operation sequence, run round and round. Only
    /// `zipf_cached_rw` mixes writes in; the other three are read-only and
    /// walk the pool in whole passes, each pass in a fresh order (a pass
    /// starts at every index divisible by `pool`).
    pub fn sequence(self, seed: u64, client: usize, pool: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0x5eed_c11e));
        if self == Workload::ZipfCachedRw {
            let zipf = Zipf::new(pool, ZIPF_S);
            return (0..ZIPF_SEQUENCE)
                .map(|_| {
                    if rng.below(WRITE_EVERY) == 0 {
                        Op::Write(rng.below(DIM_ROWS as u64) as i64)
                    } else {
                        Op::Read(zipf.sample(&mut rng))
                    }
                })
                .collect();
        }
        let mut order: Vec<usize> = (0..pool).collect();
        let mut ops = Vec::with_capacity(PASSES * pool);
        for _ in 0..PASSES {
            rng.shuffle(&mut order);
            ops.extend(order.iter().map(|i| Op::Read(*i)));
        }
        ops
    }
}

/// One read query of a pool.
#[derive(Debug, Clone)]
pub struct Read {
    pub text: String,
    /// The query's first column is `SUM(dim.w)` over the whole `dim`
    /// table: it grows by one with every committed write, so it is checked
    /// against the write counters instead of a fixed reference.
    pub dim_sum: bool,
}

impl Read {
    fn fixed(text: String) -> Read {
        Read {
            text,
            dim_sum: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into the read pool.
    Read(usize),
    /// `dim.k` of the row to bump.
    Write(i64),
}

/// The write operation: one row of `dim` gains one, so the table's size
/// stays put while its placement epoch moves.
pub fn write_text(k: i64) -> String {
    format!("RELATIONAL(UPDATE dim SET w = w + 1 WHERE k = {k})")
}

/// `RELATIONAL(SELECT SUM(w) FROM dim)`: what the writes add up to.
pub const DIM_TOTAL: &str = "RELATIONAL(SELECT SUM(w) AS sw FROM dim)";

/// One value per stratum of `lo..hi` split into `n` equal strata, so the
/// mean over the pool barely depends on the seed.
fn stratified(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    (0..n)
        .map(|k| lo + width * (k as f64 + rng.unit()))
        .collect()
}

/// The E11 family: four pushed-down one-row sub-queries on four engines,
/// gathered by a relational join. Eight variants: every waveform twice,
/// aggregates and the Tupleware threshold seeded.
fn fanout_reads(rng: &mut Rng) -> Vec<Read> {
    let ages = stratified(rng, 8, 20.0, 80.0);
    (0..8usize)
        .map(|j| {
            let agg = ["avg", "sum", "min", "max"][rng.below(4) as usize];
            let wave = j as u64 % WAVEFORMS;
            let (reducer, col) = [("sum", 1), ("count", 0), ("max", 1)][rng.below(3) as usize];
            let age = ages[j].floor();
            Read::fixed(format!(
                "RELATIONAL(SELECT w.{agg}_v AS wave, t.sum AS tile_sum, u.result AS stay, n.docs AS note_docs \
                 FROM CAST(SCIDB(aggregate(waveform_{wave}, {agg}, v)), relation) w \
                 JOIN CAST(TILEDB(sum(waveform_tiles)), relation) t ON 1 = 1 \
                 JOIN CAST(TUPLEWARE(run compiled {reducer}(c{col}) from age_stay where c0 >= {age}), relation) u ON 1 = 1 \
                 JOIN CAST(ACCUMULO(count()), relation) n ON 1 = 1)"
            ))
        })
        .collect()
}

/// The E18 family: filter + project over the wide remote table. Sixteen
/// thresholds, one per stratum of 2–20 % selectivity; the two projection
/// lists alternate.
fn pushdown_reads(rng: &mut Rng) -> Vec<Read> {
    stratified(rng, 16, 2.0, 20.0)
        .into_iter()
        .enumerate()
        .map(|(k, percent)| {
            let threshold = 1000 - (percent * 10.0).round() as i64;
            let columns = if k % 2 == 0 { "id, v" } else { "id, v, b" };
            Read::fixed(format!(
                "RELATIONAL(SELECT {columns} FROM CAST(readings, pg_local) \
                 WHERE v >= {threshold} ORDER BY id)"
            ))
        })
        .collect()
}

/// A big remote fact table joined to a small co-resident dimension. The
/// predicate is on the dimension only and every column of `readings` is
/// referenced, so neither pushdown nor pruning can shrink the big side.
/// Eight variants: every zone once, the dimension column seeded.
fn join_reads(rng: &mut Rng) -> Vec<Read> {
    let mut zones: Vec<i64> = (0..8).collect();
    rng.shuffle(&mut zones);
    zones
        .into_iter()
        .map(|zone| {
            let extra = ["s.gain", "s.label"][rng.below(2) as usize];
            Read::fixed(format!(
                "RELATIONAL(SELECT r.id, r.v, r.note, {extra} \
                 FROM CAST(readings, pg_local) r \
                 JOIN CAST(sensors, pg_local) s ON r.sensor = s.sid \
                 WHERE s.zone = {zone} ORDER BY r.id)"
            ))
        })
        .collect()
}

/// Small aggregates over the four hot remote objects; every fourth rank
/// joins the local `dim` table, so a write to `dim` invalidates a quarter
/// of the pool. Rank = popularity: rank 0 is drawn most.
fn zipf_reads(rng: &mut Rng) -> Vec<Read> {
    const OBJECTS: [(&str, &str); 4] = [
        ("wave_a", "v"),
        ("wave_b", "v"),
        ("tiles", "v"),
        ("dense", "c1"),
    ];
    let mut reads = Vec::with_capacity(ZIPF_POOL);
    for rank in 0..ZIPF_POOL {
        // distinct text per rank: (object, threshold) pairs never repeat
        let variant = rank / 4;
        if rank % 4 == 3 {
            let object = ["wave_a", "wave_b"][variant % 2];
            let bound = DIM_ROWS + 1 + (variant as i64) * 3 + rng.below(3) as i64;
            reads.push(Read {
                text: format!(
                    "RELATIONAL(SELECT SUM(d.w) AS sw, SUM(x.v) AS sv, COUNT(*) AS n \
                     FROM dim d JOIN CAST({object}, relation) x ON d.k = x.i WHERE x.i < {bound})"
                ),
                dim_sum: true,
            });
        } else {
            let (object, column) = OBJECTS[(rank + variant) % 4];
            // values run 0..13; sixteen thresholds, one per variant
            let threshold = variant as f64 * 0.75;
            let agg = ["SUM", "MAX", "MIN"][rng.below(3) as usize];
            reads.push(Read::fixed(format!(
                "RELATIONAL(SELECT COUNT(*) AS n, {agg}({column}) AS s \
                 FROM CAST({object}, relation) WHERE {column} >= {threshold:.2})"
            )));
        }
    }
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn pools_are_seeded_distinct_and_sized() {
        for (w, size) in [
            (Workload::FanoutWire, 8),
            (Workload::PushdownScan, 16),
            (Workload::JoinShip, 8),
            (Workload::ZipfCachedRw, 64),
        ] {
            let texts =
                |seed| -> Vec<String> { w.reads(seed).into_iter().map(|r| r.text).collect() };
            assert_eq!(texts(1), texts(1), "{}: same seed, same pool", w.name());
            assert_ne!(
                texts(1),
                texts(2),
                "{}: the seed reaches the text",
                w.name()
            );
            let distinct: BTreeSet<String> = texts(1).into_iter().collect();
            assert_eq!(distinct.len(), size, "{}", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let dim_reads = Workload::ZipfCachedRw
            .reads(3)
            .iter()
            .filter(|r| r.dim_sum)
            .count();
        assert_eq!(dim_reads, 16);
    }

    #[test]
    fn sequences_are_seeded_per_client_and_only_zipf_writes() {
        for w in Workload::ALL {
            let pool = w.reads(5).len();
            let a = w.sequence(5, 0, pool);
            assert_eq!(a, w.sequence(5, 0, pool));
            assert_ne!(a, w.sequence(5, 1, pool), "{}: clients differ", w.name());
            assert_ne!(a, w.sequence(6, 0, pool), "{}: seeds differ", w.name());
            let writes = a.iter().filter(|op| matches!(op, Op::Write(_))).count();
            let share = writes as f64 / a.len() as f64;
            if w.whole_passes() {
                assert_eq!(writes, 0, "{} is read-only", w.name());
                // every pool query appears equally often, pass by pass
                let mut counts = vec![0usize; pool];
                for op in &a {
                    if let Op::Read(i) = op {
                        counts[*i] += 1;
                    }
                }
                assert!(counts.iter().all(|c| *c == counts[0] && *c > 0));
            } else {
                assert!((0.015..0.025).contains(&share), "write share {share}");
            }
        }
    }

    #[test]
    fn stratified_thresholds_cover_the_range_with_a_steady_mean() {
        let mean = |seed| {
            let v = stratified(&mut Rng::new(seed), 16, 2.0, 20.0);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            assert!(v[0] >= 2.0 && v[15] < 20.0);
            v.iter().sum::<f64>() / 16.0
        };
        assert!((mean(1) - mean(2)).abs() < 0.4);
    }
}
