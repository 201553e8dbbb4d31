//! The migrator: monitor statistics → physical data placement.
//!
//! The demo paper names four core components — islands, shims, the
//! monitor, and the **migrator** — and its companions describe the last as
//! the piece that "moves data … between storage engines" as the monitor
//! learns where a workload wants its objects. This module is that piece:
//! it consumes the monitor's per-object demand counters (every CAST of a
//! named object toward an engine is one *ship*, recorded by
//! [`crate::monitor::Monitor::record_ship`]) and turns the hot set into
//! catalog-versioned placements.
//!
//! ```text
//!   query: RELATIONAL( … CAST(wave, relation) … )       wave: scidb, epoch 4
//!       │                                                │
//!       │ ships wave → postgres (5 ms wire)              │
//!       ▼                                                ▼
//!   monitor.record_ship("wave", "postgres")   ┌──────────────────────┐
//!       │   ships ≥ policy.min_ships          │ catalog              │
//!       ▼                                     │  wave ├ scidb (prim) │
//!   Migrator::plan ──► replicate/move ───────►│       └ postgres ★   │
//!   (hot set → decisions)   via CAST          │  epoch 4 → 5         │
//!                                             └──────────────────────┘
//!       ▼
//!   next query: plan resolves wave → postgres ★ (co-located)
//!               CAST leaf elided — no wire round-trip at all
//! ```
//!
//! **Epoch / invalidation protocol.** Every placement-relevant change —
//! relocation, replica addition, write invalidation — advances the
//! object's placement epoch in the catalog (monotonically; it never goes
//! backwards). Copies are committed copy-then-commit: the data fully lands
//! on the target engine first, and the catalog is updated only if the
//! epoch observed before the copy is still current (otherwise a concurrent
//! write happened mid-copy and the now-possibly-stale copy is discarded).
//! A migration that fails mid-copy therefore leaves the catalog pointing
//! at the intact source — there is no torn placement to repair. Writes
//! ([`crate::polystore::BigDawg::note_write`]) invalidate replicas catalog
//! -first, then drop the stale engine copies, then reset the object's
//! demand counters so re-placement waits for fresh demand.
//!
//! The default policy **replicates** rather than moves: the primary stays
//! where it is, reads converge onto co-located copies, and a concurrent
//! query can never find the source copy gone. Moves (`replicate: false`)
//! free the source engine's storage but are only chosen when the source
//! copy has stopped serving reads.

use crate::polystore::BigDawg;

/// Tuning knobs for automatic placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPolicy {
    /// Demand threshold: an object must be shipped toward the same engine
    /// at least this many times before it is placed there.
    pub min_ships: u64,
    /// `true` (default): place a replica and keep the primary. `false`:
    /// move the primary and drop the source copy.
    pub replicate: bool,
    /// Upper bound on placements applied per cycle, so one migrator pass
    /// never stalls the query path behind a long copy storm.
    pub max_per_cycle: usize,
}

impl Default for MigrationPolicy {
    /// Replicate after 3 demand ships, at most 4 placements per cycle.
    fn default() -> Self {
        MigrationPolicy {
            min_ships: 3,
            replicate: true,
            max_per_cycle: 4,
        }
    }
}

impl MigrationPolicy {
    /// The default policy with a custom demand threshold.
    pub fn with_min_ships(min_ships: u64) -> Self {
        MigrationPolicy {
            min_ships,
            ..Self::default()
        }
    }
}

/// One planned placement: move or replicate `object` toward the engine its
/// demand keeps shipping it to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationDecision {
    /// The hot object.
    pub object: String,
    /// Its current primary engine.
    pub from: String,
    /// The engine demand wants it on.
    pub to: String,
    /// Demand ships recorded toward `to`.
    pub ships: u64,
    /// `true`: place a replica; `false`: move the primary.
    pub replicate: bool,
}

/// One applied placement, with the CAST measurement and the catalog epoch
/// it committed at.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// The decision that was applied.
    pub decision: MigrationDecision,
    /// Rows copied (0 for a promotion of an existing replica).
    pub rows: usize,
    /// The object's placement epoch after the commit.
    pub epoch: u64,
}

/// The migrator: plans placements from the monitor's hot set and applies
/// them through the CAST machinery, so typed-island semantics (schema
/// conventions, narrowing) are exactly those of a hand-written CAST.
#[derive(Debug, Clone, Default)]
pub struct Migrator {
    policy: MigrationPolicy,
}

impl Migrator {
    /// A migrator with the given policy.
    pub fn new(policy: MigrationPolicy) -> Self {
        Migrator { policy }
    }

    /// The policy this migrator applies.
    pub fn policy(&self) -> &MigrationPolicy {
        &self.policy
    }

    /// Plan placements: every hot-set member (demand ≥ `min_ships`) whose
    /// object is still cataloged, not pinned to its engine, and not already
    /// co-located with the demand target. Hottest first, truncated to
    /// `max_per_cycle`. Nothing is executed or locked beyond catalog reads.
    pub fn plan(&self, bd: &BigDawg) -> Vec<MigrationDecision> {
        let hot = bd.monitor().lock().hot_candidates(self.policy.min_ships);
        let mut out = Vec::new();
        for cand in hot {
            if out.len() >= self.policy.max_per_cycle {
                break;
            }
            let Ok(entry) = bd.placement(&cand.object) else {
                continue; // dropped since the ships were recorded
            };
            if entry.kind.is_pinned() || entry.located_on(&cand.target) {
                continue;
            }
            if bd.kind_of(&cand.target).is_err() {
                continue;
            }
            out.push(MigrationDecision {
                object: cand.object,
                from: entry.engine,
                to: cand.target,
                ships: cand.ships,
                replicate: self.policy.replicate,
            });
        }
        out
    }

    /// Plan and apply one cycle. Placements run over the monitor's
    /// preferred transport; a placement that fails (engine fault, placement
    /// raced a write) is skipped — by the copy-then-commit protocol the
    /// catalog is left pointing at the intact source, and the next cycle
    /// retries if demand persists. Returns the placements that committed.
    pub fn run_cycle(&self, bd: &BigDawg) -> Vec<MigrationOutcome> {
        let decisions = self.plan(bd);
        if decisions.is_empty() {
            // idle cycles are free: no span, no counter — only cycles with
            // planned work show up in traces and metrics
            return Vec::new();
        }
        let _cycle_span = bd
            .tracer()
            .span("migrate.cycle", format_args!("{} planned", decisions.len()));
        bd.metrics().counter("bigdawg_migration_cycles_total").inc();
        let mut applied = Vec::new();
        for decision in decisions {
            let _placement_span = bd.tracer().span(
                "migrate.placement",
                format_args!(
                    "{} {}: {} -> {}",
                    if decision.replicate {
                        "replicate"
                    } else {
                        "move"
                    },
                    decision.object,
                    decision.from,
                    decision.to
                ),
            );
            let result = if decision.replicate {
                bd.replicate(&decision.object, &decision.to)
            } else {
                bd.migrate(&decision.object, &decision.to)
            };
            let Ok(report) = result else { continue };
            let Ok(epoch) = bd.placement_epoch(&decision.object) else {
                continue;
            };
            applied.push(MigrationOutcome {
                rows: report.rows,
                epoch,
                decision,
            });
        }
        applied
    }
}

/// Convenience: one cycle under the default policy.
pub fn auto_place(bd: &BigDawg) -> Vec<MigrationOutcome> {
    Migrator::default().run_cycle(bd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cast::Transport;
    use crate::shims::{ArrayShim, RelationalShim};
    use bigdawg_array::Array;
    use bigdawg_common::Value;

    fn federation() -> BigDawg {
        let mut bd = BigDawg::new();
        let mut pg = RelationalShim::new("postgres");
        pg.db_mut()
            .execute("CREATE TABLE patients (id INT, age INT)")
            .unwrap();
        pg.db_mut()
            .execute("INSERT INTO patients VALUES (1, 70), (2, 50), (3, 81)")
            .unwrap();
        bd.add_engine(Box::new(pg));
        let mut scidb = ArrayShim::new("scidb");
        scidb.store(
            "wave",
            Array::from_vector("wave", "v", &[3.0, 6.0, 9.0, 12.0], 2),
        );
        bd.add_engine(Box::new(scidb));
        bd
    }

    const HOT_QUERY: &str =
        "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(wave, relation) WHERE v > 5)";

    #[test]
    fn demand_ships_accumulate_into_a_plan() {
        let bd = federation();
        let migrator = Migrator::new(MigrationPolicy::with_min_ships(3));
        for _ in 0..2 {
            bd.execute(HOT_QUERY).unwrap();
        }
        assert!(migrator.plan(&bd).is_empty(), "below the demand threshold");
        bd.execute(HOT_QUERY).unwrap();
        let plan = migrator.plan(&bd);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].object, "wave");
        assert_eq!(plan[0].from, "scidb");
        assert_eq!(plan[0].to, "postgres");
        assert_eq!(plan[0].ships, 3);
        assert!(plan[0].replicate);
    }

    #[test]
    fn cycle_replicates_and_queries_stop_shipping() {
        let bd = federation();
        let migrator = Migrator::new(MigrationPolicy::with_min_ships(2));
        for _ in 0..2 {
            bd.execute(HOT_QUERY).unwrap();
        }
        let applied = migrator.run_cycle(&bd);
        assert_eq!(applied.len(), 1);
        assert!(applied[0].rows > 0);
        assert!(bd.located_on("wave", "postgres"));
        assert_eq!(bd.locate("wave").unwrap(), "scidb", "primary unchanged");

        // the placement now satisfies demand locally: further queries agree
        // with the pre-migration answer and record no new ships
        let ships_before = bd.monitor().lock().ship_stats("wave").unwrap().total;
        let b = bd.execute(HOT_QUERY).unwrap();
        assert_eq!(b.rows()[0][0], Value::Int(3));
        let ships_after = bd.monitor().lock().ship_stats("wave").unwrap().total;
        assert_eq!(ships_before, ships_after, "co-located copy: no more ships");

        // and the planner has nothing left to do
        assert!(migrator.plan(&bd).is_empty());
    }

    #[test]
    fn auto_migrate_knob_converges_without_manual_cycles() {
        let bd = federation();
        bd.set_auto_migrate(Some(MigrationPolicy::with_min_ships(3)));
        assert_eq!(
            bd.auto_migrate_policy().unwrap().min_ships,
            3,
            "knob readable"
        );
        for _ in 0..4 {
            bd.execute(HOT_QUERY).unwrap();
        }
        assert!(
            bd.located_on("wave", "postgres"),
            "auto cycle placed the hot object"
        );
        bd.set_auto_migrate(None);
        assert!(bd.auto_migrate_policy().is_none());
    }

    #[test]
    fn move_policy_relocates_the_primary() {
        let bd = federation();
        {
            let mut m = bd.monitor().lock();
            for _ in 0..3 {
                m.record_ship("wave", "postgres");
            }
        }
        let migrator = Migrator::new(MigrationPolicy {
            replicate: false,
            ..MigrationPolicy::with_min_ships(3)
        });
        let applied = migrator.run_cycle(&bd);
        assert_eq!(applied.len(), 1);
        assert!(!applied[0].decision.replicate);
        assert_eq!(bd.locate("wave").unwrap(), "postgres");
        assert!(
            bd.engine("scidb")
                .unwrap()
                .lock()
                .get_table("wave")
                .is_err(),
            "moved, not copied"
        );
    }

    #[test]
    fn write_invalidates_replica_and_resets_demand() {
        let bd = federation();
        for _ in 0..3 {
            bd.execute("ARRAY(aggregate(patients, avg, age))").unwrap();
        }
        let applied = Migrator::default().run_cycle(&bd);
        assert_eq!(applied.len(), 1);
        assert!(bd.located_on("patients", "scidb"));
        let epoch = bd.placement_epoch("patients").unwrap();

        // a write through the relational island invalidates the replica
        bd.execute("RELATIONAL(INSERT INTO patients VALUES (4, 44))")
            .unwrap();
        assert!(!bd.located_on("patients", "scidb"), "replica invalidated");
        assert!(bd.placement_epoch("patients").unwrap() > epoch);
        assert!(
            bd.monitor().lock().ship_stats("patients").is_none(),
            "demand reset on write"
        );
        // the array island serves the post-write data (fresh cast, 4 rows)
        let b = bd
            .execute("ARRAY(aggregate(patients, count, age))")
            .unwrap();
        assert_eq!(b.rows()[0][0], Value::Float(4.0));
    }

    #[test]
    fn pinned_and_colocated_objects_never_planned() {
        let bd = federation();
        {
            let mut m = bd.monitor().lock();
            for _ in 0..5 {
                m.record_ship("wave", "scidb"); // already home
                m.record_ship("ghost", "postgres"); // not cataloged
            }
        }
        assert!(Migrator::default().plan(&bd).is_empty());
    }

    #[test]
    fn epoch_guard_discards_copy_when_a_write_interleaves() {
        let bd = federation();
        // simulate the interleaving: capture the placement, then bump the
        // epoch (as a write would) before the replicate commits
        let epoch = bd.placement_epoch("patients").unwrap();
        bd.catalog().write().invalidate("patients");
        assert!(bd.placement_epoch("patients").unwrap() > epoch);
        // replicate sees a consistent snapshot and succeeds…
        bd.replicate_object("patients", "scidb", Transport::Binary)
            .unwrap();
        // …but racing inside the copy window is exercised end-to-end by
        // tests/migration_concurrency.rs; here we check the visible
        // invariant: every commit lands at a strictly larger epoch.
        assert!(bd.placement_epoch("patients").unwrap() > epoch + 1);
    }
}
