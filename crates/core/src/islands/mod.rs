//! Islands of information (§2.1).
//!
//! Each island pairs a query language and data model with shims to its
//! member engines. The reference implementation exposes:
//!
//! * [`relational`] — SQL with location transparency (auto-CAST of remote
//!   tables toward the relational engine);
//! * [`array`](mod@array) — the AFL dialect with the same transparency toward the
//!   array engine;
//! * [`text`] — keyword/boolean/phrase search over the KV engine;
//! * [`d4m`] and [`myria`] — the two multi-system islands of §2.1.1;
//! * **degenerate islands** — one per engine, named after it, passing the
//!   engine's full native language through untouched (§2.1: "these islands
//!   have the full functionality of a single storage engine").

pub mod array;
pub mod d4m;
pub mod myria;
pub mod relational;
pub mod text;

use crate::cast::Transport;
use crate::catalog::ObjectEntry;
use crate::monitor::QueryClass;
use crate::polystore::{BigDawg, EngineOp};
use crate::retry;
use crate::shim::{EngineKind, Shim};
use bigdawg_common::{Batch, BigDawgError, Result};
use std::time::Instant;

/// One attempt of an island that gathers on a single engine (relational,
/// array): the engine the monitor chose, the temporaries cast toward it,
/// and whether a `not_found` may be a placement race. Dropping it drops
/// the temporaries, so no exit — early error, retry, panic — leaks one.
pub(crate) struct Gather<'a> {
    bd: &'a BigDawg,
    class: QueryClass,
    engine: String,
    temps: Vec<String>,
    /// Some object resolved to a co-located copy read in place, or a write
    /// was routed through the catalog — the cases where a later
    /// `not_found` can be a placement race rather than an unknown name.
    placement_dependent: bool,
    placement_raced: bool,
}

impl Drop for Gather<'_> {
    fn drop(&mut self) {
        for tmp in &self.temps {
            let _ = self.bd.drop_object(tmp);
        }
    }
}

impl Gather<'_> {
    /// Gather on `engine` instead of the monitor's pick — a write goes to
    /// its table's primary, wherever the catalog says that is.
    pub(crate) fn route_to(&mut self, engine: String) {
        self.engine = engine;
        self.placement_dependent = true;
    }

    /// Make `object` (cataloged as `entry`) readable on the gather engine.
    /// A co-located copy (primary *or* migrator-placed replica) is read in
    /// place — `None`; a genuinely remote one ships under a temporary
    /// name — `Some(temp)` — zero-copy when no wire is crossed (the cast
    /// degrades it to the columnar codec otherwise). A `not_found` cast of
    /// a *resolved* object is a placement race.
    pub(crate) fn localize(&mut self, object: &str, entry: &ObjectEntry) -> Result<Option<String>> {
        if entry.located_on(&self.engine) {
            self.placement_dependent = true;
            return Ok(None);
        }
        let tmp = self.bd.temp_name();
        self.bd
            .cast_object(object, &self.engine, &tmp, Transport::ZeroCopy)
            .inspect_err(|e| self.placement_raced |= matches!(e, BigDawgError::NotFound(_)))?;
        self.temps.push(tmp.clone());
        Ok(Some(tmp))
    }

    /// Run the gather under the engine's lock — on the downcast engine
    /// itself, so no wire is crossed. A `not_found` after a
    /// placement-dependent resolve (a co-located read raced an
    /// invalidation, a routed write raced a move) marks the attempt raced.
    /// Only a success feeds the cost model, recorded against `object`: a
    /// fast `not_found` would otherwise make a flaky engine look cheap.
    pub(crate) fn run(
        &mut self,
        object: Option<&str>,
        call: impl FnOnce(&str, &mut dyn Shim) -> Result<Batch>,
    ) -> Result<Batch> {
        let started = Instant::now();
        let result = self
            .bd
            .engine_call(&self.engine, EngineOp::IslandGather, |shim| {
                call(&self.engine, shim)
            });
        match (&result, object) {
            (Ok(_), Some(object)) => {
                self.bd
                    .monitor()
                    .lock()
                    .record(object, self.class, &self.engine, started.elapsed())
            }
            (Err(BigDawgError::NotFound(_)), _) => self.placement_raced |= self.placement_dependent,
            _ => {}
        }
        result
    }
}

/// Run a gather-on-one-engine island query: each attempt gets a fresh
/// [`Gather`] on the engine the monitor picks for `(kind, class)`, under
/// the federation's two retry regimes:
///
/// * **Placement races** — a co-located copy invalidated (or an object
///   moved) between resolve and read — retry up to three attempts with
///   placements re-resolved and no backoff. Attempts that never depended
///   on a placement fail immediately, so genuinely unknown names pay no
///   retries. Failed attempts mutate nothing (a write that cannot resolve
///   its table executes nothing), so retrying is safe.
/// * **Transient failures** (injected faults, engine errors mid-cast)
///   additionally retry under the installed [`crate::RetryPolicy`] with
///   its deterministic backoff — each fresh attempt re-chooses the
///   island's engine, so a circuit breaker opened by the failed attempt
///   re-routes the retry to a healthy peer. With the default fail-fast
///   policy this regime never engages.
pub(crate) fn gather(
    bd: &BigDawg,
    kind: EngineKind,
    class: QueryClass,
    mut attempt: impl FnMut(&mut Gather<'_>) -> Result<Batch>,
) -> Result<Batch> {
    let policy = bd.retry_policy();
    let mut races_left: u32 = 3;
    let mut transients_left: u32 = policy.retries;
    let mut attempt_no: u32 = 0;
    loop {
        let mut gather = Gather {
            bd,
            class,
            engine: bd.choose_engine_of_kind(kind, class)?,
            temps: Vec::new(),
            placement_dependent: false,
            placement_raced: false,
        };
        let result = attempt(&mut gather);
        let placement_raced = gather.placement_raced;
        drop(gather);
        match result {
            Err(e) if placement_raced => {
                races_left -= 1;
                if races_left == 0 {
                    return Err(e);
                }
            }
            Err(e) if transients_left > 0 && retry::is_transient(&e) => {
                transients_left -= 1;
                let pause = policy.backoff(attempt_no, 0x15_1a_4d);
                bd.retry_observer("island").retrying(attempt_no, pause, &e);
                if !pause.is_zero() {
                    // deadline-clamped: a cancelled query stops retrying
                    // here instead of riding out its backoff
                    bigdawg_common::deadline::sleep_cancellable(pause)?;
                }
            }
            other => return other,
        }
        attempt_no += 1;
    }
}

/// Route a query body to an island by SCOPE name (case-insensitive).
/// Unknown names fall back to a degenerate island when an engine with that
/// name exists.
pub fn dispatch(bd: &BigDawg, island: &str, body: &str) -> Result<Batch> {
    match island.to_ascii_uppercase().as_str() {
        "RELATIONAL" => relational::execute(bd, body),
        "ARRAY" => array::execute(bd, body),
        "TEXT" => text::execute(bd, body),
        "D4M" => d4m::execute(bd, body),
        "MYRIA" => myria::execute(bd, body),
        _ => {
            // degenerate island: engine name, case preserved then lowered
            let engine = island.to_ascii_lowercase();
            if bd.engine_names().iter().any(|e| *e == engine) {
                // a degenerate island has exactly one engine, so there is
                // no failover — but transient failures still retry under
                // the policy and feed the engine's circuit breaker
                retry::with_retry_observed(
                    &bd.retry_policy(),
                    retry::stable_hash(&engine),
                    Some(&bd.retry_observer("island")),
                    |_| {
                        bd.engine_call(&engine, EngineOp::Native, |shim| {
                            let out = shim.execute_native(body);
                            // native DDL may have created objects — on this
                            // engine only, and its lock is already held
                            bd.refresh_engine(shim);
                            out
                        })
                    },
                )
            } else {
                Err(BigDawgError::NotFound(format!(
                    "island or engine `{island}`"
                )))
            }
        }
    }
}

/// All island names this federation currently exposes (Figure 1): the five
/// language islands plus one degenerate island per engine.
pub fn island_names(bd: &BigDawg) -> Vec<String> {
    let mut names: Vec<String> = ["relational", "array", "text", "d4m", "myria"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for e in bd.engine_names() {
        names.push(format!("degenerate:{e}"));
    }
    names
}
