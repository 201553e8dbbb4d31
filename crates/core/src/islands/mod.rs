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

use crate::polystore::BigDawg;
use crate::retry;
use bigdawg_common::{Batch, BigDawgError, Result};

/// Run one island attempt under the federation's two retry regimes:
///
/// * **Placement races** — a co-located copy invalidated (or an object
///   moved) between resolve and read — retry up to three attempts with
///   placements re-resolved and no backoff, exactly as before the
///   fault-tolerance layer. The attempt closure receives a flag it sets
///   when its failure may be placement-raced; attempts that never
///   depended on a placement fail immediately, so genuinely unknown
///   names pay no retries.
/// * **Transient failures** (injected faults, engine errors mid-cast)
///   additionally retry under the installed [`crate::RetryPolicy`] with
///   its deterministic backoff — each fresh attempt re-chooses the
///   island's engine, so a circuit breaker opened by the failed attempt
///   re-routes the retry to a healthy peer. With the default fail-fast
///   policy this regime never engages.
///
/// Shared by the relational and array islands so the retry bounds and
/// race classification cannot diverge.
pub(crate) fn retry_island_attempts(
    bd: &BigDawg,
    mut attempt: impl FnMut(&mut bool) -> Result<Batch>,
) -> Result<Batch> {
    let policy = bd.retry_policy();
    let mut races_left: u32 = 3;
    let mut transients_left: u32 = policy.retries;
    let mut attempt_no: u32 = 0;
    loop {
        let mut placement_raced = false;
        match attempt(&mut placement_raced) {
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
                let out = retry::with_retry_observed(
                    &bd.retry_policy(),
                    retry::stable_hash(&engine),
                    Some(&bd.retry_observer("island")),
                    |_| {
                        bd.engine_call(&engine, "native", "engine.native", |shim| {
                            shim.execute_native(body)
                        })
                    },
                );
                bd.refresh_catalog(); // native DDL may have created objects
                out
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
