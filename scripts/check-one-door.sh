#!/bin/sh
# One door to an engine, and what happens behind it. Fails (listing the
# lines) when non-test code — code before a file's #[cfg(test)] — breaks
# one of three rules:
#
# 1. Outside polystore.rs, code under crates/core/src reaches an engine
#    through BigDawg::engine_call or BigDawg::read_object, never through
#    the raw BigDawg::engine() handle — that skips the span, the op
#    counters, breaker feedback and failover.
# 2. Islands, the executor and the planner never call the full
#    refresh_catalog(): it takes every engine's mutex in turn. A statement
#    rescans the engine it ran on (refresh_engine), under the lock it holds.
# 3. engine_call pays the request hop before it takes the engine's mutex:
#    the wire is a client's wait, not the engine's work.
cd "$(dirname "$0")/.." || exit 2
status=0

# prints FILE:LINE: TEXT for every non-test, non-comment line of the
# files on stdin that matches the pattern in $1
scan() {
    while read -r f; do
        awk -v pat="$1" '/^#\[cfg\(test\)\]/ { exit }
             !/^[[:space:]]*\/\// && $0 ~ pat { print FILENAME ":" FNR ": " $0 }' "$f"
    done
}

hits=$(find crates/core/src -name '*.rs' ! -name polystore.rs | sort | scan '\\.engine\\(')
if [ -n "$hits" ]; then
    echo "raw engine handle used outside polystore.rs (use engine_call / read_object):"
    echo "$hits"
    status=1
fi

hits=$(find crates/core/src/islands crates/core/src/plan crates/core/src/exec.rs -name '*.rs' |
    sort | scan 'refresh_catalog\\(')
if [ -n "$hits" ]; then
    echo "full catalog rescan on the query path (use refresh_engine under the engine's lock):"
    echo "$hits"
    status=1
fi

# within engine_call's body: the first crosses_wire must come before the
# first .lock()
order=$(awk '/fn engine_call</ { inside = 1 }
     inside && /crosses_wire\(\)/ && !pay { pay = FNR }
     inside && /\.lock\(\)/ && !lock { lock = FNR }
     inside && /^    }$/ { exit }
     END { if (!pay) print "engine_call never asks crosses_wire()";
           else if (lock && lock < pay) print "line " lock " locks before line " pay " pays the hop" }' \
    crates/core/src/polystore.rs)
if [ -n "$order" ]; then
    echo "polystore.rs::engine_call must pay the wire before taking the engine lock: $order"
    status=1
fi
exit $status
