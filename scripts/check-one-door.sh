#!/bin/sh
# One door to an engine: outside polystore.rs, non-test code under
# crates/core/src reaches an engine through BigDawg::engine_call or
# BigDawg::read_object, never through the raw BigDawg::engine() handle —
# that skips the span, the op counters, breaker feedback and failover.
# Fails (listing the lines) when a call appears before a file's #[cfg(test)].
cd "$(dirname "$0")/.." || exit 2
hits=$(find crates/core/src -name '*.rs' ! -name polystore.rs | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         !/^[[:space:]]*\/\// && /\.engine\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "raw engine handle used outside polystore.rs (use engine_call / read_object):"
    echo "$hits"
    exit 1
fi
