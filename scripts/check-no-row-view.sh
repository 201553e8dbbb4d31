#!/bin/sh
# No row view on the data plane: non-test code in the planner, the executor,
# the CAST codecs and the result cache works on Batch columns, never on
# Batch::rows() / into_rows() / into_parts() — on a shared columnar snapshot
# those materialise (and clone) every cell of every column per query.
# Fails (listing the lines) when a call appears before a file's #[cfg(test)].
cd "$(dirname "$0")/.." || exit 2
hits=$(ls crates/core/src/cast.rs crates/core/src/exec.rs crates/core/src/cache.rs \
          crates/core/src/plan/*.rs | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         !/^[[:space:]]*\/\// && /\.rows\(\)|into_rows\(\)|into_parts\(\)/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "row view materialised on the data plane (use Batch::columns / Expr::select / Batch::filter):"
    echo "$hits"
    exit 1
fi
