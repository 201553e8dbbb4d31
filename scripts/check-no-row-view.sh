#!/bin/sh
# No row view on the data plane: non-test code in the planner, the executor,
# the CAST codecs, the result cache, and the relational engine's executor,
# table, database and shim works on Batch columns, never on Batch::rows() /
# into_rows() / into_parts() — on a shared columnar snapshot those
# materialise (and clone) every cell of every column per query.
# Fails (listing the lines) when a call appears before a file's #[cfg(test)].
# A line that has to read rows says why in a `// row-view-ok: <reason>`
# comment and passes; the number of such lines is printed.
cd "$(dirname "$0")/.." || exit 2
calls=$(ls crates/core/src/cast.rs crates/core/src/exec.rs crates/core/src/cache.rs \
           crates/core/src/plan/*.rs crates/core/src/shims/relational.rs \
           crates/relational/src/exec.rs crates/relational/src/table.rs \
           crates/relational/src/db.rs | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         !/^[[:space:]]*\/\// && /\.rows\(\)|into_rows\(\)|into_parts\(\)/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
hits=$(echo "$calls" | grep -v '// row-view-ok: [^ ]')
if [ -n "$hits" ]; then
    echo "row view materialised on the data plane (use Batch::columns / Expr::select / Batch::filter):"
    echo "$hits"
    exit 1
fi
echo "row-view-ok lines remaining: $(echo "$calls" | grep -c '// row-view-ok: ')"
