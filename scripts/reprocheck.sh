#!/usr/bin/env bash
# Paper-figure drift gate. Runs every paper figure, table, and ablation
# binary (fig*, table*, ablate_*) with default args from a scratch
# directory and compares each file it writes byte for byte against the
# committed copy under results/, which is the golden set. Fails on any
# difference, on a binary that exits non-zero, and on a binary that
# writes nothing. Run from anywhere:
#
#   scripts/reprocheck.sh
#
# Binaries are taken from ${CARGO_TARGET_DIR:-target}/release after a
# release build of hemem-bench.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

cargo build --release --offline -p hemem-bench --bins
bin_dir="${CARGO_TARGET_DIR:-$root/target}/release"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail=0
checked=0
for src in crates/bench/src/bin/{fig,table,ablate_}*.rs; do
  name=$(basename "$src" .rs)
  dir="$work/$name"
  mkdir -p "$dir"
  start=$SECONDS
  if ! (cd "$dir" && "$bin_dir/$name" >stdout 2>stderr); then
    echo "FAIL $name: exited non-zero"
    tail -n 5 "$dir/stderr"
    fail=1
    continue
  fi
  files=$(cd "$dir" && find results -type f 2>/dev/null | sort)
  if [ -z "$files" ]; then
    echo "FAIL $name: wrote no results file"
    fail=1
    continue
  fi
  for f in $files; do
    if ! cmp -s "$dir/$f" "$root/$f"; then
      echo "FAIL $name: $f differs from the committed copy"
      diff "$root/$f" "$dir/$f" | head -n 10 || true
      fail=1
    fi
  done
  checked=$((checked + 1))
  echo "   $name: $(echo "$files" | wc -w) file(s), $((SECONDS - start)) s"
done

if [ "$fail" -ne 0 ]; then
  echo "reprocheck: drift against results/"
  exit 1
fi
echo "reprocheck: $checked binaries byte-identical to results/"
