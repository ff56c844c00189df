#!/usr/bin/env bash
# The whole check, as CI runs it: format, build, test, lint, the ten
# gate benches, the paper-figure drift gate, the source hygiene gates,
# the wall-clock gate, and a clean-tree check. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
porcelain_before=$(git status --porcelain)

echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

# N-tier hygiene: placement, audit, and quota machinery must iterate
# the machine's tier vector, never a hardcoded DRAM/NVM pair — and
# tenant-aware code must thread the real tenant id, never the solo
# slot's `TenantId(0)`. The only allowed literals live in the tier
# table / solo-compat shim (vmm/src/addr.rs); #[cfg(test)] modules
# (which sit at the bottom of each file) are exempt, so scanning stops
# at the first cfg(test) marker.
echo "== tier-literal gate"
bad=$(find crates -name '*.rs' -path '*/src/*' ! -path '*/vmm/src/addr.rs' -print0 \
  | xargs -0 -n1 awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' \
  | grep -E '\[Tier::Dram, *Tier::Nvm\]|\[Tier::Nvm, *Tier::Dram\]|TenantId\(0\)' || true)
if [ -n "$bad" ]; then
  echo "hardcoded tier-pair or TenantId(0) literal outside vmm/src/addr.rs:"
  echo "$bad"
  exit 1
fi

# No serde: nothing serializes and no config is read from a file, so no
# source file may derive or name serde. The stub crate and the manifest
# lines stay only because simbench/Cargo.lock pins them.
echo "== no-serde gate"
bad=$(grep -rn --include='*.rs' serde crates src tests examples || true)
if [ -n "$bad" ]; then
  echo "serde named in a source file (nothing serializes):"
  echo "$bad"
  exit 1
fi

# --workspace everywhere: the root package is the only default member,
# so bare cargo commands would skip the other crates.
echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q --workspace"
cargo test -q --workspace

# simbench is its own package (not a workspace member): its tests pin
# the twin <-> library digest parity and the output schema, so a change
# that moves a simulated byte fails here and not only at benchmark time.
echo "== cargo test simbench"
cargo test -q --offline --manifest-path simbench/Cargo.toml

# Simulated-byte identity at both pinned seeds: each workload's digest
# must match the one simbench records for the default seed 1 and the
# holdout seed 1000, so a page-selection or sampling bug that slips past
# the unit and property tests fails here and not only in the benchmark
# pipeline.
echo "== simbench identity smoke (--seed 1, --seed 1000)"
cargo build -q --release --offline --manifest-path simbench/Cargo.toml
simbench_bin="${CARGO_TARGET_DIR:-$PWD/simbench/target}/release/simbench"
for seed in 1 1000; do
  for w in gups_shift gups_regions fleet_churn kvs_700g; do
    out=$("$simbench_bin" --workload "$w" --seed "$seed" --seconds 0)
    if ! grep -qx 'sim_identical 1' <<<"$out"; then
      echo "simbench $w --seed $seed did not print 'sim_identical 1'"
      exit 1
    fi
    echo "   $w --seed $seed: sim_identical 1"
  done
done

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: a doc link left pointing at a deleted or private item
# fails here rather than rotting silently.
echo "== cargo doc --workspace --no-deps (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The ten gate benches. Each asserts its gates internally (listed in the
# module doc of crates/bench/src/bin/<name>.rs) and aborts on a
# violation. All of them run from one scratch directory, so what they
# write to ./results and ./BENCH_sim_wallclock.json stays out of the
# tree; fixed-config gates compare against the committed results/ by
# absolute path.
echo "== gate benches"
bin_dir="${CARGO_TARGET_DIR:-$PWD/target}/release"
gates=$(mktemp -d)
trap 'rm -rf "$gates"' EXIT
while read -r name args; do
  echo "   $name $args"
  # shellcheck disable=SC2086 # $args is a word list
  (cd "$gates" && "$bin_dir/$name" $args </dev/null)
done <<'LIST'
chaosbench --scale 96 --seconds 4
crashbench --seed 7 --scale 96 --seconds 3
obsbench --scale 96 --seconds 1
colobench --scale 96 --seconds 3
tierbench
churnbench
failbench
nomadbench
scalebench
fleetbench
LIST

# tier, churn, fail, nomad, scale and fleet ignore CLI flags, so every
# file they write must match the committed copy byte for byte.
echo "== gate outputs vs results/"
for f in "$gates"/results/{tier,churn,fail,nomad,scale,fleet}bench*; do
  if ! cmp -s "$f" "results/${f##*/}"; then
    echo "drift: ${f##*/} differs from the committed results/${f##*/}"
    exit 1
  fi
  echo "   ${f##*/}"
done

# crashbench and colobench take CLI flags: the smoke runs above feed the
# wall-clock gate, while their committed results/ come from a default-arg
# run. Repeat that run from a second scratch directory and compare.
echo "== default-arg crash/colo outputs vs results/"
defaults=$(mktemp -d)
trap 'rm -rf "$gates" "$defaults"' EXIT
for name in crashbench colobench; do
  echo "   $name"
  (cd "$defaults" && "$bin_dir/$name" </dev/null >/dev/null)
done
for f in crashbench.csv crashbench_telemetry.csv colobench.csv colobench_telemetry.csv; do
  if ! cmp -s "$defaults/results/$f" "results/$f"; then
    echo "drift: default-arg $f differs from the committed results/$f"
    exit 1
  fi
  echo "   $f"
done

# reprocheck runs every paper figure, table, and ablation binary with
# default args from a scratch directory and fails unless each file it
# writes and the table it prints are byte-identical to the committed
# copies under results/.
echo "== paper-figure drift gate"
./scripts/reprocheck.sh

# Slot-pool hygiene: every tenant spawn must flow through the pool
# (claim + in-place reset), never construct a tracker ad hoc — the only
# PageTracker::new call sites in the managed layers live in
# core/src/fleet.rs. Baselines keep their own trackers and are exempt;
# comments and #[cfg(test)] modules are exempt by the same cutoffs as
# above.
echo "== pooled-spawn gate"
bad=$(find crates/core/src crates/workloads/src -name '*.rs' ! -name 'fleet.rs' -print0 \
  | xargs -0 -n1 awk '/#\[cfg\(test\)\]/{exit} /^[[:space:]]*\/\//{next} {print FILENAME ":" FNR ": " $0}' \
  | grep -F 'PageTracker::new' || true)
if [ -n "$bad" ]; then
  echo "tenant tracker built outside the slot pool (core/src/fleet.rs):"
  echo "$bad"
  exit 1
fi
# HeMem has one construction path: every public constructor goes
# through the one private builder, the only SlotPool::new call in
# manager.rs (comments and #[cfg(test)] exempt as above).
n=$(awk '/#\[cfg\(test\)\]/{exit} /^[[:space:]]*\/\//{next} {print}' crates/core/src/hemem/manager.rs \
  | grep -cF 'SlotPool::new(' || true)
if [ "$n" != 1 ]; then
  echo "HeMem builds its slot pool in $n places; want exactly one (manager.rs)"
  exit 1
fi
# Telemetry has one sampler: every CSV is a row kind's column list fed
# through the one `Telemetry<K>`, so telemetry.rs declares exactly one
# `next_at` field (comments and #[cfg(test)] exempt as above).
echo "== one-sampler gate"
n=$(awk '/#\[cfg\(test\)\]/{exit} /^[[:space:]]*\/\//{next} {print}' crates/core/src/telemetry.rs \
  | grep -cE '^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?next_at:[[:space:]]*[A-Z][A-Za-z0-9_<>]*,' || true)
if [ "$n" != 1 ]; then
  echo "telemetry.rs declares $n next_at fields; want exactly one (one sampler type)"
  exit 1
fi
# HeMem has one policy pass: flat and region tracking run the same
# `run_policy_scoped` body and differ only in where candidates come
# from, so policy.rs counts a pass exactly once (comments and
# #[cfg(test)] exempt as above).
echo "== one-policy-pass gate"
n=$(awk '/#\[cfg\(test\)\]/{exit} /^[[:space:]]*\/\//{next} {print}' crates/core/src/hemem/policy.rs \
  | grep -cE 'm\.trace\.policy\.passes[[:space:]]*\+=' || true)
if [ "$n" != 1 ]; then
  echo "policy.rs increments m.trace.policy.passes $n times; want exactly one (one policy pass)"
  exit 1
fi
# One mechanism per job: the runtime has one region teardown, one
# fault-thread admission, one capped copy reservation, and one
# shadow-reclaiming allocation; HeMem computes a tenant's DRAM claim in
# one helper and runs every instance, solo included, through its one
# per-slot policy loop, so it never calls the whole-machine
# `run_policy` (comments and #[cfg(test)] exempt as above).
echo "== one-mechanism gate"
code() { awk '/#\[cfg\(test\)\]/{exit} /^[[:space:]]*\/\//{next} {print}' "$1"; }
for pat in 'fault_thread.admit(' '.space.munmap(' 'reserve_tier_bulk(now, e.src_tier' 'reclaim_shadow_frames(1)'; do
  n=$(code crates/core/src/runtime.rs | grep -cF "$pat" || true)
  if [ "$n" != 1 ]; then
    echo "runtime.rs has $n lines with '$pat'; want exactly one (one routine per job)"
    exit 1
  fi
done
n=$(code crates/core/src/hemem/manager.rs | grep -F 'prepared_into_for(' | grep -cF 'Tier::Dram' || true)
if [ "$n" != 1 ]; then
  echo "manager.rs computes the DRAM claim in $n places; want exactly one (dram_claim)"
  exit 1
fi
n=$(code crates/core/src/hemem/manager.rs | grep -cF 'run_policy(' || true)
if [ "$n" != 0 ]; then
  echo "manager.rs calls run_policy( $n times; want none (one per-slot tick loop)"
  exit 1
fi

# Region-granularity hygiene: the per-period policy pass must select
# work through the span indexes (regions.rs) — never a fresh flat
# per-page scan in the policy or manager layer. Crash-recovery and
# audit full scans live in tracker.rs and are exempt by file;
# #[cfg(test)] modules are exempt by the same cutoff as above.
echo "== flat-scan gate"
bad=$(for f in crates/core/src/hemem/policy.rs crates/core/src/hemem/manager.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f"
  done | grep -E 'for [^ ]+ in 0\.\.pages|for [^ ]+ in 0\.\.[a-z_.]*pages\(\)|\.meta\.iter|0\.\.self\.meta\.len' || true)
if [ -n "$bad" ]; then
  echo "flat per-page policy scan outside regions.rs/tracker.rs:"
  echo "$bad"
  exit 1
fi

# Wall-clock regression gate: every gate bench wrote its row (counted
# simulated seconds, wall seconds) to the scratch directory's
# BENCH_sim_wallclock.json. Compare against the committed file with a 3x
# tolerance — machine-to-machine variance is real, but an
# order-of-magnitude simulator slowdown is a bug. A committed row with
# no wall_seconds (obsbench and crashbench, which finish in under ~60 ms,
# where 3x is within host noise) records only the counted seconds and
# is not gated.
echo "== sim wall-clock regression gate"
jq -r 'to_entries[] | "\(.key) \(.value.wall_seconds)"' "$gates/BENCH_sim_wallclock.json" \
| while read -r bench fresh; do
    base=$(jq -r --arg b "$bench" '.[$b].wall_seconds // empty' BENCH_sim_wallclock.json)
    [ -z "$base" ] && { echo "   $bench: ${fresh}s (no committed wall_seconds, not gated)"; continue; }
    if awk -v f="$fresh" -v b="$base" 'BEGIN { exit !(f > 3 * b) }'; then
      echo "wall-clock regression: $bench took ${fresh}s vs committed ${base}s (>3x)"
      exit 1
    fi
    echo "   $bench: ${fresh}s vs baseline ${base}s"
  done

# Nothing above may touch the tree: builds go to target/ (ignored) and
# every bench runs from a scratch directory.
echo "== clean tree"
if [ "$(git status --porcelain)" != "$porcelain_before" ]; then
  echo "check.sh changed the working tree:"
  diff <(echo "$porcelain_before") <(git status --porcelain) || true
  exit 1
fi

echo "== all checks passed"
