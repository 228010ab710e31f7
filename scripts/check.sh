#!/usr/bin/env bash
# Repo gate: formatting, lints, tests. Run before every push.
#
#   scripts/check.sh                      the gate
#   scripts/check.sh --perf [BASE.jsonl]  did this change regress performance?
#   scripts/check.sh --mutants [ROW...]   do the catalogued tests fail when
#                                         what they pin is broken?
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--mutants" ]]; then
  # The mutation catalogue (scripts/mutants.txt; the runner's header says
  # how it works). Slow — a build and a test run a row — so never part of
  # the default gate.
  shift
  exec scripts/mutants.sh "$@"
fi

if [[ "${1:-}" == "--perf" ]]; then
  # Measure this tree with perfbench (every workload, appended to
  # perf-<short-sha>.jsonl) and, given another tree's file, judge this one
  # against it. The bounds and the verdict are perfbench's (BENCHMARK.json,
  # perfbench/README.md "compare"), not this script's. No baseline file is
  # committed: produce BASE.jsonl by running this mode on the parent commit
  # on the same machine. Runs accumulate in the file; repeat the command a
  # few times a side, because from one run each `compare` cannot tell noise
  # from change. Nothing else of the gate runs — timing wants a quiet
  # machine.
  base="${2:-}"
  out="perf-$(git rev-parse --short HEAD).jsonl"
  if [[ -n "$base" && "$base" -ef "$out" ]]; then
    echo "BASE is this tree's own output file ($out): move it aside first" >&2
    exit 2
  fi
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
  perfbench/target/release/perfbench all --out "$out"
  echo "perf -> $out"
  [[ -n "$base" ]] || exit 0
  exec perfbench/target/release/perfbench compare "$base" "$out"
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== size gate: no file under crates/*/src above 900 non-test lines =="
# A file's non-test lines are those above its first column-0
# `#[cfg(test)]` (all of them when it has none), blanks and comments
# included: the count ROADMAP.md tracks. The engine, the view, the state
# and the Tetris pass were each split into one file a concern to get
# under it.
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { counting = 1 }
  /^#\[cfg\(test\)\]/ { counting = 0 }
  counting { lines[FILENAME]++ }
  END {
    for (f in lines) if (lines[f] > 900) { print lines[f], f; over = 1 }
    exit over
  }' || { echo "files above 900 non-test lines (count, file) are listed above"; exit 1; }

echo "== cargo test =="
cargo test --workspace -q

echo "== memory gate: the bytes a backlog task costs a probe =="
# Timer-free: a counting global allocator reads the live bytes one
# ScheduleProbe holds beyond its workload, a task of a 17 032-task
# suite backlog (crates/sim/tests/probe_memory.rs; DESIGN.md 2, "What a
# state holds"). It reads 56.2 (157.5 before the per-task record was
# split); the bound is 64. The workspace run above ran it too: this
# names the gate and prints its figure.
cargo test -q -p tetris-sim --test probe_memory -- --nocapture

echo "== reproduce smoke (parallel runner) =="
cargo build --release -p tetris-expts -q
target/release/reproduce fig1 table2 --jobs 2 >/dev/null
target/release/reproduce sweep table2 --seeds 1..2 --jobs 2 >/dev/null

echo "== batch golden (typed-spec layer is invisible to all-batch runs) =="
# The §16 spec API (classes, priorities, constraints, preemption) must
# be a pure extension: an all-batch reproduce run renders byte-identical
# output to the checked-in pre-§16 golden. cmp, not a tolerance.
target/release/reproduce fig1 table2 --jobs 2 | sed '/finished in/d' \
  | cmp - scripts/golden/batch_reproduce.txt \
  || { echo "batch reproduce output diverged from the pre-§16 golden"; exit 1; }

echo "== sweeps golden (each knob sweep's simulations, pinned) =="
# The §5.3 sweeps and the experiments whose runs they share must render
# byte-identical to the golden (about 12 s on two workers). cmp, not a
# tolerance.
target/release/reproduce fig4 fig7 table7 fig8 fig10 rp eps --jobs 2 | sed '/finished in/d' \
  | cmp - scripts/golden/sweeps_reproduce.txt \
  || { echo "sweep experiments' output diverged from the golden"; exit 1; }

echo "== metric names golden (every experiment's headline names, pinned) =="
# Sweep points format their metric names from the values they sweep
# (DESIGN.md 8), so a changed format or sweep value renames a metric
# silently. One "id name" line a metric of `reproduce all --bench`, read
# from its experiments[].metrics keys (sorted there; push order is the
# report's own). About 12 s on two workers. cmp, not a tolerance.
names_tmp="$(mktemp)"
target/release/reproduce all --scale 0.05 --jobs 2 --bench "$names_tmp" >/dev/null
awk '
  /^  "experiments"/ { inexp = 1 }
  /^  [\]}]/ { inexp = 0 }
  inexp && /^      "id": / { id = $2; gsub(/[",]/, "", id) }
  inexp && /^      "metrics": \{/ { inm = 1; next }
  inm && /^      \}/ { inm = 0 }
  inm { name = $1; gsub(/[":]/, "", name); print id, name }
' "$names_tmp" | cmp - scripts/golden/metric_names.txt \
  || { rm -f "$names_tmp"; echo "metric names diverged from the golden"; exit 1; }
rm -f "$names_tmp"

echo "== churn smoke (fault sweep at toy scale) =="
target/release/reproduce churn --scale 0.05 >/dev/null

echo "== telemetry + provenance smoke =="
cargo build --release -p tetris-workload -q
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Default trace: byte-identity gate — no provenance keys may appear when
# --trace-verbose is off (the golden wire-bytes unit test pins the exact
# JSON; this guards the whole end-to-end artifact).
target/release/reproduce --trace "$tmp/plain.jsonl" --scale 0.1 > "$tmp/plain.txt"
if grep -q '"provenance"' "$tmp/plain.jsonl"; then
  echo "default trace leaked provenance (must be --trace-verbose only)"; exit 1
fi
# Timer-free gate on Tetris's blocked-head memo (DESIGN.md 9): placement
# plans resolved per task placed, from the run's own summary. Both counts
# repeat exactly. This run makes 10 393 plans for 2 902 placements (3.58
# each; 9.9 with the memo forgotten when its call ends, 11.2 with the memo
# also blind to machines holding part of a shuffle head's input, 12.2 with
# no memo), so the bound, 3.8, leaves a margin of 6 %. A cold-pass-heavy
# input moves far more (suite_pack, seed 42: 36 -> 2.3); this is the one
# the gate already runs.
awk '$1 == "placements" { placed = $2 } $1 == "placement_plans" { plans = $2 }
  END { exit (placed > 0 && plans > 0 && plans * 10 <= placed * 38) ? 0 : 1 }' "$tmp/plain.txt" \
  || { echo "placement_plans per placement above 3.8:"; grep '^placement' "$tmp/plain.txt"; exit 1; }
# Verbose run: provenance with rejected candidates must be present, and
# the telemetry stream must be byte-identical across repeated runs.
target/release/reproduce --trace "$tmp/verbose.jsonl" --trace-verbose \
  --timeseries "$tmp/ts1.jsonl" --scale 0.1 >/dev/null
grep -q '"provenance"' "$tmp/verbose.jsonl" \
  || { echo "verbose trace carries no provenance"; exit 1; }
grep -q '"rejected":\[{' "$tmp/verbose.jsonl" \
  || { echo "verbose trace has no rejected candidates"; exit 1; }
target/release/reproduce --timeseries "$tmp/ts2.jsonl" --scale 0.1 >/dev/null
cmp -s "$tmp/ts1.jsonl" "$tmp/ts2.jsonl" \
  || { echo "telemetry stream is not deterministic across runs"; exit 1; }
# explain reconstructs a placement story from the verbose trace. (Write
# to a file before grepping: `| grep -q` exits at first match, and the
# tool, which then ends at its next write, would not run to completion.)
task="$(grep -m1 '"rejected":\[{' "$tmp/verbose.jsonl" \
  | sed 's/.*"TaskPlaced":{"job":[0-9]*,"task":\([0-9]*\).*/\1/')"
target/release/trace-tool explain "$tmp/verbose.jsonl" --task "$task" > "$tmp/explain.txt"
grep -q "rejected #1" "$tmp/explain.txt" \
  || { echo "explain shows no rejected candidates"; exit 1; }
# report renders a deterministic summary of the stream.
target/release/trace-tool report "$tmp/ts1.jsonl" --csv "$tmp/ts.csv" > "$tmp/report.txt"
grep -q "packing_efficiency" "$tmp/report.txt" \
  || { echo "report missing summary"; exit 1; }
head -1 "$tmp/ts.csv" | grep -q "^t,cpu_alloc" || { echo "bad csv header"; exit 1; }

echo "== hostile-input smoke (nesting deeper than any stack is a parse error) =="
# 100 000 `[` is no trace, and must be refused as one: exit code 1 with
# the parse error on stderr. A stack overflow aborts instead, which bash
# reports as 128 + the signal (134).
head -c 100000 /dev/zero | tr '\0' '[' > "$tmp/deep.json"
code=0
target/release/trace-tool info "$tmp/deep.json" 2> "$tmp/deep.err" || code=$?
[[ "$code" == 1 ]] && grep -q "trace json error" "$tmp/deep.err" \
  || { echo "trace-tool info on hostile nesting: exit $code"; cat "$tmp/deep.err"; exit 1; }

echo "== table8 smoke (incremental heartbeat path) =="
# The probe inside table8 asserts incremental == full-rebuild decisions
# every heartbeat; here we additionally check the incremental path was
# actually exercised: every sweep row must report jobs whose epoch the
# warm heartbeats moved (last column, `touched`, > 0).
table8_out="$(target/release/reproduce table8 --scale 0.05)"
echo "$table8_out" | awk '
  /^(2500|11000|51000|100000) / { rows++; if ($7 + 0 <= 0) bad = 1 }
  END { exit (rows == 4 && !bad) ? 0 : 1 }
' || { echo "table8 smoke failed: expected 4 sweep rows with touched > 0"; echo "$table8_out"; exit 1; }

echo "== scale smoke (indexed MachineQuery vs linear oracle) =="
# The ColdPassProbe inside the experiment asserts byte-identical
# assignment streams between the indexed and linear backends every rep,
# so a clean exit *is* the equivalence gate.
target/release/reproduce scale --scale 0.02 >/dev/null

echo "== serving golden (diurnal SLOs + preemption, §16) =="
# The per-wave Tetris <= Capacity SLO gate is asserted by the serving
# unit tests; the golden byte-pins the preemption path the way the batch
# golden pins the batch path (its summary table has a nonzero Tetris
# preempt column): shipped eviction decisions change only with a
# regenerated file. cmp, not a tolerance.
target/release/reproduce serving --scale 0.5 | sed '/finished in/d' \
  | cmp - scripts/golden/serving_reproduce.txt \
  || { echo "serving reproduce output diverged from the golden"; exit 1; }

echo "== grep gate: policies go through MachineQuery, not raw machine scans =="
# view.machines() was removed with the MachineQuery redesign; policy code
# must not resurrect it or hand-roll id-range iteration over machines.
# (num_machines() alone stays legal for buffer sizing.)
if grep -rnE '\.machines\(\)|\(0\.\.(view|v)\.num_machines\(\)\)' \
    crates/core/src crates/baselines/src examples; then
  echo "policy code iterates machines outside MachineQuery"; exit 1
fi

echo "== omega smoke (sharded multi-scheduler) =="
# The omega experiment gates shards=1 byte-equivalence against the bare
# scheduler and placement-count invariance across shard counts inside the
# run, so a clean exit is the real gate; additionally pin that the sweep
# table rendered with the commit-stage columns.
omega_out="$(target/release/reproduce omega --scale 0.02)"
echo "$omega_out" | grep -q "retry_peak" \
  || { echo "omega smoke missing sweep table"; echo "$omega_out"; exit 1; }
# An instrumented engine run under --shards 2 must surface the
# commit-stage conflict counters in its summary table.
shard_out="$(target/release/reproduce --shards 2 --metrics "$tmp/shard_metrics.json" --scale 0.1)"
echo "$shard_out" | grep -q "scheduling_conflicts_total" \
  || { echo "sharded run summary missing conflict counters"; echo "$shard_out"; exit 1; }

echo "== grep gate: shard workers never mutate shared cluster state =="
# The sharded driver sees the cluster only through a read-only
# ClusterView plus the working ledger its commit stage charges; every
# real mutation happens when the engine applies the committed batch
# after schedule() returns. Any engine-state type, interior mutability,
# or unsafe block in the module would be a way to smuggle writes into
# a shard's pass.
if grep -nE 'SimState|RefCell|Mutex|RwLock|UnsafeCell|Atomic[UIB]|unsafe' \
    crates/sim/src/sharded.rs; then
  echo "sharded driver can mutate shared state from a worker"; exit 1
fi

echo "== grep gate: the simulator runs on the calling thread =="
# A shard's pass is timed on its own and the round's critical path is the
# slowest pass plus the commit (DESIGN.md 14), so threads buy nothing
# that this simulator measures. The one thread pool is the experiment
# runner's (crates/expts/src/pool.rs).
if grep -rnE 'pool_map|std::thread' crates/sim/src; then
  echo "the simulator spawns threads"; exit 1
fi

echo "== recovery smoke (re-execution against the WAL) =="
# Crash an instrumented run mid-way, recover it by replaying the journal
# from heartbeat 0, and diff the recovered outcome's wire bytes against a
# crash-free run's. Byte-identity is the DESIGN.md 15 contract, not a
# statistical property — cmp, not a tolerance.
rec_out="$(target/release/reproduce --journal "$tmp/rec.wal" \
  --crash-at 6 --outcome "$tmp/recovered.json" --scale 0.1)"
echo "$rec_out" | grep -q "replay from heartbeat 0" \
  || { echo "instrumented run did not crash and recover"; echo "$rec_out"; exit 1; }
# The journal's own bytes are pinned too, not only what recovers from
# them: a serializer or framing change must write the bytes the last
# JOURNAL_VERSION wrote. Regenerate only with a deliberate
# JOURNAL_VERSION bump or a golden-changing decision change — the pin
# and scripts/golden/recovery_frames.txt (`frames rec.wal`) together.
# This pin is JOURNAL_VERSION 4's (decisions only: no checkpoints, no
# Samples records, no checkpoint cadence in the header), regenerated on
# purpose; its BatchStart and BatchCommit frames are version 3's, byte
# for byte. Version 3 (no `gen` on a flow or its FlowDone; one queued
# completion a live flow) wrote "2906723017 115954". Version 2 (Samples
# records; sparse tasks and flows in the snapshot) wrote
# "1373707829 115954" — as many bytes: that run's two checkpoints, at
# heartbeats 0 and 4, preceded its first placement and held no flow, so
# only the header's version digit differed. Version 1 wrote
# "42343950 876208".
#
# One line a frame of journal $1: byte offset, payload CRC, record tag
# (frame = [len u32 LE][crc32 u32 LE][payload {"Tag":...]).
frames() {
  local size off=0 len crc
  size="$(stat -c %s "$1")"
  while (( off < size )); do
    read -r len crc < <(od -An -tu4 -j "$off" -N 8 "$1")
    echo "$off $crc $(tail -c +"$((off + 9))" "$1" | head -c 32 | cut -d'"' -f2)"
    off=$((off + 8 + len))
  done
}
wal_sum="$(cksum < "$tmp/rec.wal")" # "<crc> <bytes>"
if [[ "$wal_sum" != "2630259592 785" ]]; then
  echo "journal bytes changed: cksum $wal_sum; first frame (offset crc tag)" \
    "that differs, written (<) against pinned (>):"
  diff <(frames "$tmp/rec.wal") scripts/golden/recovery_frames.txt | grep -m2 '^[<>]'
  exit 1
fi
# Size budget beside the pin: the crash-at-6 journal is a header plus five
# committed batches, so 4 096 bytes. A record that quietly re-grows the
# journal (a snapshot creeping back in) fails here, at the deliberate
# regeneration that would otherwise wave it through, not in a benchmark.
(( ${wal_sum#* } <= 4096 )) \
  || { echo "journal outgrew its budget: ${wal_sum#* } bytes"; exit 1; }
# The decision stream is pinned beside the journal: the default
# `--trace --scale 0.1` run from the telemetry smoke above, its one
# wall-clock field masked. Every placement, completion and preemption of
# the run is in it, so a refactor that moves one decision fails here.
# Regenerate only with a deliberate decision change.
trace_sum="$(sed -E 's/"wall_ns":[0-9]+/"wall_ns":0/g' "$tmp/plain.jsonl" | cksum)"
[[ "$trace_sum" == "1545768602 1546785" ]] \
  || { echo "decision stream changed: masked trace cksum $trace_sum"; exit 1; }
target/release/reproduce --outcome "$tmp/full.json" --scale 0.1 >/dev/null
cmp "$tmp/recovered.json" "$tmp/full.json" \
  || { echo "recovered outcome diverges from the uninterrupted run"; exit 1; }

echo "== grep gate: sharded driver stays journal-free =="
# Durability is the engine's job: the sharded driver proposes and commits
# in memory only, and recovery re-derives its commit frontier from engine
# records. A journal reference here would let a shard write decision
# records outside the engine's commit points, breaking the torn-batch
# recovery argument.
if grep -nE '\bJournal\b|JournalRecord' crates/sim/src/sharded.rs; then
  echo "sharded driver touches the journal"; exit 1
fi

echo "== perfbench tests (builds against the current API; smoke-runs all five workloads) =="
# perfbench/ is a package of its own (not a workspace member), so the
# steps above never build it. Its tests include the smoke run with the
# outcome-digest identity checks across timed / traced / observed /
# journaled / recovered modes, so a behaviour change that breaks the
# benchmark's correctness checks fails here, not in the benchmark run.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "all checks passed"
