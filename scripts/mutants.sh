#!/usr/bin/env bash
# Run the mutation catalogue (scripts/mutants.txt): break each mechanism
# in turn and check that the test named for it fails.
#
#   scripts/mutants.sh            every row
#   scripts/mutants.sh 3 7        rows 3 and 7 (1-based, in file order)
#
# The tree under test is HEAD plus the uncommitted changes to tracked
# files (`git stash create`), checked out once as a detached worktree in
# $MUTANTS_DIR (default: a directory under ${TMPDIR:-/tmp}). Each row is
# applied there, its test run, and the file restored. One target
# directory serves every row, so a row rebuilds only the crates its file
# reaches. Before the first mutation of a test command, the unmutated
# tree must pass it: a test that fails anyway kills nothing.
#
# Per row it prints `killed`, `survived`, `unviable` (the mutant does
# not build) or `stale` (`old` is not in the file exactly once), with the
# seconds it took. It exits non-zero unless every row is killed.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"

dir="${MUTANTS_DIR:-${TMPDIR:-/tmp}/tetris-mutants}"
tree="$dir/tree"
export CARGO_TARGET_DIR="$dir/target"
mkdir -p "$dir"

rev="$(git stash create)"
rev="${rev:-HEAD}"
git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
git worktree prune
git worktree add --quiet --detach "$tree" "$rev"
cleanup() { git -C "$repo" worktree remove --force "$tree" 2>/dev/null || true; }
trap cleanup EXIT

# Parse the catalogue into parallel arrays, one entry a row.
names=() files=() tests=() olds=() news=()
while IFS= read -r line; do
  case "$line" in
    "## "*) names+=("${line#\#\# }") ;;
    "file: "*) files+=("${line#file: }") ;;
    "test: "*) tests+=("${line#test: }") ;;
    "old: "*) olds+=("${line#old: }") ;;
    "new: "*) news+=("${line#new: }") ;;
  esac
done < scripts/mutants.txt
n="${#names[@]}"
for count in "${#files[@]}" "${#tests[@]}" "${#olds[@]}" "${#news[@]}"; do
  [[ "$count" == "$n" ]] || { echo "mutants.txt: $n headings but $count of a key" >&2; exit 2; }
done

rows=("$@")
[[ "${#rows[@]}" -gt 0 ]] || rows=($(seq 1 "$n"))

declare -A baseline # test command -> passes unmutated
bad=0
for r in "${rows[@]}"; do
  i=$((r - 1))
  file="$tree/${files[$i]}"
  # shellcheck disable=SC2206 # the test arguments are meant to split
  args=(${tests[$i]})
  if [[ -z "${baseline[${tests[$i]}]:-}" ]]; then
    if ! (cd "$tree" && cargo test -q "${args[@]}" >/dev/null 2>&1); then
      echo "row $r: the unmutated tree fails 'cargo test ${tests[$i]}'" >&2
      exit 2
    fi
    baseline[${tests[$i]}]=1
  fi
  start=$SECONDS
  src="$(<"$file")"
  rest="${src//"${olds[$i]}"/}"
  hits=$(( (${#src} - ${#rest}) / ${#olds[$i]} ))
  if [[ "$hits" != 1 ]]; then
    verdict="stale ($hits matches)"
  else
    printf '%s\n' "${src/"${olds[$i]}"/"${news[$i]}"}" > "$file"
    if ! (cd "$tree" && cargo test -q --no-run "${args[@]}" >/dev/null 2>&1); then
      verdict=unviable
    elif (cd "$tree" && cargo test -q "${args[@]}" >/dev/null 2>&1); then
      verdict=survived
    else
      verdict=killed
    fi
    git -C "$tree" checkout --quiet -- "${files[$i]}"
  fi
  [[ "$verdict" == killed ]] || bad=$((bad + 1))
  printf '%3d  %-9s %4ds  %s  [%s]\n' "$r" "$verdict" $((SECONDS - start)) "${names[$i]}" "${tests[$i]}"
done
echo "${#rows[@]} rows, $bad not killed"
[[ "$bad" == 0 ]]
