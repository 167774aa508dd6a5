#!/usr/bin/env bash
# A/B comparison of the working tree against a base commit on the
# benchmark declared in BENCHMARK.json.
#
#   scripts/ab.sh [-n PAIRS] [-r REV] [WORKLOAD...]
#
#   -n  pairs per workload (default 5); mixed-live, whose walls spread
#       widest, always runs at least 10
#   -r  base revision (default HEAD, the parent of uncommitted work;
#       give -r HEAD~1 to measure the last commit)
#   WORKLOAD...  default: every workload in BENCHMARK.json
#
# Builds REV (exported with `git archive`) and the working tree side by
# side, each with its own target directory under $AB_DIR (default
# target/ab). Every run lasts BENCHMARK.json's run_seconds. Pair i of a
# workload runs seed 42+i-1 on both sides through the benchmark's `run`
# subcommand; which side runs first swaps every pair. For each
# end-to-end metric it prints the base and change medians, the base IQR
# (exclusive-method quartiles, as the benchmark's own summaries use),
# the pairs the change won, the pairs with equal values, and a note:
# `worse>bound` when the change's median is worse than the base's by
# more than the metric's bound, `unresolved` when the base IQR exceeds a
# third of the bound (the pairs cannot tell). Each workload's header
# says whether every run was correct and how many operations failed.
# Run JSON lines are kept in $AB_DIR/runs.
set -euo pipefail

pairs=5 rev=""
while getopts "n:r:" opt; do
  case "$opt" in
    n) pairs=$OPTARG ;;
    r) rev=$OPTARG ;;
    *) sed -n '2,25p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
mixed_pairs=$((pairs > 10 ? pairs : 10))

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ -z "$rev" ]; then
  if git diff --quiet HEAD; then
    echo "ab.sh: no uncommitted change to compare with HEAD; give -r REV (e.g. -r HEAD~1)" >&2
    exit 2
  fi
  rev=HEAD
fi
spec=$root/BENCHMARK.json
seconds=$(jq -r .run_seconds "$spec")
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
ab=${AB_DIR:-$root/target/ab}
base_tree=$ab/base
mkdir -p "$ab/runs"

echo "# base $(git rev-parse --short "$rev"), change = working tree; --seconds $seconds" >&2
rm -rf "$base_tree"
mkdir -p "$base_tree"
git archive "$rev" | tar -x -C "$base_tree"
for side in base change; do
  tree=$root
  [ "$side" = base ] && tree=$base_tree
  CARGO_TARGET_DIR=$ab/target-$side \
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

# run SIDE WORKLOAD SEED: one benchmark run; its result line into runs/.
run() {
  local side=$1 workload=$2 seed=$3 tree=$root
  [ "$side" = base ] && tree=$base_tree
  local out=$ab/runs/$workload-$seed-$side
  (cd "$tree" && "$ab/target-$side/release/orochi-benchmark" run --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 --out "$ab/out-$side") >"$out.log" 2>&1 ||
    echo "ab.sh: $side $workload seed $seed exited non-zero (see $out.log)" >&2
  tail -n 1 "$out.log" >"$out.json"
  jq -e . "$out.json" >/dev/null 2>&1 || echo '{"correct":false,"failed":-1,"metrics":{}}' >"$out.json"
}

for workload in "${workloads[@]}"; do
  n=$pairs
  [ "$workload" = mixed-live ] && n=$mixed_pairs
  files=()
  for ((i = 0; i < n; i++)); do
    seed=$((42 + i))
    if ((i % 2 == 0)); then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do
      echo "# $workload seed $seed $side" >&2
      run "$side" "$workload" "$seed"
    done
    files+=("$ab/runs/$workload-$seed-base.json" "$ab/runs/$workload-$seed-change.json")
  done
  # The files alternate base, change: pair i is entries 2i and 2i+1.
  jq -rn --arg workload "$workload" --slurpfile spec "$spec" '
    def median: sort | if length == 0 then null
      elif length % 2 == 1 then .[length / 2 | floor]
      else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    # Exclusive-method quartile $i (1 or 3), as benchmark/src/stats.rs.
    def quartile($i): sort as $v | length as $n
      | if $n == 0 then null elif $n == 1 then $v[0] else
          ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
          | ($i * ($n + 1) - $j * 4) as $d
          | ($v[$j - 1] * (4 - $d) + $v[$j] * $d) / 4 end;
    def fmt: if . == null then "-" else (. * 10000 | round / 10000 | tostring) end;
    [inputs] as $runs
    | [range(0; $runs | length; 2) | [$runs[.], $runs[. + 1]]] as $pairs
    | ($pairs | length) as $n
    | "== \($workload): \($n) pairs (seeds 42-\(41 + $n)), all correct: \(if all($runs[]; .correct) then "yes" else "NO" end), failed: base \([$pairs[][0].failed] | add), change \([$pairs[][1].failed] | add)",
      (["metric", "unit", "base", "change", "delta", "base IQR", "won", "equal", "bound", "note"] | @tsv),
      ($spec[0].end_to_end[] as $m
        | [$pairs[] | [.[0].metrics[$m.name].value, .[1].metrics[$m.name].value]
                    | select(.[0] != null and .[1] != null)] as $vals
        | select($vals | length > 0)
        | ([$vals[][0]] | median) as $b | ([$vals[][1]] | median) as $c
        | (([$vals[][0]] | quartile(3)) - ([$vals[][0]] | quartile(1))) as $iqr
        | (if $b == 0 then 0 else ($c - $b) / $b end) as $rel
        | (if $m.better == "lower" then $rel else -$rel end) as $worse
        | [$m.name, $m.unit, ($b | fmt), ($c | fmt),
           ((($rel * 1000 | round) / 10 | tostring) + "%"),
           ($iqr | fmt),
           "\([$vals[] | select(if $m.better == "lower" then .[1] < .[0] else .[1] > .[0] end)] | length)/\($vals | length)",
           "\([$vals[] | select(.[0] == .[1])] | length)/\($vals | length)",
           "\($m.bound * 100)%",
           ([if $worse > $m.bound then "worse>bound" else empty end,
             if $b != 0 and $iqr / $b > $m.bound / 3 then "unresolved" else empty end] | join(" "))]
        | @tsv)
  ' "${files[@]}" | awk -F'\t' '
    NR == 1 { print; next }
    { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } }
    NF > nf { nf = NF }
    END {
      for (r = 2; r <= NR; r++) {
        line = ""
        for (i = 1; i <= nf; i++) line = line sprintf("%-" w[i] "s  ", cell[r, i])
        sub(/ +$/, "", line); print line
      }
    }'
  echo
done
