#!/usr/bin/env bash
# pairs.sh — the paired measurement a performance PR owes (choosing-metrics
# §8): run one benchmark workload on two checkouts, parent and change, in
# alternating pairs, and say per end-to-end metric whether a gain may be
# claimed.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=20] [SEED=11]
#
# Each tree is built and run by its own bench/run.sh (binary and build cache
# stay inside that checkout). Odd pairs run the parent first, even pairs the
# change. Every run is printed as it finishes; then, per end-to-end metric of
# CHANGE_DIR/BENCHMARK.json: both medians, both quartile pairs, the pairs the
# change won and tied, the regression bound, and whether the rule holds — the
# change ahead in at least nine tenths of the pairs, ties counting for
# neither, and the medians further apart than the parent's quartiles are.
# The same verdict is appended, as one record, to the JSON array in
# CHANGE_DIR/BENCH_<WORKLOAD>.json: both commits (`git describe --dirty`),
# the host line of the runs, every run's value, and per metric both medians
# and quartile pairs, wins, ties, the gain rule and the regression bound.
# Use a seed that was not used while the change was written. Exit status: 0
# when every run was correct with no failed operation, 1 otherwise, 2 on a
# usage error.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=20] [SEED=11]" >&2
  exit 2
fi
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOAD="$3"
PAIRS="${4:-10}"
SECONDS_PER_RUN="${5:-20}"
SEED="${6:-11}"
for d in "$PARENT" "$CHANGE"; do
  [ -f "$d/bench/run.sh" ] || { echo "$0: no bench/run.sh under $d" >&2; exit 2; }
done

# name, direction and bound of every end-to-end metric.
METRICS="$(awk '
  /"end_to_end"/ { on = 1 }
  on && /"name"/   { gsub(/[",]/, ""); name = $2 }
  on && /"better"/ { gsub(/[",]/, ""); better = $2 }
  on && /"bound"/  { gsub(/[",]/, ""); print name, better, $2 }
  on && /\]/       { exit }' "$CHANGE/BENCHMARK.json")"
[ -n "$METRICS" ] || { echo "$0: no end_to_end metrics in $CHANGE/BENCHMARK.json" >&2; exit 2; }

RUNS="$(mktemp)"
VERDICT="$(mktemp)"
trap 'rm -f "$RUNS" "$VERDICT"' EXIT
HOST=""

# run SIDE DIR PAIR: one benchmark run; appends "side pair metric value" rows
# and a "side pair ok 0|1" row to $RUNS.
run() {
  local side="$1" dir="$2" pair="$3" out
  out="$(bash "$dir/bench/run.sh" -workload "$WORKLOAD" -seconds "$SECONDS_PER_RUN" -seed "$SEED" 2>/dev/null)" || true
  # The host line without the commit and start time, which differ by run.
  [ -n "$HOST" ] || HOST="$(sed -n 's/^# commit [^ ]*  //; s/  started .*//p' <<<"$out" | head -1)"
  local ok=0
  if grep -q '^{"correct":true,' <<<"$out" && grep -Eq '^failed_ops_share +0 ' <<<"$out"; then ok=1; fi
  echo "$side $pair ok $ok" >>"$RUNS"
  local line="pair $pair $side:"
  while read -r name _; do
    local v
    v="$(awk -v n="$name" '$1 == n { print $2; exit }' <<<"$out")"
    echo "$side $pair $name ${v:-nan}" >>"$RUNS"
    line+=" $name=${v:-missing}"
  done <<<"$METRICS"
  [ "$ok" = 1 ] || line+=" NOT-CORRECT-OR-FAILED-OPS"
  echo "$line"
}

echo "# $WORKLOAD  pairs $PAIRS  seconds $SECONDS_PER_RUN  seed $SEED"
echo "# parent $PARENT"
echo "# change $CHANGE"
for ((p = 1; p <= PAIRS; p++)); do
  if ((p % 2)); then
    run parent "$PARENT" "$p"; run change "$CHANGE" "$p"
  else
    run change "$CHANGE" "$p"; run parent "$PARENT" "$p"
  fi
done

echo
status=0
awk -v pairs="$PAIRS" -v json="$VERDICT" '
  # q(a, n, f): the f-quantile of a[1..n] sorted ascending, interpolated.
  function q(a, n, f,   h, lo) {
    h = (n - 1) * f + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  function num(x) { return miss ? "null" : sprintf("%.6g", x) }
  function sorted(src, dst, n,   i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
  }
  NR == FNR { order[++m] = $1; better[$1] = $2; bound[$1] = $3; next }
  $3 == "ok" { if ($4 != 1) bad++; next }
  { val[$1, $3, $2] = $4 }
  END {
    for (k = 1; k <= m; k++) {
      name = order[k]; wins = ties = 0
      for (p = 1; p <= pairs; p++) {
        P[p] = val["parent", name, p]; C[p] = val["change", name, p]
        if (C[p] == P[p]) ties++
        else if ((better[name] == "higher") == (C[p] > P[p])) wins++
      }
      sorted(P, sp, pairs); sorted(C, sc, pairs)
      pm = q(sp, pairs, .5); cm = q(sc, pairs, .5)
      iqr = q(sp, pairs, .75) - q(sp, pairs, .25)
      ahead = (better[name] == "higher") ? cm - pm : pm - cm
      printf "%s (%s is better)\n", name, better[name]
      printf "  parent  median %-12.6g quartiles %.6g .. %.6g (IQR %.4g)\n", pm, q(sp, pairs, .25), q(sp, pairs, .75), iqr
      printf "  change  median %-12.6g quartiles %.6g .. %.6g\n", cm, q(sc, pairs, .25), q(sc, pairs, .75)
      if (pm != 0) printf "  change/parent %.4f   change ahead in %d of %d pairs, %d ties\n", cm / pm, wins, pairs, ties
      gain = (wins >= 0.9 * pairs && ahead > iqr)
      rule = pairs < 10 ? "needs ten pairs" : gain ? "HOLDS" : "does not hold"
      limit = (pm != 0 && -ahead / pm > bound[name]) ? "EXCEEDED" : "within"
      printf "  gain rule (>= 9/10 pairs and medians apart by more than the parent IQR): %s\n", rule
      printf "  regression bound %.0f%%: %s\n", 100 * bound[name], limit
      # The JSON record: a metric with a missing run gets null statistics.
      runs["parent"] = runs["change"] = ""; miss = 0
      for (p = 1; p <= pairs; p++) {
        if (P[p] == "nan" || C[p] == "nan") miss++
        runs["parent"] = runs["parent"] (p > 1 ? ", " : "") (P[p] == "nan" ? "null" : P[p])
        runs["change"] = runs["change"] (p > 1 ? ", " : "") (C[p] == "nan" ? "null" : C[p])
      }
      printf "%s    \"%s\": {\"better\": \"%s\", \"bound\": %s,", (k > 1 ? ",\n" : ""), name, better[name], bound[name] > json
      printf " \"parent_runs\": [%s], \"change_runs\": [%s],", runs["parent"], runs["change"] > json
      printf " \"parent_median\": %s, \"parent_q1\": %s, \"parent_q3\": %s,", num(pm), num(q(sp, pairs, .25)), num(q(sp, pairs, .75)) > json
      printf " \"change_median\": %s, \"change_q1\": %s, \"change_q3\": %s,", num(cm), num(q(sc, pairs, .25)), num(q(sc, pairs, .75)) > json
      printf " \"wins\": %d, \"ties\": %d, \"gain_rule\": \"%s\", \"regression_bound\": \"%s\"}", wins, ties, rule, limit > json
    }
    printf "\n  },\n  \"all_runs_correct\": %s\n}", (bad ? "false" : "true") > json
    if (bad) { printf "\n%d run(s) not correct or with failed operations\n", bad; exit 1 }
    printf "\nevery run correct, failed_ops_share 0\n"
  }' <(echo "$METRICS") "$RUNS" || status=$?

# Append the verdict to the change tree's record of this workload.
describe() { git -C "$1" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown; }
record="$(
  printf '{\n  "workload": "%s",\n  "parent": "%s",\n  "change": "%s",\n' "$WORKLOAD" "$(describe "$PARENT")" "$(describe "$CHANGE")"
  printf '  "host": "%s",\n' "$(sed 's/\\/\\\\/g; s/"/\\"/g' <<<"$HOST")"
  printf '  "date": "%s",\n  "pairs": %d,\n  "seconds": %s,\n  "seed": %s,\n  "metrics": {\n' "$(date -u +%FT%TZ)" "$PAIRS" "$SECONDS_PER_RUN" "$SEED"
  cat "$VERDICT"
)"
BENCH_FILE="$CHANGE/BENCH_$WORKLOAD.json"
if [ -s "$BENCH_FILE" ]; then
  sed -i '$ d' "$BENCH_FILE"         # the closing bracket
  sed -i '$ s/}$/},/' "$BENCH_FILE" # the last record gets a successor
  printf '%s\n]\n' "$record" >>"$BENCH_FILE"
else
  printf '[\n%s\n]\n' "$record" >"$BENCH_FILE"
fi
echo "verdict appended to $BENCH_FILE"
exit "$status"
