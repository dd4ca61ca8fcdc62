#!/usr/bin/env bash
# Byte-identity check between two builds of this repository.
#
#   tools/compare_builds.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a cmake build directory holding tools/espsim,
# tools/espreport, bench/qos_isolation, bench/fig8_ftl_comparison,
# bench/table1_request_waf, bench/ext_lifetime_projection,
# bench/ablation_policy and bench/related_work_comparison. The script
# runs, with both builds:
#   * the seed-7 audited 4-FTL Varmail sweep (journal, health and
#     forensics streams), plus the same sweep with the health stream alone
#     and with the forensics stream alone (the lean facade: no journal,
#     auditor or per-op latency detail); it cmp's the 20 streams pairwise,
#     compares the audited sweep's run-manifest cells (seeds, RNG state and
#     sidecar counts; wall time and worker dropped), and diffs each build's
#     per-cause WAF table and p99 blame table against the committed
#     goldens in tools/golden/;
#   * one espsim run straight through and one checkpointed mid-window
#     (--snapshot-after): all four print the same summary;
#   * qos_isolation --quick --jobs 1 (`cells`), fig8_ftl_comparison
#     unsharded and at --shards 2 --jobs 1 (`benchmarks`, `summary`; the
#     sharded run covers the shard join), table1_request_waf (`benchmarks`,
#     `pass`) and ext_lifetime_projection --quick --geometry paper
#     (`curves`, `validation`, `end_of_life_legs`, with the wall-clock keys
#     dropped): those JSON payloads must be equal;
#   * ablation_policy (windows read straight off Driver::run) and
#     related_work_comparison: their stdout must be equal.
# It exits non-zero on the first difference and names the file that
# differs. A change that claims simulation byte-identity must pass it.
# Cost: about 20 s per build and 0.5 GB of temporary snapshots.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
golden="$(cd "$(dirname "$0")" && pwd)/golden"
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

bins=(tools/espsim tools/espreport bench/qos_isolation
      bench/fig8_ftl_comparison bench/table1_request_waf
      bench/ext_lifetime_projection bench/ablation_policy
      bench/related_work_comparison)
for build in "$parent" "$change"; do
  for bin in "${bins[@]}"; do
    if [[ ! -x "$build/$bin" ]]; then
      echo "MISSING: $build/$bin (build the targets ${bins[*]##*/})" >&2
      exit 2
    fi
  done
done

ftls=(cgmFTL fgmFTL subFTL sectorLogFTL)

run_sweep() {  # build-dir output-dir
  mkdir -p "$2"
  "$1/tools/espsim" --ftl cgm,fgm,sub,sectorlog --profile varmail \
    --requests 20000 --warmup 5000 --capacity-gib 0.5 --seed 7 --audit \
    --journal-out "$2/j.jsonl" --health-out "$2/h.jsonl" \
    --health-interval 0.5 --forensics-out "$2/f.jsonl" \
    --manifest-out "$2/manifest.json" > "$2/espsim.log"
  "$1/tools/espsim" --ftl cgm,fgm,sub,sectorlog --profile varmail \
    --requests 20000 --warmup 5000 --capacity-gib 0.5 --seed 7 \
    --health-out "$2/o.jsonl" --health-interval 0.5 > "$2/espsim-o.log"
  "$1/tools/espsim" --ftl cgm,fgm,sub,sectorlog --profile varmail \
    --requests 20000 --warmup 5000 --capacity-gib 0.5 --seed 7 \
    --forensics-out "$2/l.jsonl" > "$2/espsim-l.log"
}

run_summaries() {  # build-dir output-dir: straight and checkpointed runs
  local args=(--ftl sub --profile varmail --requests 20000 --warmup 5000
              --capacity-gib 0.5 --seed 7)
  "$1/tools/espsim" "${args[@]}" | grep -v '^snapshot :' \
    > "$2/summary.txt"
  "$1/tools/espsim" "${args[@]}" --snapshot-out "$2/mid.snap" \
    --snapshot-after 10000 | grep -v '^snapshot :' > "$2/summary-ck.txt"
}

run_benches() {  # build-dir output-dir
  "$1/bench/qos_isolation" --quick --jobs 1 --json "$2/qos.json" \
    > "$2/qos.log"
  "$1/bench/fig8_ftl_comparison" --json "$2/fig8.json" > "$2/fig8.log"
  "$1/bench/fig8_ftl_comparison" --shards 2 --jobs 1 \
    --json "$2/fig8-s2.json" > "$2/fig8-s2.log"
  "$1/bench/table1_request_waf" --json "$2/table1.json" > "$2/table1.log"
  "$1/bench/ext_lifetime_projection" --quick --geometry paper \
    --snapshot-dir "$2" --json "$2/lifetime.json" > "$2/lifetime.log"
  "$1/bench/ablation_policy" > "$2/ablation_policy.txt"
  "$1/bench/related_work_comparison" > "$2/related_work.txt"
}

payload() {  # json-file dropped-keys key... -> the keys' subtrees as JSON
  python3 - "$@" <<'EOF'
import json, sys
path, drop, keys = sys.argv[1], set(sys.argv[2].split(",")), sys.argv[3:]
def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if k not in drop}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v
doc = json.load(open(path))
print(json.dumps({k: strip(doc[k]) for k in keys}, sort_keys=True))
EOF
}

same_payload() {  # file dropped-keys key...
  local file="$1" a b
  shift
  a="$(payload "$work/parent/$file" "$@")"
  b="$(payload "$work/change/$file" "$@")"
  if [[ "$a" != "$b" ]]; then
    echo "DIFFERS: $file (${*:2})" >&2
    exit 1
  fi
}

check_goldens() {  # build-dir output-dir
  local streams=()
  for ftl in "${ftls[@]}"; do streams+=("$2/j.espsim-Varmail-$ftl.jsonl"); done
  "$1/tools/espreport" --waf-table "${streams[@]}" > "$2/waf_table.txt"
  streams=()
  for ftl in "${ftls[@]}"; do streams+=("$2/f.espsim-Varmail-$ftl.jsonl"); done
  "$1/tools/espreport" --blame-table "${streams[@]}" > "$2/blame_table.txt"
  for table in waf blame; do
    if ! diff -u "$golden/${table}_table_varmail_seed7.txt" \
        "$2/${table}_table.txt" > "$2/${table}.diff"; then
      cat "$2/${table}.diff" >&2
      echo "DIFFERS: $2/${table}_table.txt vs" \
        "$golden/${table}_table_varmail_seed7.txt" >&2
      exit 1
    fi
  done
}

for side in parent change; do
  build="$parent"
  [[ "$side" == change ]] && build="$change"
  run_sweep "$build" "$work/$side"
  run_summaries "$build" "$work/$side"
  run_benches "$build" "$work/$side"
done
for kind in j h f o l; do
  for ftl in "${ftls[@]}"; do
    name="$kind.espsim-Varmail-$ftl.jsonl"
    if ! cmp "$work/parent/$name" "$work/change/$name"; then
      echo "DIFFERS: $name" >&2
      exit 1
    fi
  done
done
same_payload manifest.json wall_seconds,worker cells
for summary in parent/summary-ck change/summary change/summary-ck; do
  if ! cmp "$work/parent/summary.txt" "$work/$summary.txt"; then
    echo "DIFFERS: $summary.txt (espsim summary)" >&2
    exit 1
  fi
done
same_payload qos.json "" cells
same_payload fig8.json "" benchmarks summary
same_payload fig8-s2.json "" benchmarks summary
for out in ablation_policy related_work; do
  if ! cmp "$work/parent/$out.txt" "$work/change/$out.txt"; then
    echo "DIFFERS: $out.txt (stdout)" >&2
    exit 1
  fi
done
same_payload table1.json "" benchmarks pass
same_payload lifetime.json wall_seconds,seconds_per_pe,speedup,projected_full_fidelity_hours,min_speedup,speedup_pass \
  curves validation end_of_life_legs
check_goldens "$parent" "$work/parent"
check_goldens "$change" "$work/change"
echo "identical: 20 streams cmp-equal, manifest cells equal, espsim" \
  "summaries equal with and without a checkpoint," \
  "qos/fig8/fig8-shards2/table1/lifetime payloads equal," \
  "ablation_policy and related_work stdout equal," \
  "WAF and blame tables match tools/golden/"
