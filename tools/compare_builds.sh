#!/usr/bin/env bash
# Byte-identity check between two builds of this repository.
#
#   tools/compare_builds.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a cmake build directory holding tools/espsim and
# tools/espreport. The script runs the seed-7 audited 4-FTL Varmail sweep
# (journal, health and forensics streams) with both builds, plus the same
# sweep with the health stream alone and with the forensics stream alone
# (the lean facade: no journal, auditor or per-op latency detail), cmp's
# the 20 streams pairwise, compares the audited sweep's run-manifest cells
# (seeds, RNG state and sidecar counts; wall time and worker dropped), and
# diffs each build's per-cause WAF table and p99 blame table against the
# committed goldens in tools/golden/. It exits non-zero on the first difference and names
# the file that differs. A change that claims simulation byte-identity
# must pass it.
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

manifest_cells() {  # manifest.json -> its cells minus host-side fields
  python3 -c 'import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
for cell in cells:
    del cell["wall_seconds"], cell["worker"]
print(json.dumps(cells))' "$1"
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

run_sweep "$parent" "$work/parent"
run_sweep "$change" "$work/change"
for kind in j h f o l; do
  for ftl in "${ftls[@]}"; do
    name="$kind.espsim-Varmail-$ftl.jsonl"
    if ! cmp "$work/parent/$name" "$work/change/$name"; then
      echo "DIFFERS: $name" >&2
      exit 1
    fi
  done
done
if [[ "$(manifest_cells "$work/parent/manifest.json")" != \
      "$(manifest_cells "$work/change/manifest.json")" ]]; then
  echo "DIFFERS: manifest.json cells" >&2
  exit 1
fi
check_goldens "$parent" "$work/parent"
check_goldens "$change" "$work/change"
echo "identical: 20 streams cmp-equal, manifest cells equal, WAF and" \
  "blame tables match tools/golden/"
