#!/usr/bin/env bash
# Sweep a harness bench over the --threads x --queue axes and collect
# every BENCH_*.json into one directory (each point gets its own file via
# --out=, since every run of one bench would otherwise overwrite the same
# BENCH_<name>.json). The collected artifacts are schema-validated with
# compare_bench.py before the script reports success.
#
#   bench/sweep.sh [-b BENCH] [-t "1 2 4"] [-q "name1;name2"] [-o DIR] \
#                  [-- extra harness flags, e.g. --short]
#
#   -b BENCH    bench binary name (default: bench_server)
#   -t LIST     space-separated thread counts (default: "1 2 4")
#   -q LIST     semicolon-separated registry queue names (they contain
#               commas); passed as --queue=, which bench_server consumes.
#               Empty string = no queue axis (for benches without one).
#   -o DIR      output directory (default: sweep-out)
#
# Env: BUILD_DIR (default: build) locates the binaries.
#
# Example — the grid CI's bench-smoke gate does not cover:
#   bench/sweep.sh -t "1 2 4 8" \
#     -q "sharded(vyukov,4);sharded(segment-ebr,4);vyukov(perslot-seq)" \
#     -- --short
set -euo pipefail

BUILD_DIR=${BUILD_DIR:-build}
BENCH=bench_server
THREADS="1 2 4"
QUEUES="sharded(vyukov,4)"
OUT_DIR=sweep-out
EXTRA=()

# Print the whole header comment block (everything from line 2 to the
# first non-comment line), so the help text can never silently truncate
# again when the header grows.
usage() { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"; }

while [[ $# -gt 0 ]]; do
  case "$1" in
    -b) BENCH=$2; shift 2 ;;
    -t) THREADS=$2; shift 2 ;;
    -q) QUEUES=$2; shift 2 ;;
    -o) OUT_DIR=$2; shift 2 ;;
    --) shift; EXTRA=("$@"); break ;;
    -h|--help) usage; exit 0 ;;
    *) echo "sweep.sh: unknown argument '$1'" >&2; usage >&2; exit 1 ;;
  esac
done

here=$(cd "$(dirname "$0")" && pwd)
bin="$BUILD_DIR/$BENCH"
[[ -x $bin ]] || { echo "sweep.sh: no binary at $bin (set BUILD_DIR?)" >&2; exit 1; }
mkdir -p "$OUT_DIR"

IFS=';' read -r -a queue_list <<< "$QUEUES"
[[ ${#queue_list[@]} -gt 0 ]] || queue_list=("")

wrote=()
for q in "${queue_list[@]}"; do
  # Registry names carry (),, — slug them for the filename.
  slug=$(printf '%s' "$q" | sed 's/[^A-Za-z0-9._-]/_/g')
  for t in $THREADS; do
    out="$OUT_DIR/BENCH_${BENCH#bench_}__${slug:-default}__t${t}.json"
    args=(--threads="$t" --out="$out")
    [[ -n $q ]] && args+=(--queue="$q")
    echo "== $BENCH ${args[*]} ${EXTRA[*]:-}"
    "$bin" "${args[@]}" ${EXTRA[@]+"${EXTRA[@]}"} > /dev/null
    wrote+=("$out")
  done
done

python3 "$here/compare_bench.py" validate "${wrote[@]}"
echo "sweep.sh: ${#wrote[@]} artifacts in $OUT_DIR"
