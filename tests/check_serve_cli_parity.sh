#!/usr/bin/env bash
# CLI parity: `pgl_serve submit` through a live daemon and a direct
# `pgl_layout` run, given the same layout flags, must write the same .lay
# bytes, and the daemon must then shut down with exit status 0. The seed
# is above 2^53, so it only survives the wire if JSON integers are exact.
#
# Usage: check_serve_cli_parity.sh PGL_SERVE PGL_LAYOUT GRAPH.gfa
set -euo pipefail

serve=$1
layout=$2
gfa=$3
work=$(mktemp -d)
pid=""
cleanup() {
    if [[ -n "${pid}" ]] && kill -0 "${pid}" 2>/dev/null; then
        kill "${pid}"
        wait "${pid}" || true
    fi
    rm -rf "${work}"
}
trap cleanup EXIT

flags=(--seed 18446744073709551557 --iters 3 --partition
       --component-workers 2 --multilevel=2 --refine-iters 2)

"${serve}" serve --socket "${work}/d.sock" --cache-dir "${work}/cache" \
    --workers 1 2> "${work}/daemon.err" &
pid=$!
for _ in $(seq 250); do
    [[ -S "${work}/d.sock" ]] && break
    sleep 0.02
done
if [[ ! -S "${work}/d.sock" ]]; then
    echo "daemon did not start:" >&2
    cat "${work}/daemon.err" >&2
    exit 1
fi

"${serve}" submit --socket "${work}/d.sock" --graph "${gfa}" "${flags[@]}" \
    --wait -o "${work}/serve.lay"
"${layout}" -i "${gfa}" -o "${work}/cli.lay" "${flags[@]}" 2> /dev/null
cmp "${work}/serve.lay" "${work}/cli.lay"
echo "pgl_serve submit and pgl_layout wrote identical bytes"

"${serve}" shutdown --socket "${work}/d.sock" > /dev/null
status=0
wait "${pid}" || status=$?
pid=""
if (( status != 0 )); then
    echo "daemon exited with status ${status}" >&2
    exit 1
fi
echo "daemon exited 0"
