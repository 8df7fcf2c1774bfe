#!/usr/bin/env bash
# Serve-smoke: end-to-end exercise of the pgl_serve daemon.
#
#   tools/ci/serve_smoke.sh BUILD_DIR [WORKDIR]
#
# What it proves:
#   * the daemon starts, answers ping, and survives a burst of concurrent
#     submits: one per registered backend plus one duplicate config
#   * every daemon artifact is byte-identical to a direct `pgl_layout` run
#     of the same (graph, config) — the determinism contract
#   * a repeat submit of an already-computed config answers "cached":true
#     without re-running the engine, also under another update kernel
#   * cancel reaches a queued job and reports state "cancelled"
#   * a GFA with segments but no paths completes and the daemon still
#     answers ping afterwards
#   * the shutdown command exits the daemon with status 0, removes the
#     socket file, and leaves no pgl_serve process behind
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 BUILD_DIR [WORKDIR]" >&2
    exit 2
fi

BUILD="$1"
WORKDIR="${2:-/tmp/pgl_serve_smoke}"
SOCK="${WORKDIR}/serve.sock"
CACHE="${WORKDIR}/cache"
SERVE="${BUILD}/pgl_serve"
PGL="${BUILD}/pgl_layout"

rm -rf "${WORKDIR}"
mkdir -p "${WORKDIR}"

"${BUILD}/whole_genome_layout" "${WORKDIR}" 3 0.0002 cpu-pipelined
GFA="${WORKDIR}/whole_genome.gfa"

"${SERVE}" serve --socket "${SOCK}" --cache-dir "${CACHE}" --workers 2 \
    > "${WORKDIR}/daemon.log" 2>&1 &
DAEMON_PID=$!

cleanup() {
    kill "${DAEMON_PID}" 2>/dev/null || true
    wait "${DAEMON_PID}" 2>/dev/null || true
}
trap cleanup EXIT

for _ in $(seq 1 100); do
    if "${SERVE}" ping --socket "${SOCK}" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
"${SERVE}" ping --socket "${SOCK}"

backends="$("${PGL}" --list-backends)"
test -n "${backends}"
echo "serve-smoke backends:" ${backends}

# --- concurrent burst: one job per backend + one duplicate config -------
# Every backend is deterministic for a fixed (seed, threads), so the
# byte-identity check below is exact.
first_backend="$(echo "${backends}" | head -n 1)"
pids=()
names=()
for backend in ${backends} "${first_backend}"; do
    out="${WORKDIR}/serve.${backend}.${#pids[@]}.lay"
    "${SERVE}" submit --socket "${SOCK}" --graph "${GFA}" \
        --backend "${backend}" --iters 3 --factor 0.5 \
        --wait -o "${out}" > "${WORKDIR}/submit.${#pids[@]}.json" &
    pids+=($!)
    names+=("${backend}")
done
n_backends=$(echo "${backends}" | wc -w)
echo "submitted ${#pids[@]} concurrent jobs (${n_backends} backends + 1)"
test "${#pids[@]}" -eq "$((n_backends + 1))"

fail=0
for i in "${!pids[@]}"; do
    if ! wait "${pids[$i]}"; then
        echo "job ${i} (${names[$i]}) failed:" >&2
        cat "${WORKDIR}/submit.${i}.json" >&2
        fail=1
    fi
done
test "${fail}" -eq 0

# --- byte identity vs direct pgl_layout runs ----------------------------
for backend in ${backends}; do
    "${PGL}" -i "${GFA}" -o "${WORKDIR}/direct.${backend}.lay" \
        --backend "${backend}" --iters 3 --factor 0.5 2>/dev/null
done
for i in "${!names[@]}"; do
    cmp "${WORKDIR}/serve.${names[$i]}.${i}.lay" \
        "${WORKDIR}/direct.${names[$i]}.lay"
done
echo "all ${#names[@]} daemon artifacts byte-identical to direct runs"

# --- cache hit on resubmit ----------------------------------------------
"${SERVE}" submit --socket "${SOCK}" --graph "${GFA}" \
    --backend "${first_backend}" --iters 3 --factor 0.5 --wait \
    > "${WORKDIR}/resubmit.json"
grep -q '"cached":true' "${WORKDIR}/resubmit.json"
echo "resubmit of ${first_backend} config served from cache"

# The update kernel is an execution row: every kernel writes the scalar
# bytes, so the same config under --kernel simd is the same artifact.
"${SERVE}" submit --socket "${SOCK}" --graph "${GFA}" \
    --backend "${first_backend}" --iters 3 --factor 0.5 --kernel simd \
    --wait > "${WORKDIR}/resubmit_simd.json"
grep -q '"cached":true' "${WORKDIR}/resubmit_simd.json"
echo "resubmit of ${first_backend} config with --kernel simd served from cache"

# --- a graph with no paths ----------------------------------------------
NOPATH="${WORKDIR}/nopath.gfa"
printf 'H\tVN:Z:1.0\nS\ts1\tACGT\nS\ts2\tTT\n' > "${NOPATH}"
"${SERVE}" submit --socket "${SOCK}" --graph "${NOPATH}" --wait \
    -o "${WORKDIR}/nopath.lay" > "${WORKDIR}/nopath.json"
test -s "${WORKDIR}/nopath.lay"
"${SERVE}" ping --socket "${SOCK}"
echo "pathless GFA completed; daemon still answers ping"

# --- cancel a queued job ------------------------------------------------
# Occupy both workers with long jobs, then queue a victim: the cancel is
# guaranteed to land before the victim starts running.
long1=$("${SERVE}" submit --socket "${SOCK}" --graph "${GFA}" \
    --backend cpu-pipelined --iters 2000 --seed 101 |
    python3 -c "import sys,json;print(json.load(sys.stdin)['id'])")
long2=$("${SERVE}" submit --socket "${SOCK}" --graph "${GFA}" \
    --backend cpu-pipelined --iters 2000 --seed 102 |
    python3 -c "import sys,json;print(json.load(sys.stdin)['id'])")
victim=$("${SERVE}" submit --socket "${SOCK}" --graph "${GFA}" \
    --backend cpu-pipelined --iters 2000 --seed 103 |
    python3 -c "import sys,json;print(json.load(sys.stdin)['id'])")
"${SERVE}" cancel --socket "${SOCK}" --id "${victim}" | grep -q '"ok":true'
"${SERVE}" request --socket "${SOCK}" \
    "{\"cmd\":\"result\",\"id\":${victim},\"wait\":true}" |
    grep -q '"state":"cancelled"'
echo "queued job ${victim} cancelled (long jobs ${long1}, ${long2} left to shutdown)"

"${SERVE}" stats --socket "${SOCK}"

# --- clean shutdown -----------------------------------------------------
# The two long jobs are still running; shutdown must cancel them
# cooperatively and still exit promptly with status 0.
"${SERVE}" shutdown --socket "${SOCK}" | grep -q '"ok":true'
wait "${DAEMON_PID}"
rc=$?
trap - EXIT
test "${rc}" -eq 0
if [ -e "${SOCK}" ]; then
    echo "socket file leaked: ${SOCK}" >&2
    exit 1
fi
if pgrep -x pgl_serve >/dev/null; then
    echo "leaked pgl_serve process:" >&2
    pgrep -ax pgl_serve >&2
    exit 1
fi
echo "daemon exited 0, socket removed, no leaked processes"
cat "${WORKDIR}/daemon.log"
echo "serve-smoke OK"
