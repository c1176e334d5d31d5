#!/usr/bin/env sh
# Service benchmark: start cp-serve, drive it with the seeded load
# generator over real TCP, and record the baseline report (throughput +
# p50/p95/p99 + verdict cross-check) to BENCH_serve.json.
#
# Usage: scripts/bench_serve.sh [requests] [threads] [seed] [connections]
#   SMOKE=1 scripts/bench_serve.sh    # tiny CI profile (~5s): 2k requests,
#                                     # report goes to /tmp, repo untouched
set -eu

cd "$(dirname "$0")/.."

REQUESTS="${1:-100000}"
THREADS="${2:-4}"
SEED="${3:-7}"
CONNECTIONS="${4:-16}"
OUT="BENCH_serve.json"
if [ "${SMOKE:-0}" = "1" ]; then
    REQUESTS=2000
    OUT="$(mktemp /tmp/bench_serve.XXXXXX.json)"
fi

# In the full profile the loadgen overwrites the committed report, so
# capture the previous throughput first — it becomes the regression
# baseline checked after the run.
PREV_RPS=""
if [ "$OUT" = "BENCH_serve.json" ] && [ -f "$OUT" ]; then
    PREV_RPS="$(sed -n 's/.*"throughput_rps": \([0-9.]*\).*/\1/p' "$OUT")"
fi

export CARGO_NET_OFFLINE=true
cargo build --release --quiet
BIN=target/release/cookiepicker

SERVE_LOG="$(mktemp /tmp/cp_serve.XXXXXX.log)"
: >"$SERVE_LOG"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" >"$SERVE_LOG" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT INT TERM

# The serve banner prints (and flushes) the bound address; poll for it.
PORT=""
for _ in $(seq 1 50); do
    PORT="$(sed -n 's/.*listening on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' "$SERVE_LOG")"
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "bench_serve: server did not start"; cat "$SERVE_LOG"; exit 1; }

"$BIN" loadgen --port "$PORT" --threads "$THREADS" --connections "$CONNECTIONS" \
    --requests "$REQUESTS" --seed "$SEED" --out "$OUT"

# Graceful stop when nc is available: the shutdown endpoint drains
# in-flight work and the serve process exits on its own. Otherwise the
# report is already written, so a plain kill is fine.
if command -v nc >/dev/null 2>&1; then
    printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' \
        | nc 127.0.0.1 "$PORT" >/dev/null 2>&1 || true
    wait "$SERVE_PID" 2>/dev/null || true
else
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
fi
trap - EXIT INT TERM

# The run is only a valid baseline if nothing 5xx'd and the server's
# verdict counters matched the client tally.
grep -q '"status_5xx": 0' "$OUT" || { echo "bench_serve: 5xx responses"; cat "$OUT"; exit 1; }
grep -q '"counters_match": true' "$OUT" || { echo "bench_serve: counter mismatch"; cat "$OUT"; exit 1; }

# Throughput must not fall off a cliff versus the committed report. The
# 0.8 factor absorbs machine-to-machine variance while still catching a
# real regression in the serve or detection path.
if [ -n "$PREV_RPS" ]; then
    NEW_RPS="$(sed -n 's/.*"throughput_rps": \([0-9.]*\).*/\1/p' "$OUT")"
    awk -v new="$NEW_RPS" -v old="$PREV_RPS" 'BEGIN {
        if (new + 0 < 0.8 * (old + 0)) {
            printf "bench_serve: throughput regressed: %s rps vs committed %s rps\n", new, old
            exit 1
        }
        printf "bench_serve: throughput %s rps (committed baseline %s rps)\n", new, old
    }'
fi

echo "bench_serve: report written to $OUT"
