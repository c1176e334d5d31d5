#!/usr/bin/env sh
# Chaos harness: run the same seeded load twice — once against a fault-free
# oracle server and once against a server injecting hidden-fetch faults —
# and gate on graceful degradation:
#
#   * zero wrong decisions: every cookie the chaos run marks useful is also
#     marked by the oracle (faults may defer marks, never invent them);
#   * zero panics in either server log;
#   * the chaos run still ends clean (no 5xx, no transport errors, and the
#     server/client verdict counters agree);
#   * faults actually fired (deferred probes observed), so the gate is not
#     vacuously green.
#
# Usage: scripts/chaos.sh [requests] [threads] [seed] [rate]
#   SMOKE=1 scripts/chaos.sh    # tiny CI profile (~5s): 2k requests,
#                               # report goes to /tmp, repo untouched
set -eu

cd "$(dirname "$0")/.."

REQUESTS="${1:-20000}"
THREADS="${2:-4}"
SEED="${3:-7}"
RATE="${4:-0.1}"
OUT="BENCH_chaos.json"
if [ "${SMOKE:-0}" = "1" ]; then
    REQUESTS=2000
    OUT="$(mktemp /tmp/bench_chaos.XXXXXX.json)"
fi

export CARGO_NET_OFFLINE=true
cargo build --release --quiet
BIN=target/release/cookiepicker

ORACLE_LOG="$(mktemp /tmp/cp_chaos_oracle.XXXXXX.log)"
CHAOS_LOG="$(mktemp /tmp/cp_chaos_faulty.XXXXXX.log)"
ORACLE_MARKS="$(mktemp /tmp/cp_chaos_oracle_marks.XXXXXX.txt)"
CHAOS_MARKS="$(mktemp /tmp/cp_chaos_faulty_marks.XXXXXX.txt)"
ORACLE_OUT="$(mktemp /tmp/cp_chaos_oracle_report.XXXXXX.json)"

: >"$ORACLE_LOG"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" >"$ORACLE_LOG" &
ORACLE_PID=$!
: >"$CHAOS_LOG"
"$BIN" serve --port 0 --seed "$SEED" --workers "$THREADS" \
    --chaos-rate "$RATE" >"$CHAOS_LOG" &
CHAOS_PID=$!
trap 'kill "$ORACLE_PID" "$CHAOS_PID" 2>/dev/null || true' EXIT INT TERM

# Both banners print (and flush) the bound address; poll for them.
port_of() {
    sed -n 's/.*listening on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' "$1"
}
ORACLE_PORT=""
CHAOS_PORT=""
for _ in $(seq 1 50); do
    ORACLE_PORT="$(port_of "$ORACLE_LOG")"
    CHAOS_PORT="$(port_of "$CHAOS_LOG")"
    [ -n "$ORACLE_PORT" ] && [ -n "$CHAOS_PORT" ] && break
    sleep 0.1
done
[ -n "$ORACLE_PORT" ] || { echo "chaos: oracle server did not start"; cat "$ORACLE_LOG"; exit 1; }
[ -n "$CHAOS_PORT" ] || { echo "chaos: chaos server did not start"; cat "$CHAOS_LOG"; exit 1; }

# Identical seeded load against both servers. The oracle run defines the
# reference mark set; the chaos run must never exceed it.
"$BIN" loadgen --port "$ORACLE_PORT" --threads "$THREADS" --requests "$REQUESTS" \
    --seed "$SEED" --out "$ORACLE_OUT" --marks-out "$ORACLE_MARKS"
"$BIN" loadgen --port "$CHAOS_PORT" --threads "$THREADS" --requests "$REQUESTS" \
    --seed "$SEED" --out "$OUT" --marks-out "$CHAOS_MARKS"

stop_server() {
    if command -v nc >/dev/null 2>&1; then
        printf 'POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' \
            | nc 127.0.0.1 "$1" >/dev/null 2>&1 || true
        wait "$2" 2>/dev/null || true
    else
        kill "$2" 2>/dev/null || true
        wait "$2" 2>/dev/null || true
    fi
}
stop_server "$ORACLE_PORT" "$ORACLE_PID"
stop_server "$CHAOS_PORT" "$CHAOS_PID"
trap - EXIT INT TERM

FAIL=0

# Gate 1: zero wrong decisions. Marks files are sorted and deduped by the
# load generator, so comm(1) applies directly: lines only in the chaos set
# are marks the oracle never made.
INVENTED="$(comm -23 "$CHAOS_MARKS" "$ORACLE_MARKS")"
if [ -n "$INVENTED" ]; then
    echo "chaos: faulted run invented marks the oracle never made:"
    echo "$INVENTED"
    FAIL=1
fi

# Gate 2: zero panics in either server log.
if grep -q "panicked" "$ORACLE_LOG" "$CHAOS_LOG"; then
    echo "chaos: server panicked:"
    grep "panicked" "$ORACLE_LOG" "$CHAOS_LOG"
    FAIL=1
fi

# Gate 3: the chaos run still ends clean at the transport and accounting
# level — degradation means deferring probes, not erroring requests.
for KEY in '"status_5xx": 0' '"transport_errors": 0' '"counters_match": true'; do
    grep -q "$KEY" "$OUT" || { echo "chaos: report missing $KEY"; FAIL=1; }
done

# Gate 4: the fault plan actually fired — a run that never deferred a probe
# proves nothing about degradation.
if grep -q '"deferred_probes": 0' "$OUT"; then
    echo "chaos: no probes were deferred — fault injection did not engage"
    FAIL=1
fi

[ "$FAIL" = "0" ] || { echo "chaos: FAILED"; cat "$OUT"; exit 1; }

ORACLE_N="$(wc -l <"$ORACLE_MARKS" | tr -d ' ')"
CHAOS_N="$(wc -l <"$CHAOS_MARKS" | tr -d ' ')"
echo "chaos: ${CHAOS_N}/${ORACLE_N} oracle marks reached under rate ${RATE}, none invented"
echo "chaos: report written to $OUT"
