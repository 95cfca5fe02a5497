#!/usr/bin/env bash
# Cluster end-to-end check: build relm-serve + relm-router, boot 3
# replicating backends + 1 promoting router, and drive the cluster the way
# an operator would:
#
#   phase 1  full create/suggest/observe/close lifecycle through the router
#   phase 1b Prometheus /metrics scrapes parse on a backend and the router,
#            merged /v1/metrics carries cluster stage digests, and one
#            proxied request's trace ID shows router-hop + backend-stage
#            spans in both /v1/traces rings
#   phase 2  kill -9 a live backend (no drain): the router must promote the
#            dead node's WAL replica on a follower and resume its sessions
#            under their original IDs — history intact, next suggestion
#            identical, zero manual intervention
#   phase 3  bit-exact drain hand-off onto the survivor, every hop of it in
#            the router's trace of the drain
#   phase 4  corrupt a sealed WAL segment on a scratch node: restart must
#            fail loudly ("corrupt"), never serve silently shortened data
#   phase 5  loadgen soak: replay scripts/scenarios/soak.json (~35s of
#            Poisson arrivals, all four backends) through a fresh router +
#            2-backend cluster with relm-loadgen; zero unexpected errors
#            and a p99 ceiling on every request stage. The JSON report
#            lands at $LOADGEN_OUT (default $WORK/LOAD.json) so CI can
#            upload it as an artifact.
#   phase 6  chaos soak: the same loadgen trace through a fresh 3-node
#            replicating cluster armed with the seeded fault schedule
#            scripts/scenarios/chaos_faults.json (injected journal errors,
#            latency, severed replication). The relm-chaos checker then
#            asserts the invariants over the artifacts: every acked write
#            recoverable from the WALs, WAL replay bit-exact, every
#            client-visible error retriable, fault accounting consistent
#            with the schedule, zero promotions.
#   phase 7  graceful degradation: a torn-write fault flips one chaos
#            node's WAL into the read-only degraded state; its writes turn
#            retriable 503, /healthz goes 503 with the reason, and the
#            router promotes its replica onto a follower — the degraded
#            node's sessions resume elsewhere.
#
# Every request goes through curl; any non-2xx (where a 2xx is expected) or
# mismatched session state fails the script.
#
# CI runs this in the cluster-e2e job; it also runs locally:
#
#   ./scripts/cluster_e2e.sh
#
# Env knobs:
#   CHAOS_ONLY=1         skip phases 1-5 (the nightly chaos job)
#   CHAOS_SEED=N         fault-schedule seed (default 1)
#   CHAOS_DETERMINISM=1  run the chaos soak twice with the same seed and
#                        demand identical fired-fault vectors
#   CHAOS_OUT=path       copy the invariant report JSON here
#
# Dependencies: go, curl, jq.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
HOST=127.0.0.1
PORT_A=18081
PORT_B=18082
PORT_C=18083
PORT_X=18084
PORT_R=18090
PORT_S1=18085
PORT_S2=18086
PORT_SR=18091
LOADGEN_OUT=${LOADGEN_OUT:-}
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "cluster-e2e: $*"; }

fail() {
    echo "cluster-e2e: FAIL: $*" >&2
    for f in "$WORK"/*.log; do
        [ -f "$f" ] || continue
        echo "--- tail $f ---" >&2
        tail -n 25 "$f" >&2
    done
    exit 1
}

# req METHOD URL [JSON_BODY] — runs curl, prints the response body, and
# leaves the HTTP status in $WORK/status (req is called from command
# substitutions, so a plain variable would die with the subshell).
req() {
    local method=$1 url=$2 body=${3:-}
    local args=(-sS -o "$WORK/resp.json" -w '%{http_code}' -X "$method")
    if [ -n "$body" ]; then
        args+=(-H 'Content-Type: application/json' -d "$body")
    fi
    curl "${args[@]}" "$url" >"$WORK/status" || fail "curl $method $url"
    cat "$WORK/resp.json"
}

# expect STATUS METHOD URL [JSON_BODY] — req + exact-status assertion.
expect() {
    local want=$1; shift
    local body status
    body=$(req "$@")
    status=$(cat "$WORK/status")
    [ "$status" = "$want" ] || fail "$1 $2 -> $status (want $want): $body"
    echo "$body"
}

# jqget JSON FILTER — extract with jq, fail on null.
jqget() {
    local out
    out=$(echo "$1" | jq -er "$2") || fail "jq $2 on: $1"
    echo "$out"
}

log "building relm-serve, relm-router, relm-loadgen, and relm-chaos"
mkdir -p "$WORK/bin"
(cd "$ROOT" && go build -o "$WORK/bin/relm-serve" ./cmd/relm-serve)
(cd "$ROOT" && go build -o "$WORK/bin/relm-router" ./cmd/relm-router)
(cd "$ROOT" && go build -o "$WORK/bin/relm-loadgen" ./cmd/relm-loadgen)
(cd "$ROOT" && go build -o "$WORK/bin/relm-chaos" ./cmd/relm-chaos)

if [ "${CHAOS_ONLY:-0}" != "1" ]; then

url_of() {
    case $1 in
    a) echo "http://$HOST:$PORT_A" ;;
    b) echo "http://$HOST:$PORT_B" ;;
    c) echo "http://$HOST:$PORT_C" ;;
    esac
}

# start_backend NAME PORT — (re)starts one replicating relm-serve node on
# its persistent data dir and records its PID in PID_<NAME>.
start_backend() {
    local name=$1 port=$2 peers=""
    for other in a b c; do
        [ "$other" = "$name" ] && continue
        peers+="${peers:+,}$other=$(url_of "$other")"
    done
    "$WORK/bin/relm-serve" -addr "$HOST:$port" -node-id "$name" \
        -advertise "http://$HOST:$port" -data-dir "$WORK/data-$name" \
        -wal-segment-bytes 4096 \
        -replicate-to "$peers" -replicate-every 100ms \
        -workers 1 >>"$WORK/serve-$name.log" 2>&1 &
    local pid=$!
    PIDS+=("$pid")
    eval "PID_$name=$pid"
}

# wait_healthy N — blocks until the router reports N healthy backends.
wait_healthy() {
    local want=$1
    for i in $(seq 1 120); do
        if [ "$(req GET "$R/v1/cluster" | jq -r '[.nodes[] | select(.healthy and (.draining | not))] | length')" = "$want" ]; then
            return
        fi
        [ "$i" = 120 ] && fail "router never saw $want healthy backends"
        sleep 0.25
    done
}

log "booting backends a (:$PORT_A), b (:$PORT_B), c (:$PORT_C) and the router (:$PORT_R)"
start_backend a "$PORT_A"
start_backend b "$PORT_B"
start_backend c "$PORT_C"
"$WORK/bin/relm-router" -addr "$HOST:$PORT_R" \
    -backends "a=http://$HOST:$PORT_A,b=http://$HOST:$PORT_B,c=http://$HOST:$PORT_C" \
    -check-interval 250ms -check-backoff-max 2s -fail-after 2 \
    -promote >"$WORK/router.log" 2>&1 &
PIDS+=($!)
R="http://$HOST:$PORT_R"

log "waiting for the router to see 3 healthy backends"
wait_healthy 3

# ---------------------------------------------------------------- phase 1
log "phase 1: full session lifecycle through the router"
CREATED=$(expect 201 POST "$R/v1/sessions" '{"backend":"bo","workload":"SVM","seed":11,"max_iterations":25}')
SID=$(jqget "$CREATED" .id)
NODE1=$(jqget "$CREATED" .node)
log "  session $SID created on node $NODE1"

for i in 1 2 3; do
    SUG=$(expect 200 POST "$R/v1/sessions/$SID/suggest")
    CFG=$(jqget "$SUG" .config)
    ST=$(expect 200 POST "$R/v1/sessions/$SID/observe" "{\"config\":$CFG,\"runtime_sec\":$((200 - i)).5}")
    EVALS=$(jqget "$ST" .evals)
    [ "$EVALS" = "$i" ] || fail "after observe $i: evals=$EVALS (state mismatch)"
    NODE=$(jqget "$ST" .node)
    [ "$NODE" = "$NODE1" ] || fail "session $SID drifted from node $NODE1 to $NODE"
done
HIST=$(expect 200 GET "$R/v1/sessions/$SID/history")
[ "$(echo "$HIST" | jq length)" = "3" ] || fail "history length != 3: $HIST"

# --------------------------------------------------------------- phase 1b
log "phase 1b: observability — Prometheus scrapes + trace propagation"
# Both exposition endpoints must emit parseable Prometheus text: every
# non-comment line is exactly "name{labels} value".
for target in "$(url_of "$NODE1")" "$R"; do
    PROM=$(expect 200 GET "$target/metrics")
    echo "$PROM" | awk '!/^#/ && NF > 0 && NF != 2 { bad = 1 } END { exit bad }' \
        || fail "unparseable Prometheus line from $target/metrics"
done
BPROM=$(req GET "$(url_of "$NODE1")/metrics")
echo "$BPROM" | grep -q '^relm_stage_latency_seconds_bucket{stage="service.suggest"' \
    || fail "backend scrape missing the service.suggest stage histogram"
echo "$BPROM" | grep -q '^relm_observations_total ' \
    || fail "backend scrape missing relm_observations_total"
RPROM=$(req GET "$R/metrics")
echo "$RPROM" | grep -q '^relm_router_backends_healthy ' \
    || fail "router scrape missing relm_router_backends_healthy"
echo "$RPROM" | grep -q '^relm_router_stage_latency_seconds_bucket{stage="router.proxy"' \
    || fail "router scrape missing the router.proxy stage histogram"

# The merged /v1/metrics carries cluster-wide stage digests.
MET=$(expect 200 GET "$R/v1/metrics")
[ "$(jqget "$MET" '.stages."service.suggest".count')" -ge 3 ] \
    || fail "merged metrics missing service.suggest stage digest: $MET"

# One proxied request = one trace ID across both hops: the router's ring
# shows the proxy span, the home backend's ring shows the handler stage.
TRACE=$(curl -sS -o /dev/null -D - -X POST "$R/v1/sessions/$SID/suggest" \
    | awk 'tolower($1) == "x-relm-trace:" { print $2 }' | tr -d '\r')
[ -n "$TRACE" ] || fail "router response carries no X-Relm-Trace header"
RTRACE=$(expect 200 GET "$R/v1/traces?id=$TRACE")
jqget "$RTRACE" '.traces[0].spans[] | select(.name == "proxy '"$NODE1"'")' >/dev/null \
    || fail "router trace $TRACE lacks the proxy hop span: $RTRACE"
BTRACE=$(expect 200 GET "$(url_of "$NODE1")/v1/traces?id=$TRACE")
jqget "$BTRACE" '.traces[0].spans[] | select(.name == "service.suggest")' >/dev/null \
    || fail "backend trace $TRACE lacks the service.suggest span: $BTRACE"
log "  trace $TRACE spans router-hop + backend-stage; /metrics scrapes parse on both tiers"

expect 204 DELETE "$R/v1/sessions/$SID" >/dev/null
expect 404 GET "$R/v1/sessions/$SID" >/dev/null
log "  lifecycle ok (create -> 3x suggest/observe -> history -> close)"

# ---------------------------------------------------------------- phase 2
log "phase 2: kill a live backend without draining; replica promotion must resume its sessions"
KILLED=$(expect 201 POST "$R/v1/sessions" '{"backend":"bo","workload":"PageRank","seed":21,"max_iterations":25}')
KSID=$(jqget "$KILLED" .id)
KNODE=$(jqget "$KILLED" .node)
for i in 1 2; do
    SUG=$(expect 200 POST "$R/v1/sessions/$KSID/suggest")
    CFG=$(jqget "$SUG" .config)
    expect 200 POST "$R/v1/sessions/$KSID/observe" "{\"config\":$CFG,\"runtime_sec\":$((180 + i))}" >/dev/null
done
HIST_PRE=$(expect 200 GET "$R/v1/sessions/$KSID/history")
# Leave a suggestion outstanding: the kill lands mid-protocol, and the
# successor must produce this exact configuration again.
SUG_PRE=$(jqget "$(expect 200 POST "$R/v1/sessions/$KSID/suggest")" .config)

sleep 1 # a few -replicate-every periods: let the WAL tail reach the follower
log "  session $KSID (evals=2, suggestion outstanding) homed on $KNODE; kill -9 $KNODE"
eval "KILL_PID=\$PID_$KNODE"
kill -9 "$KILL_PID"
wait "$KILL_PID" 2>/dev/null || true

log "  waiting for automatic promotion"
# Poll for last_promotion, not promotions_total: the counter ticks at the
# fence, but the report only lands once every session is re-created.
for i in $(seq 1 120); do
    PROMO_NODE=$(req GET "$R/v1/cluster" | jq -r '.last_promotion.node // empty')
    [ "$PROMO_NODE" = "$KNODE" ] && break
    [ "$i" = 120 ] && fail "router never promoted after $KNODE died"
    sleep 0.25
done
CLUSTER=$(req GET "$R/v1/cluster")
PROMO_NODE=$(jqget "$CLUSTER" .last_promotion.node)
PROMO_HOLDER=$(jqget "$CLUSTER" .last_promotion.holder)
[ "$PROMO_NODE" = "$KNODE" ] || fail "promotion report names $PROMO_NODE, want $KNODE"
[ "$(jqget "$CLUSTER" ".nodes[] | select(.name == \"$KNODE\") | .promoted")" = "true" ] \
    || fail "dead node $KNODE not marked promoted: $CLUSTER"
log "  replica of $KNODE promoted on $PROMO_HOLDER"

# The session answers under its original ID on a survivor, with its exact
# history and the exact next suggestion the dead node would have produced.
ST=$(expect 200 GET "$R/v1/sessions/$KSID")
NEWNODE=$(jqget "$ST" .node)
[ "$NEWNODE" != "$KNODE" ] || fail "session $KSID still reports the dead node"
[ "$(jqget "$ST" .evals)" = "2" ] || fail "session $KSID lost observations: evals=$(jqget "$ST" .evals), want 2"
HIST_POST=$(expect 200 GET "$R/v1/sessions/$KSID/history")
[ "$(echo "$HIST_PRE" | jq -S .)" = "$(echo "$HIST_POST" | jq -S .)" ] \
    || fail "history changed across fail-over: pre=$HIST_PRE post=$HIST_POST"
SUG_POST=$(jqget "$(expect 200 POST "$R/v1/sessions/$KSID/suggest")" .config)
[ "$(echo "$SUG_PRE" | jq -S .)" = "$(echo "$SUG_POST" | jq -S .)" ] \
    || fail "successor suggests $SUG_POST, dead node would have suggested $SUG_PRE"
log "  session $KSID resumed on $NEWNODE: history bit-identical, next suggestion identical"

# The cluster keeps serving: creates land on survivors, merged reads and
# replication counters cover the 2 live nodes.
for i in 1 2 3; do
    ST=$(expect 201 POST "$R/v1/sessions" "{\"backend\":\"bo\",\"workload\":\"WordCount\",\"seed\":$i}")
    [ "$(jqget "$ST" .node)" != "$KNODE" ] || fail "create after kill landed on dead $KNODE"
done
MET=$(expect 200 GET "$R/v1/metrics")
[ "$(jqget "$MET" .nodes)" = "2" ] || fail "metrics after kill merged $(jqget "$MET" .nodes) nodes, want 2"
[ "$(jqget "$MET" .totals.replica_promotions)" -ge 1 ] || fail "metrics missing replica_promotions: $MET"
[ "$(jqget "$MET" '.router.promotions_total')" -ge 1 ] || fail "router metrics missing promotions_total: $MET"
log "  cluster of 2 survivors serving; replication/promotion counters merged in /v1/metrics"
# Note: the killed node is NOT restarted. Its replica was promoted — a
# revived process would hold stale state (see README: wipe its data dir
# before rejoining).

# ---------------------------------------------------------------- phase 3
log "phase 3: bit-exact drain hand-off"
STATS='{"N":1,"MhMB":8192,"CPUAvg":0.62,"DiskAvg":0.18,"MiMB":310,"McMB":2400,"MsMB":180,"MuMB":420,"P":2,"H":0.85,"S":0.04,"HadFullGC":true,"CoresPerNode":8}'
CREATED=$(expect 201 POST "$R/v1/sessions" \
    "{\"backend\":\"gbo\",\"workload\":\"K-means\",\"seed\":3,\"max_iterations\":40,\"warm_start\":true,\"stats\":$STATS,\"default_runtime_sec\":240}")
SID=$(jqget "$CREATED" .id)
DHOME=$(jqget "$CREATED" .node)
# Whether the repository on $DHOME happened to match is not the point; the
# hand-over must carry the answer over unchanged.
WAS_WARM=$(echo "$CREATED" | jq -r '.warm_started == true') # jqget would fail on false
SUCC=""
for n in a b c; do
    [ "$n" = "$DHOME" ] && continue
    [ "$n" = "$KNODE" ] && continue
    SUCC=$n
done
log "  session $SID homed on $DHOME (warm_started=$WAS_WARM); draining it, successor should be $SUCC"

for i in 1 2 3 4; do
    SUG=$(expect 200 POST "$R/v1/sessions/$SID/suggest")
    CFG=$(jqget "$SUG" .config)
    expect 200 POST "$R/v1/sessions/$SID/observe" "{\"config\":$CFG,\"runtime_sec\":$((220 - 5 * i))}" >/dev/null
done
# Leave a suggestion outstanding: the drain interrupts mid-protocol.
PRE_SUG=$(expect 200 POST "$R/v1/sessions/$SID/suggest" | jq -cS .config)
PRE_HIST=$(expect 200 GET "$R/v1/sessions/$SID/history" | jq -cS .)

DSTATUS=$(curl -sS -o "$WORK/drain.json" -D "$WORK/drain.hdr" -w '%{http_code}' -X POST "$R/v1/cluster/drain/$DHOME") \
    || fail "curl POST $R/v1/cluster/drain/$DHOME"
DRAIN=$(cat "$WORK/drain.json")
[ "$DSTATUS" = 200 ] || fail "POST $R/v1/cluster/drain/$DHOME -> $DSTATUS (want 200): $DRAIN"
jqget "$DRAIN" ".reassigned[] | select(.id == \"$SID\")" >/dev/null \
    || fail "drain did not reassign $SID: $DRAIN"
# The control plane is as visible as the data path: the router's trace of
# the drain shows the /v1/drain hop on the leaving node and at least one
# proxy hop per handed-over session on the nodes that took them.
DTRACE=$(awk 'tolower($1) == "x-relm-trace:" { print $2 }' "$WORK/drain.hdr" | tr -d '\r')
[ -n "$DTRACE" ] || fail "drain response carries no X-Relm-Trace header"
RTRACE=$(expect 200 GET "$R/v1/traces?id=$DTRACE")
MOVED=$(echo "$DRAIN" | jq '.reassigned | length')
HOPS_OUT=$(echo "$RTRACE" | jq '[.traces[0].spans[] | select(.name == "proxy '"$DHOME"'")] | length')
HOPS_IN=$(echo "$RTRACE" | jq '[.traces[0].spans[] | select((.name | startswith("proxy ")) and .name != "proxy '"$DHOME"'")] | length')
[ "$HOPS_OUT" -ge 1 ] && [ "$HOPS_IN" -ge "$MOVED" ] \
    || fail "drain trace $DTRACE shows $HOPS_OUT hops to $DHOME and $HOPS_IN to its successors for $MOVED sessions: $RTRACE"
log "  drain trace $DTRACE: $HOPS_OUT hop(s) to $DHOME, $HOPS_IN to the successors of $MOVED session(s)"
RNODE=$(jqget "$DRAIN" ".reassigned[] | select(.id == \"$SID\") | .node")
RWARM=$(echo "$DRAIN" | jq -r ".reassigned[] | select(.id == \"$SID\") | .warm_started == true")
[ "$RNODE" = "$SUCC" ] || fail "session reassigned to $RNODE, want $SUCC"
[ "$RWARM" = "$WAS_WARM" ] || fail "reassigned[].warm_started=$RWARM, the session had warm_started=$WAS_WARM: $DRAIN"

ST=$(expect 200 GET "$R/v1/sessions/$SID")
[ "$(jqget "$ST" .node)" = "$SUCC" ] || fail "post-drain session served by $(jqget "$ST" .node), want $SUCC"
[ "$(jqget "$ST" .state)" = "active" ] || fail "post-drain session state $(jqget "$ST" .state), want active"
[ "$(jqget "$ST" .evals)" = "4" ] || fail "post-drain session has $(jqget "$ST" .evals) evals, want the 4 it was drained with: $ST"
[ "$(echo "$ST" | jq -r '.warm_started == true')" = "$WAS_WARM" ] || fail "post-drain warm_started changed (was $WAS_WARM): $ST"
POST_HIST=$(expect 200 GET "$R/v1/sessions/$SID/history" | jq -cS .)
[ "$POST_HIST" = "$PRE_HIST" ] || fail "history changed across the drain:\n pre: $PRE_HIST\npost: $POST_HIST"
POST_SUG=$(expect 200 POST "$R/v1/sessions/$SID/suggest" | jq -cS .config)
[ "$POST_SUG" = "$PRE_SUG" ] || fail "next suggestion changed across the drain: $POST_SUG, was $PRE_SUG"
log "  session $SID survived the drain of $DHOME on $SUCC: 4 evals, identical history and next suggestion"

# New sessions must land on the last live node only, and merged reads must
# exclude the draining node.
POST_DRAIN=$(expect 201 POST "$R/v1/sessions" '{"backend":"bo","workload":"PageRank","seed":5}')
[ "$(jqget "$POST_DRAIN" .node)" = "$SUCC" ] || fail "post-drain create landed on $(jqget "$POST_DRAIN" .node)"
MET=$(expect 200 GET "$R/v1/metrics")
[ "$(jqget "$MET" .nodes)" = "1" ] || fail "metrics after drain merged $(jqget "$MET" .nodes) nodes, want 1"

# ---------------------------------------------------------------- phase 4
log "phase 4: sealed-segment corruption fails a restart loudly"
"$WORK/bin/relm-serve" -addr "$HOST:$PORT_X" -node-id x \
    -data-dir "$WORK/data-x" -wal-segment-bytes 512 \
    -workers 1 >"$WORK/serve-x.log" 2>&1 &
XPID=$!
PIDS+=("$XPID")
X="http://$HOST:$PORT_X"
for i in $(seq 1 120); do
    [ "$(req GET "$X/healthz" | jq -r '.ok' 2>/dev/null)" = "true" ] && break
    [ "$i" = 120 ] && fail "scratch node never came up"
    sleep 0.25
done
for i in $(seq 1 8); do
    expect 201 POST "$X/v1/sessions" "{\"backend\":\"bo\",\"workload\":\"PageRank\",\"seed\":$i}" >/dev/null
done
kill -9 "$XPID"
wait "$XPID" 2>/dev/null || true
SEALED="$WORK/data-x/wal-000001.jsonl"
[ -f "$SEALED" ] || fail "scratch node never rolled a sealed segment"
printf 'x' | dd of="$SEALED" bs=1 count=1 conv=notrunc 2>/dev/null
if timeout 15 "$WORK/bin/relm-serve" -addr "$HOST:$PORT_X" -node-id x \
    -data-dir "$WORK/data-x" -wal-segment-bytes 512 \
    -workers 1 >"$WORK/serve-x-restart.log" 2>&1; then
    fail "restart over a corrupt sealed segment succeeded"
fi
grep -qi corrupt "$WORK/serve-x-restart.log" \
    || fail "corruption refusal did not say why: $(cat "$WORK/serve-x-restart.log")"
log "  corrupt sealed segment refused with: $(grep -i corrupt "$WORK/serve-x-restart.log" | head -1)"

# ---------------------------------------------------------------- phase 5
log "phase 5: loadgen soak — scripts/scenarios/soak.json through a fresh router + 2 backends"
# A fresh mini-cluster: the main one has a killed node and a draining node
# by now, which is exactly what a soak should not start from.
"$WORK/bin/relm-serve" -addr "$HOST:$PORT_S1" -node-id s1 -workers 4 \
    >"$WORK/serve-s1.log" 2>&1 &
PIDS+=($!)
"$WORK/bin/relm-serve" -addr "$HOST:$PORT_S2" -node-id s2 -workers 4 \
    >"$WORK/serve-s2.log" 2>&1 &
PIDS+=($!)
"$WORK/bin/relm-router" -addr "$HOST:$PORT_SR" \
    -backends "s1=http://$HOST:$PORT_S1,s2=http://$HOST:$PORT_S2" \
    -check-interval 250ms -fail-after 2 >"$WORK/router-soak.log" 2>&1 &
PIDS+=($!)
SR="http://$HOST:$PORT_SR"
for i in $(seq 1 120); do
    if [ "$(req GET "$SR/healthz" | jq -r '.healthy' 2>/dev/null)" = "2" ]; then break; fi
    [ "$i" = 120 ] && fail "soak router never saw 2 healthy backends"
    sleep 0.25
done

SOAK_REPORT=${LOADGEN_OUT:-$WORK/LOAD.json}
"$WORK/bin/relm-loadgen" -scenario "$ROOT/scripts/scenarios/soak.json" \
    -target "$SR" -trace "$WORK/soak.trace" -out "$SOAK_REPORT" \
    || fail "loadgen soak run failed"

SOAK_WALL=$(jq -r '.wall_sec' "$SOAK_REPORT")
[ "$(jq -r '.wall_sec >= 30' "$SOAK_REPORT")" = "true" ] \
    || fail "soak lasted only ${SOAK_WALL}s, want >= 30s"
[ "$(jq -r '.ops.errors' "$SOAK_REPORT")" = "0" ] \
    || fail "soak saw unexpected errors: $(jq -c '.errors' "$SOAK_REPORT")"
[ "$(jq -r '.sessions.completed == .sessions.total' "$SOAK_REPORT")" = "true" ] \
    || fail "soak sessions incomplete: $(jq -c '.sessions' "$SOAK_REPORT")"
# Generous p99 ceiling on every request stage (µs): this is a correctness
# tripwire for pathological slowdowns, not a perf benchmark.
P99_CEIL_US=${P99_CEIL_US:-500000}
BAD_STAGE=$(jq -r --argjson ceil "$P99_CEIL_US" \
    '[.stages | to_entries[] | select(.key != "sched.lag") | select(.value.p99_us > $ceil) | .key] | join(",")' \
    "$SOAK_REPORT")
[ -z "$BAD_STAGE" ] || fail "soak p99 over ${P99_CEIL_US}µs on stage(s) $BAD_STAGE: $(jq -c '.stages' "$SOAK_REPORT")"
log "  soak ok: $(jq -r '"\(.sessions.completed)/\(.sessions.total) sessions, \(.ops.total) ops, 0 errors in \(.wall_sec | floor)s (\(.ops_per_sec | floor) ops/sec)"' "$SOAK_REPORT")"
log "  report at $SOAK_REPORT"

fi # CHAOS_ONLY

# ---------------------------------------------------------------- phase 6
CHAOS_SEED=${CHAOS_SEED:-1}
PORT_C1=18093
PORT_C2=18094
PORT_C3=18095
PORT_CR=18096
CHAOS_PIDS=()

chaos_url() {
    case $1 in
    c1) echo "http://$HOST:$PORT_C1" ;;
    c2) echo "http://$HOST:$PORT_C2" ;;
    c3) echo "http://$HOST:$PORT_C3" ;;
    esac
}
CR="http://$HOST:$PORT_CR"

stop_chaos_cluster() {
    for pid in "${CHAOS_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    CHAOS_PIDS=()
}

# chaos_soak DIR — boot a fresh 3-node replicating cluster + promoting
# router, arm the seeded schedule on every process, run the soak trace
# with the ack log, capture the fault/cluster artifacts into DIR, and
# leave the cluster RUNNING (callers stop it after their extra phases).
chaos_soak() {
    local CW=$1
    mkdir -p "$CW"
    jq --argjson seed "$CHAOS_SEED" '.seed = $seed' \
        "$ROOT/scripts/scenarios/chaos_faults.json" >"$CW/faults.json"
    # The router only delays its proxy path: injected proxy *errors* would
    # surface as 404/502 walks, which the soak's retriable-only invariant
    # forbids by design (those paths are covered by the router unit tests).
    jq -n --argjson seed "$CHAOS_SEED" '{seed: $seed, rules: [
        {point: "router.proxy", action: "latency", arg: 5, count: 25, window: 150}
    ]}' >"$CW/router_faults.json"

    local name port peers other
    for name in c1 c2 c3; do
        peers=""
        for other in c1 c2 c3; do
            [ "$other" = "$name" ] && continue
            peers+="${peers:+,}$other=$(chaos_url "$other")"
        done
        case $name in c1) port=$PORT_C1 ;; c2) port=$PORT_C2 ;; c3) port=$PORT_C3 ;; esac
        "$WORK/bin/relm-serve" -addr "$HOST:$port" -node-id "$name" \
            -advertise "$(chaos_url "$name")" -data-dir "$CW/data-$name" \
            -fsync -wal-segment-bytes 8192 \
            -replicate-to "$peers" -replicate-every 100ms \
            -faults "$CW/faults.json" \
            -workers 4 >>"$CW/serve-$name.log" 2>&1 &
        CHAOS_PIDS+=($!)
        PIDS+=($!)
    done
    "$WORK/bin/relm-router" -addr "$HOST:$PORT_CR" \
        -backends "c1=$(chaos_url c1),c2=$(chaos_url c2),c3=$(chaos_url c3)" \
        -check-interval 250ms -check-backoff-max 2s -fail-after 2 \
        -promote -faults "$CW/router_faults.json" \
        >"$CW/router.log" 2>&1 &
    CHAOS_PIDS+=($!)
    PIDS+=($!)

    for i in $(seq 1 120); do
        if [ "$(req GET "$CR/v1/cluster" | jq -r '[.nodes[] | select(.healthy)] | length' 2>/dev/null)" = "3" ]; then break; fi
        [ "$i" = 120 ] && fail "chaos router never saw 3 healthy backends"
        sleep 0.25
    done

    # Errors are EXPECTED here (that is the point); the invariants gate on
    # the artifacts, not on a zero error count.
    "$WORK/bin/relm-loadgen" -scenario "$ROOT/scripts/scenarios/soak.json" \
        -target "$CR" -trace "$CW/soak.trace" -out "$CW/load.json" \
        -run-id "det$CHAOS_SEED" -ack-log "$CW/acks.jsonl" -quiet || true
    [ -s "$CW/load.json" ] || fail "chaos loadgen produced no report"

    for name in c1 c2 c3; do
        req GET "$(chaos_url "$name")/v1/faults" >"$CW/faults-$name.json"
    done
    req GET "$CR/v1/faults" >"$CW/faults-router.json"
    req GET "$CR/v1/cluster" >"$CW/cluster.json"

    [ "$(jq -r '.wall_sec >= 30' "$CW/load.json")" = "true" ] \
        || fail "chaos soak lasted only $(jq -r .wall_sec "$CW/load.json")s, want >= 30s"
    [ "$(jq -r '.sessions.completed > .sessions.total / 2' "$CW/load.json")" = "true" ] \
        || fail "chaos soak lost most sessions: $(jq -c '.sessions' "$CW/load.json")"
    local fired
    fired=$(jq -s '[.[].rules[]?.fired] | add // 0' "$CW"/faults-c?.json "$CW/faults-router.json")
    [ "$fired" -gt 0 ] || fail "chaos schedule armed but nothing fired"
    log "  chaos soak: $(jq -r '"\(.sessions.completed)/\(.sessions.total) sessions, \(.ops.total) ops, \(.ops.errors) injected-fault errors"' "$CW/load.json"), $fired faults fired"
}

log "phase 6: chaos soak under seeded fault schedule (seed $CHAOS_SEED)"
CW1="$WORK/chaos1"
chaos_soak "$CW1"

# ---------------------------------------------------------------- phase 7
log "phase 7: torn-write fault degrades a node's WAL; router promotes its replica"
C1="$(chaos_url c1)"
# Home a session on c1 directly so the promotion has something to resume.
DSESS=$(expect 201 POST "$C1/v1/sessions" '{"backend":"bo","workload":"SVM","seed":77,"max_iterations":25}')
DSID=$(jqget "$DSESS" .id)
DSUG=$(expect 200 POST "$C1/v1/sessions/$DSID/suggest")
DCFG=$(jqget "$DSUG" .config)
expect 200 POST "$C1/v1/sessions/$DSID/observe" "{\"config\":$DCFG,\"runtime_sec\":150}" >/dev/null
sleep 1 # a few -replicate-every periods: let the WAL tail reach the follower

expect 200 POST "$C1/v1/faults" '{"seed":2,"rules":[{"point":"store.write","action":"torn","count":1}]}' >/dev/null
# The next journaled write tears and degrades the WAL: retriable 503.
req POST "$C1/v1/sessions" '{"backend":"bo","workload":"SVM","seed":78}' >/dev/null
[ "$(cat "$WORK/status")" = "503" ] || fail "create on torn-WAL node -> $(cat "$WORK/status"), want 503"
HZ=$(req GET "$C1/healthz")
[ "$(cat "$WORK/status")" = "503" ] || fail "degraded node healthz -> $(cat "$WORK/status"), want 503"
[ -n "$(jqget "$HZ" .degraded)" ] || fail "degraded healthz carries no reason: $HZ"
MET=$(expect 200 GET "$C1/v1/metrics")
[ "$(jqget "$MET" .wal_degraded)" = "true" ] || fail "metrics on degraded node: $MET"
log "  c1 degraded (reason: $(jqget "$HZ" .degraded)); waiting for the router to promote"
for i in $(seq 1 120); do
    PROMO_NODE=$(req GET "$CR/v1/cluster" | jq -r '.last_promotion.node // empty')
    [ "$PROMO_NODE" = "c1" ] && break
    [ "$i" = 120 ] && fail "router never promoted degraded c1"
    sleep 0.25
done
[ "$(req GET "$CR/v1/cluster" | jq -r '.promotions_total')" = "1" ] \
    || fail "promotions_total != 1 after degrading one node"
DPOST=$(expect 200 GET "$CR/v1/sessions/$DSID")
[ "$(jqget "$DPOST" .node)" != "c1" ] || fail "session $DSID still reports degraded c1"
[ "$(jqget "$DPOST" .evals)" = "1" ] || fail "session $DSID lost its observation: $DPOST"
log "  session $DSID resumed on $(jqget "$DPOST" .node) with history intact"

stop_chaos_cluster

log "phase 6+7: invariant check over the chaos artifacts"
"$WORK/bin/relm-chaos" \
    -ack-log "$CW1/acks.jsonl" \
    -data-dirs "$CW1/data-c1,$CW1/data-c2,$CW1/data-c3" \
    -report "$CW1/load.json" \
    -faults "$CW1/faults-c1.json,$CW1/faults-c2.json,$CW1/faults-c3.json,$CW1/faults-router.json" \
    -cluster "$CW1/cluster.json" -expect-promotions 0 \
    -out "$CW1/invariants.json" || fail "chaos invariants violated (see $CW1/invariants.json)"
if [ -n "${CHAOS_OUT:-}" ]; then
    cp "$CW1/invariants.json" "$CHAOS_OUT"
    log "  invariant report copied to $CHAOS_OUT"
fi

# Negative self-test: the checker must not be vacuous. A fabricated ack
# for a never-closed session absent from every WAL has to fail the run.
cp "$CW1/acks.jsonl" "$CW1/acks-poisoned.jsonl"
printf '%s\n' \
    '{"op":"create","session":"lg-poison-000000"}' \
    '{"op":"observe","session":"lg-poison-000000","n":1}' >> "$CW1/acks-poisoned.jsonl"
if "$WORK/bin/relm-chaos" \
    -ack-log "$CW1/acks-poisoned.jsonl" \
    -data-dirs "$CW1/data-c1,$CW1/data-c2,$CW1/data-c3" \
    -out "$CW1/invariants-poisoned.json" >/dev/null 2>&1; then
    fail "checker self-test: fabricated lost ack was not flagged"
fi
log "  checker self-test: fabricated lost ack correctly flagged"

# --------------------------------------------------- determinism double-run
if [ "${CHAOS_DETERMINISM:-0}" = "1" ]; then
    log "determinism: re-running the chaos soak with seed $CHAOS_SEED"
    CW2="$WORK/chaos2"
    chaos_soak "$CW2"
    stop_chaos_cluster
    TRAVERSED=0
    for n in c1 c2 c3 router; do
        # Compare fired counts rule-by-rule, but only where the window was
        # fully traversed in BOTH runs — partially traversed windows are
        # legitimately timing-dependent.
        SAME=$(jq -s '[.[0].rules // [], .[1].rules // []] | transpose
            | map(select((.[0].hits >= ((.[0].after // 0) + .[0].window))
                     and (.[1].hits >= ((.[1].after // 0) + .[1].window))))
            | map(.[0].fired == .[1].fired) | all' \
            "$CW1/faults-$n.json" "$CW2/faults-$n.json")
        [ "$SAME" = "true" ] || fail "same seed, different injected-fault counts on $n: $(jq -c '.rules' "$CW1/faults-$n.json") vs $(jq -c '.rules' "$CW2/faults-$n.json")"
        COUNT=$(jq -s '[.[0].rules // [], .[1].rules // []] | transpose
            | map(select((.[0].hits >= ((.[0].after // 0) + .[0].window))
                     and (.[1].hits >= ((.[1].after // 0) + .[1].window)))) | length' \
            "$CW1/faults-$n.json" "$CW2/faults-$n.json")
        TRAVERSED=$((TRAVERSED + COUNT))
    done
    [ "$TRAVERSED" -gt 0 ] || fail "determinism check vacuous: no rule traversed its window in both runs"
    log "  determinism ok: $TRAVERSED fully-traversed rules fired identically across runs"
fi

log "PASS"
