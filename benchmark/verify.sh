#!/usr/bin/env bash
# Checks that the benchmark agrees with itself, the way its driver checks it.
#
# For every workload it makes two sets of RUNS untraced runs, run i of both
# sets on seed BASE+i, then one more set on seeds no earlier run used. From
# each set it takes, per end-to-end metric, the median and the distance
# between the quartiles as a share of the median (statistics.quantiles,
# n=4). It exits non-zero unless
#   - every spread except setup_s's is within the metric's bound,
#   - no median of set 2 or of the second-seed set is worse than set 1's by
#     more than the bound,
#   - on recover_replay, whose work is a fixed size, the numbers that are a
#     function of the seed alone (quality_pct, experiments_per_session) are
#     byte-equal between the two sets. (WAL bytes per observation are not
#     such a number: a journaled timestamp drops its trailing zeros, so a
#     record's length varies by a few bytes.)
# It prints the spread table the demotion rule is applied to: a metric whose
# spread does not stay within a third of its bound is a candidate to leave
# the gated list.
#
#   bash benchmark/verify.sh            # RUNS=10, about an hour
#   RUNS=5 SECONDS_PER_RUN=10 bash benchmark/verify.sh
set -euo pipefail

main() {
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"

runs="${RUNS:-10}"
base="${BASE_SEED:-1000}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json;print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
workloads="${WORKLOADS:-$(python3 -c 'import json;print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"
out="${RELM_BENCH_BUILD_DIR:-${CARGO_TARGET_DIR:-.bench_build}}/verify"
rm -rf "$out"
mkdir -p "$out"

run() { # set workload seed trace
	bash "$here/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" | tail -n 1 >>"$out/$1.$2.$4.jsonl"
}

for w in $workloads; do
	for set in 1 2; do
		for i in $(seq 1 "$runs"); do
			run "$set" "$w" $((base + i)) 0
		done
	done
	for i in $(seq 1 "$runs"); do
		run 3 "$w" $((base + 7919 + i)) 0
	done
	echo "verify: $w measured" >&2
done

python3 - "$out" "$runs" $workloads <<'PY'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
defs = {m["name"]: m for m in bench["end_to_end"]}
exact = ["quality_pct", "experiments_per_session"]

def load(set_, w):
    rows = []
    for line in open(f"{out}/{set_}.{w}.0.jsonl"):
        r = json.loads(line)
        assert r["correct"] and r["failed"] == 0, (w, r)
        rows.append(r)
    return rows

def values(rows, name):
    return [r["metrics"][name]["value"] for r in rows]

def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0
    q = statistics.quantiles(vals, n=4)
    return med, (q[2] - q[0]) / med

def worse(first, later, better):
    return (later - first) / first if better == "lower" else (first - later) / first

failed = []
print(f"{'workload':15} {'metric':26} {'bound':>6} {'median 1':>12} {'spread 1':>9} {'median 2':>12} {'spread 2':>9} {'2 vs 1':>8} {'seed2 vs 1':>10}  note")
for w in workloads:
    sets = {s: load(s, w) for s in (1, 2, 3)}
    for name, d in defs.items():
        (m1, s1), (m2, s2), (m3, s3) = (summary(values(sets[s], name)) for s in (1, 2, 3))
        d21, d31 = worse(m1, m2, d["better"]), worse(m1, m3, d["better"])
        notes = []
        if name != "setup_s":
            for s in (s1, s2, s3):
                if s > d["bound"]:
                    notes.append("SPREAD OVER BOUND")
                    break
            else:
                if max(s1, s2, s3) > d["bound"] / 3:
                    notes.append("over a third of bound")
        if d21 > d["bound"]:
            notes.append("SET 2 WORSE")
        if d31 > d["bound"]:
            notes.append("SECOND SEEDS WORSE")
        if any(n.isupper() for n in notes):
            failed.append((w, name, notes))
        print(f"{w:15} {name:26} {d['bound']:6.2f} {m1:12.4f} {s1:9.2%} {m2:12.4f} {s2:9.2%} {d21:+8.2%} {d31:+10.2%}  {', '.join(notes)}")
    if w == "recover_replay":
        for name in exact:
            for ra, rb in zip(sets[1], sets[2]):
                va, vb = json.dumps(ra["metrics"][name]["value"]), json.dumps(rb["metrics"][name]["value"])
                if va != vb:
                    failed.append((w, name, [f"not byte-equal for equal seeds: {va} vs {vb}"]))
        print(f"{w:15} exact-repeat metrics compared over {runs} equal-seed pairs")
if failed:
    for f in failed:
        print("FAIL", *f, file=sys.stderr)
    sys.exit(1)
print("verify: every end-to-end metric agrees with itself within its bound")
PY
}

# The whole script is parsed before any of it runs, so editing this file
# during the hour it takes cannot derail it.
main "$@"
