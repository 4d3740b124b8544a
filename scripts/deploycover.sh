#!/bin/sh
# Deployment coverage: which statements of the program do the runs the
# project stands on reach? Builds the commands, the benchmark and the examples
# with coverage over every package of the module, runs each of them (smbench
# -fig all -scale quick with every export flag, every smctl subcommand, the
# four examples, each bench workload untraced and traced at seed 1), merges
# the counters and prints per-package statement coverage, then every non-test
# function under internal/ that no run entered (0.0%). A function listed there
# is reached by tests alone: it goes, or it is on callers_test.go's onlyTests
# list with the behaviour it drives (DESIGN §4 "Entry points").
#
# Everything is built and written under a temporary directory; nothing in the
# repository changes. It takes minutes (the bench passes dominate), so `make
# check` does not run it. Run via `make deploy-cover`.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
out="$tmp/out"
export GOCOVERDIR="$tmp/cov"
mkdir -p "$bin" "$out" "$GOCOVERDIR"

echo "== building with -cover into $bin" >&2
for p in ./cmd/smbench ./cmd/smctl ./bench ./examples/geodist ./examples/kvstore ./examples/queue ./examples/quickstart; do
	go build -cover -coverpkg=shardmanager/... -o "$bin/$(basename "$p")" "$p"
done

run() {
	echo "== $*" >&2
	"$@" >/dev/null
}

run "$bin/smbench" -fig all -scale quick -trace "$out/t.json" -trace-text "$out/t.txt" \
	-metrics-out "$out/m.prom" -expo prom -prof-out "$out/p.txt" -prof-json "$out/p.json" \
	-prof-folded "$out/p.folded"
run "$bin/smbench" -fig all -scale quick -metrics-out "$out/m.json" -expo json
run "$bin/smbench" -fig all -scale quick -metrics-out "$out/m.csv" -expo csv
run "$bin/smctl" -trace "$out/smctl.json" -trace-text "$out/smctl.txt"
run "$bin/smctl" status
run "$bin/smctl" status -scenario geofailover
run "$bin/smctl" faults
run "$bin/smctl" audit -seed 5
for e in geodist kvstore queue quickstart; do
	run "$bin/$e"
done
for w in geo_failover rolling_upgrade steady_serving lb_churn; do
	for tr in 0 1; do
		run "$bin/bench" -workload "$w" -seed 1 -trace "$tr" -out "$out"
	done
done

echo "== statement coverage per package"
go tool covdata percent -i="$GOCOVERDIR" | sed 's|^[[:space:]]*shardmanager/||' | sort
echo "== non-test functions under internal/ that no run entered"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$tmp/profile.txt"
go tool cover -func="$tmp/profile.txt" | awk '$NF == "0.0%" && $1 ~ /^shardmanager\/internal\// { sub(/^shardmanager\//, "", $1); print $1, $2 }'
