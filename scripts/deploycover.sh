#!/bin/sh
# Deployment coverage gate: which statements of the program do the runs the
# project stands on reach? Builds the commands, the benchmark and the examples
# with coverage over every package of the module, runs each of them (smbench
# -list, smbench -fig all -scale quick with every export flag and its torture
# sweep gated violation-free, every smctl subcommand with the profiler on and a
# fault spec naming every DSL clause, the four examples, each bench workload
# untraced and traced at seed 1), merges the counters and prints per-package
# statement coverage.
#
# Then it compares every non-test function under internal/ that no run
# entered (0.0%) with scripts/unreached.txt, one line per function: its file,
# its name as `go tool cover -func` prints it, and the reason it stays. It
# fails when the two differ in either direction: a function no run enters goes
# or is listed, and an entry a run now enters is stale (DESIGN §4 "Entry
# points").
#
# A function with no statements has no coverage counter, so `go tool cover
# -func` prints 0.0% for it however often it runs. The binaries are therefore
# built from a copy of the tree in which every statement-free body under
# internal/ holds one no-op statement, `_ = 0`: a call to it is counted as one,
# and one nothing calls stays at 0.0%.
#
# Everything is copied, built and written under a temporary directory; nothing
# in the repository changes. The bench passes run with -seconds 1: the simulated
# horizon scales with it, so what they enter is fixed. `make check` runs it;
# `make deploy-cover` runs it alone.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
src="$tmp/src"
bin="$tmp/bin"
out="$tmp/out"
export GOCOVERDIR="$tmp/cov"
mkdir -p "$src" "$bin" "$out" "$GOCOVERDIR"

echo "== copying the tree into $src, a no-op statement in every statement-free body under internal/"
git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$src"
# A gofmt'd body is statement-free when it is "{}" on its func line, or when
# only blank and comment lines stand between a func line's "{" and its "}".
find "$src/internal" -name '*.go' ! -name '*_test.go' | while IFS= read -r f; do
	awk '
		/^func .* \{\}$/ { sub(/ \{\}$/, " { _ = 0 }"); print; next }
		/^func .*\{$/ { body = 1; empty = 1; print; next }
		body && /^}$/ { print (empty ? "_ = 0 }" : "}"); body = 0; next }
		body && !/^[ \t]*(\/\/.*)?$/ { empty = 0 }
		{ print }
	' "$f" >"$f.tmp"
	mv "$f.tmp" "$f"
done

echo "== building with -cover into $bin"
for p in ./cmd/smbench ./cmd/smctl ./bench ./examples/geodist ./examples/kvstore ./examples/queue ./examples/quickstart; do
	(cd "$src" && go build -cover -coverpkg=shardmanager/... -o "$bin/$(basename "$p")" "$p")
done

run() {
	echo "== $*"
	"$@" >/dev/null
}

run "$bin/smbench" -list
run "$bin/smbench" -fig all -scale quick -fail-on-bugs -trace "$out/t.json" -trace-text "$out/t.txt" \
	-metrics-out "$out/m.prom" -expo prom -prof-out "$out/p.txt" -prof-json "$out/p.json" \
	-prof-folded "$out/p.folded"
run "$bin/smbench" -fig all -scale quick -metrics-out "$out/m.json" -expo json -prof-out "$out/pw.txt" -prof-wall
run "$bin/smbench" -fig all -scale quick -metrics-out "$out/m.csv" -expo csv
run "$bin/smctl" -trace "$out/smctl.json" -trace-text "$out/smctl.txt"
run "$bin/smctl" status -prof
run "$bin/smctl" status -scenario geofailover
run "$bin/smctl" faults
run "$bin/smctl" faults -spec "t=60s crash(rack:region-a/dc0/rack00) for 1m; t=3m crash(dc:region-b/dc0) for 1m; t=5m latency(region-a|region-c, +50ms) for 1m"
run "$bin/smctl" audit -seed 5
for e in geodist kvstore queue quickstart; do
	run "$bin/$e"
done
for w in geo_failover rolling_upgrade steady_serving lb_churn; do
	for tr in 0 1; do
		run "$bin/bench" -workload "$w" -seed 1 -seconds 1 -trace "$tr" -out "$out"
	done
done

echo "== statement coverage per package"
go tool covdata percent -i="$GOCOVERDIR" | sed 's|^[[:space:]]*shardmanager/||' | sort
echo "== non-test functions under internal/ that no run entered, against scripts/unreached.txt"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$tmp/profile.txt"
go tool cover -func="$tmp/profile.txt" |
	awk '$NF == "0.0%" && $1 ~ /^shardmanager\/internal\// { sub(/^shardmanager\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	sort >"$tmp/unreached"
grep -v '^#' scripts/unreached.txt | awk 'NF' >"$tmp/listed"
if awk 'NF < 3' "$tmp/listed" | grep .; then
	echo "scripts/unreached.txt: the entries above give no reason" >&2
	exit 1
fi
awk '{ print $1, $2 }' "$tmp/listed" | sort >"$tmp/keys"
new="$(comm -23 "$tmp/unreached" "$tmp/keys")"
stale="$(comm -13 "$tmp/unreached" "$tmp/keys")"
if [ -n "$new$stale" ]; then
	[ -z "$new" ] || printf 'no run enters these; delete them or list them with a reason in scripts/unreached.txt:\n%s\n' "$new" >&2
	[ -z "$stale" ] || printf 'a run enters these now (or they are gone); drop their scripts/unreached.txt entries:\n%s\n' "$stale" >&2
	exit 1
fi
echo "$(wc -l <"$tmp/keys") functions no run enters, each listed with its reason"
