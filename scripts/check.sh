#!/bin/sh
# Tier-1 verification: vet, build, and test (with the race detector) the
# whole module. Run via `make check` or directly.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt_out="$(gofmt -l .)"
if [ -n "$fmt_out" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$fmt_out" >&2
	exit 1
fi
echo "== by-name lookups off the request path"
# From Client.Do to the reply a request resolves no name: routing holds cells,
# shard numbers, peers and slots, and the fabric's handle forms take region
# numbers and *Peer. A by-name call creeping back in is a hash per request.
byname="$(grep -nE '\.Replicas\(|\.Lookup\(|net\.Region\(|fleet\.Latency\(|\.Send\(' \
	$(ls internal/routing/*.go | grep -v _test.go) || true)"
fabric="$(awk '/^func \(n \*Network\) (SendTo|ReplyAt|delayAt|lost)\(|^func env(Deliver|Timeout|Reply)\(/ {body=1}
	body && /fleet\.Latency\(|RegionIndex\(|n\.Peer\(|\.peers\[/ {print FILENAME ":" FNR ": " $0}
	/^}/ {body=0}' internal/rpcnet/rpcnet.go)"
# The server side too: an application's HandleRequest and the server's serve
# and handle find the shard by the number the request carries
# (Request.ShardNum), never by indexing a map with its name.
served="$(awk '/^func \([a-z]+ \*[A-Za-z]+\) HandleRequest\(/ {body=1}
	body && /\[req\.Shard\]/ {print FILENAME ":" FNR ": " $0}
	/^}/ {body=0}' $(ls internal/apps/*.go | grep -v _test.go))
$(awk '/^func \(s \*Server\) (serve|handle)\(/ {body=1}
	body && /\[req\.Shard\]/ {print FILENAME ":" FNR ": " $0}
	/^}/ {body=0}' internal/appserver/appserver.go)"
served="$(echo "$served" | grep . || true)"
if [ -n "$byname$fabric$served" ]; then
	echo "by-name lookup on the request path:" >&2
	echo "$byname$fabric$served" >&2
	exit 1
fi
echo "== no map per replica on the load path"
# A replica's load is a few numbers in the policy's metric order, from the
# report to the solver (DESIGN §6 "No aliasing"): appserver, apps and the
# orchestrator hold no Capacity map per shard or per replica. Maps stay at the
# configuration edge and in the one map a server hands its application.
loadmaps="$(ls internal/appserver/*.go internal/apps/*.go internal/orchestrator/*.go | grep -v _test.go |
	xargs awk '
	/^type [A-Za-z_][A-Za-z0-9_]* struct \{/ {typ = $2; next}
	/^}/ {typ = ""}
	/map\[shard\.ID\]topology\.Capacity/ {print FILENAME ":" FNR ": " $0; next}
	typ != "" && /^[\t ]+[A-Za-z_][A-Za-z0-9_, ]*[\t ]+[^\/]*topology\.Capacity/ {
		field = typ "." $1
		if (field != "Config.ServerCapacity" && field != "ShardConfig.DefaultLoad" && field != "Server.asked")
			print FILENAME ":" FNR ": " $0
	}')"
if [ -n "$loadmaps" ]; then
	echo "a Capacity held per shard or replica on the load path (hold a []float64 in the policy's order):" >&2
	echo "$loadmaps" >&2
	exit 1
fi
echo "== client traffic through the one driver"
# Outside the benchmark, the examples and routing itself, one non-test
# function sends client requests: (*Deployment).Drive, so the figures, the
# torture sweep and smctl draw their traffic in one order (DESIGN §3). A .Do(
# anywhere else is a hand-written traffic loop coming back.
loops="$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' \
	! -path './internal/routing/*' | sort | xargs awk '
	/^func / {drive = /^func \(d \*Deployment\) Drive\(/}
	/^}/ {drive = 0}
	/\.Do\(/ && !drive {print FILENAME ":" FNR ": " $0}')"
if [ -n "$loops" ]; then
	echo "client requests sent outside (*Deployment).Drive:" >&2
	echo "$loops" >&2
	exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== nothing only tests reach"
# The caller gate (DESIGN §4 "Entry points"): a declaration under internal/
# that no non-test code uses, or a field it only writes, goes or is listed with
# its reason in callers_test.go. Names resolve by type, not by grep.
go test -count=1 -run '^TestNothingOnlyTestsReach$' .
echo "== every internal package runs on a deployment"
# A package under internal/ with non-test Go files must be in the import
# closure of the commands and the benchmark: a model that no -fig, fault
# scenario or bench workload composes with the rest proves nothing about it
# (DESIGN §1). internal/integration holds only tests and lists no GoFiles.
closure="$(go list -deps ./cmd/... ./bench)"
unreached="$(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... | grep -vxF "$closure" || true)"
if [ -n "$unreached" ]; then
	echo "internal packages outside the import closure of ./cmd/... and ./bench:" >&2
	echo "$unreached" >&2
	exit 1
fi
echo "== go test -race (all packages except sim-heavy experiments)"
# experiments is single-threaded discrete-event simulation and takes ~150s
# under the race detector for zero extra coverage; it runs un-instrumented
# below instead.
go test -race $(go list ./... | grep -v 'internal/experiments$')
echo "== go test ./internal/experiments"
go test ./internal/experiments
echo "== the mutant catalogue stays killed (scripts/mutants.sh)"
# Each scripts/mutants/<name>.patch is a bug a test once caught; applied to a
# copy of the tree it must still fail the tests its header names.
sh scripts/mutants.sh
echo "== every function a run enters, or listed with its reason (scripts/deploycover.sh)"
# The commands, examples and bench workloads run under coverage; a non-test
# function under internal/ that none of them enters must be on
# scripts/unreached.txt, and every entry there must still be unentered. Its
# smbench -fig all -scale quick run sweeps torture seeds 1-40 with
# -fail-on-bugs, so it is also the audit smoke.
sh scripts/deploycover.sh
echo "== layer-drive smokes (-benchtime=1x: compiled and run once, never timed against a committed number)"
go test ./internal/solver -run '^$' -bench . -benchtime=1x
go test ./internal/allocator -run '^$' -bench RunFirstPlacement -benchtime=1x
go test ./internal/sim -run '^$' -bench LoopScheduleAndRun -benchtime=1x
go test ./internal/discovery -run '^$' -bench Publish -benchtime=1x
go test ./internal/routing -run '^$' -bench ClientRequestRoundTrip -benchmem -benchtime=1x
go test ./internal/orchestrator -run '^$' -bench 'MoveAndPublish|CollectLoads' -benchtime=1x
# The 300k-shard row of the allocation drive builds a ~0.6 GB world; the smoke
# runs the other three.
go test ./internal/orchestrator -run '^$' -bench 'AllocateIncremental/^(shards=3k|shards=30k|lb_churn)$' -benchtime=1x
echo "== profiler- and tracing-overhead benchmark smokes (-benchtime=1x)"
go test . -run '^$' -bench ProfilerOverhead -benchtime=1x
go test . -run '^$' -bench TracingOverhead -benchtime=1x
echo "== code lines (scripts/loc.sh)"
sh scripts/loc.sh
echo "check: OK"
