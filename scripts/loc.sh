#!/bin/sh
# Code-line count ROADMAP item 4 is judged by: non-blank lines that are not
# whole-line // comments, in non-test .go files. Prints the eight directories
# the item names, their total, and the repo-wide total. Run via `make loc`.
set -eu
cd "$(dirname "$0")/.."

count() {
	find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat |
		grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//' || true
}

dirs="internal/sim internal/discovery internal/routing internal/orchestrator
internal/appserver internal/metrics internal/experiments cmd/smbench"
for d in $dirs; do
	printf '%6d  %s\n' "$(count "$d")" "$d"
done
printf '%6d  total (item 4 directories)\n' "$(count $dirs)"
printf '%6d  repo-wide non-test\n' "$(count .)"
