#!/usr/bin/env bash
# netlines.sh prints the non-test Go lines outside bench/ — the figure
# ROADMAP.md and CHANGES.md track — per package directory and in total.
# Go assembly (*.s) counts as Go here, so a kernel moved into assembly
# cannot drop out of the figure. internal/testkit, which only tests import,
# counts as test code. It is informational and gates nothing.
#
#   bash .github/netlines.sh [repo-root]
set -euo pipefail
cd "${1:-.}"
counts=$(find . \( -name '*.go' -not -name '*_test.go' -o -name '*.s' \) -not -path './bench/*' -not -path './internal/testkit/*' -print0 |
	xargs -0 wc -l | awk '$2 != "total"')
echo "$counts" | awk '{ d = $2; sub(/\/[^\/]*$/, "", d); s[d] += $1 } END { for (d in s) printf "%7d  %s\n", s[d], d }' | sort -k2
echo "$counts" | awk '{ t += $1 } END { printf "%7d  total\n", t }'
