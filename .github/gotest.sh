#!/usr/bin/env bash
# go test "$@", failing also when a -run or -bench pattern matched nothing in
# one of the packages: `go test -run NoSuchTest` exits 0, so a step whose
# pattern names a renamed or deleted test would otherwise pass forever.
set -eo pipefail
out=$(mktemp)
go test "$@" 2>&1 | tee "$out"
if grep -q 'no tests to run' "$out"; then
  echo "gotest.sh: a pattern in '$*' matched no test" >&2
  exit 1
fi
