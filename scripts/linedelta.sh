#!/bin/sh
# Line-delta report: added, removed and net lines between a base commit and
# the working tree, split into non-test Go, test Go (*_test.go) and all other
# files, read from `git diff --numstat`. Every change reports its net delta
# the same way with this script; it is a report, not a gate.
#
# Usage: scripts/linedelta.sh [base]
#
# base defaults to HEAD, which measures uncommitted work (run `git add -A`
# first so new files are counted). After committing, pass the parent
# commit, e.g. `scripts/linedelta.sh HEAD~1`. Binary files count zero lines.
set -eu

cd "$(dirname "$0")/.."

base=${1:-HEAD}

git diff --numstat "$base" -- | awk -F '\t' '
	$1 == "-" { next }
	{
		if ($3 ~ /_test\.go$/) k = "test Go"
		else if ($3 ~ /\.go$/) k = "non-test Go"
		else k = "other"
		add[k] += $1; del[k] += $2
		add["total"] += $1; del["total"] += $2
	}
	END {
		printf "%-12s %8s %8s %8s\n", "", "added", "removed", "net"
		n = split("non-test Go,test Go,other,total", ks, ",")
		for (i = 1; i <= n; i++) {
			k = ks[i]
			printf "%-12s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
