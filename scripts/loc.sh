#!/bin/sh
# Non-test Go code lines per package of the root module (bench/ is its own
# module and is left out). Test code is *_test.go files and test-support
# packages, which by Go convention are directories named *test (kvstoretest,
# like net/http/httptest). Blank lines and //-comment lines are not counted,
# so the figure moves only when code does. Refactor PRs quote the total
# before and after ("net non-test lines removed", ROADMAP common acceptance).
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*test/*' |
	sort |
	xargs awk '
		FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg) }
		!/^[ \t]*$/ && !/^[ \t]*\/\// { n[pkg]++; total++ }
		END {
			for (p in n) printf "%7d %s\n", n[p], p | "sort -k2"
			close("sort -k2")
			printf "%7d total\n", total
		}'
