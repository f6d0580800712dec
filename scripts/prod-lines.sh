#!/bin/sh
# Production lines per crate: every line of crates/*/src/**/*.rs and
# src/**/*.rs, minus #[cfg(test)] items (a test module counts from its
# attribute to its closing brace). The vendored shims under crates/shims/
# are not counted. Usage: scripts/prod-lines.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
# shellcheck disable=SC2046 # file names contain no spaces
awk '
FNR == 1 {
    split(FILENAME, p, "/")
    crate = (p[1] == "src") ? "webviews" : p[2]
    skip = 0
}
!skip && /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
skip {
    line = $0
    sub(/\/\/.*/, "", line)
    o = gsub(/\{/, "{", line)
    depth += o - gsub(/\}/, "}", line)
    if (o > 0) opened = 1
    if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/)) skip = 0
    next
}
{ lines[crate]++; total++ }
END {
    for (k in lines) printf "%-12s %7d\n", k, lines[k] | "sort"
    close("sort")
    printf "%-12s %7d\n", "total", total
}' $(find crates/*/src src -name '*.rs' | sort)
