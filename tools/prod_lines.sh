#!/bin/sh
# Prints production lines of Rust per crate and in total: the non-blank
# lines of each file before its first top-level `#[cfg(test)]` (one at
# column 0; an indented one inside production code does not count),
# over `crates/*/src`, `src` and `examples`.
#
# Usage: tools/prod_lines.sh   (from anywhere inside the repository)
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { live = 1 }
            /^#\[cfg\(test\)\]/ { live = 0 }
            live && NF { n++ }
            END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

total=0
for dir in crates/*/src src examples; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    total=$((total + n))
    printf '%-24s %6d\n' "$dir" "$n"
done
printf '%-24s %6d\n' total "$total"
