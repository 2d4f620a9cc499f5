#!/bin/sh
# doccheck.sh — documentation hygiene gate, run by CI and `make doccheck`.
#
# 1. Every Go package must carry a package-level doc comment on a non-test
#    file (go list's {{.Doc}} is empty otherwise).
# 2. Every repo-relative markdown link in README.md, ROADMAP.md, CHANGES.md,
#    and docs/*.md must point at an existing file. External links
#    (http/https/mailto), in-page anchors, and GitHub-web-relative paths
#    (../../..., e.g. the Actions badge) are skipped, and so is text inside
#    inline code spans (`f[T any](x)` is code, not a link).
set -eu
cd "$(dirname "$0")/.."
status=0

undocumented="$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)"
if [ -n "$undocumented" ]; then
    echo "doccheck: packages without a package doc comment:" >&2
    echo "$undocumented" | sed 's/^/    /' >&2
    status=1
fi

for f in README.md ROADMAP.md CHANGES.md docs/*.md; do
    [ -f "$f" ] || continue
    dir="$(dirname "$f")"
    # Extract the (target) halves of [text](target) links, one per line,
    # once inline code spans are stripped.
    targets="$(sed -e 's/`[^`]*`//g' "$f" | grep -oE '\]\([^)]+\)' | sed -e 's/^](//' -e 's/)$//')" || continue
    for t in $targets; do
        case "$t" in
        http://* | https://* | mailto:* | '#'* | ../../*) continue ;;
        esac
        t="${t%%#*}" # strip in-file anchors
        [ -n "$t" ] || continue
        if [ ! -e "$dir/$t" ]; then
            echo "doccheck: $f links to missing path: $t" >&2
            status=1
        fi
    done
done

if [ "$status" -eq 0 ]; then
    echo "doccheck: ok"
fi
exit $status
