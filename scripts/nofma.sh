#!/bin/sh
# nofma: no fused multiply-adds anywhere in the module.
#
# The Go spec lets the compiler fuse x*y + z into one multiply-add, which
# rounds once instead of twice. amd64 never fuses, but arm64, ppc64le,
# s390x and riscv64 do, so the same source could price a record to
# different last bits on another host. An explicit conversion,
# float64(x*y) + z, rounds the product and prevents the fusion.
#
# For each architecture below, this cross-compiles every package of the
# module (gpusimpow/...) with -S in one build and fails on any
# FMADD/FMSUB/FNMADD/FNMSUB (D and S forms) whose source position lies in
# the module, printing each file:line. An instruction inlined from another
# package carries its own file's position. A new package is guarded from
# its first commit. Cross-compiling needs no network; a cached rebuild
# replays the listing.
#
#   ./scripts/nofma.sh        (or: make nofma)
set -eu

ARCHES="arm64 ppc64le s390x riscv64"
root=$(go list -m -f '{{.Dir}}')

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

fail=0
for arch in $ARCHES; do
    if ! GOARCH=$arch go build -gcflags='gpusimpow/...=-S' ./... 2>"$tmp/asm"; then
        cat "$tmp/asm" >&2
        echo "nofma: GOARCH=$arch build failed" >&2
        exit 2
    fi
    # Listing lines read "<pc> <offset> (<file>:<line>)<TAB><OP><TAB>...".
    grep -E '^[[:space:]]+0x[0-9a-f]+ [0-9]+ \(.*\)[[:space:]]+F(N)?M(ADD|SUB)[DS]?[[:space:]]' "$tmp/asm" |
        sed -En "s#.*\($root/([^)]*\.go:[0-9]*)\).*#\1#p" | sort -V | uniq -c >"$tmp/sites" || true
    n=$(awk '{s += $1} END {print s + 0}' "$tmp/sites")
    if [ "$n" -gt 0 ]; then
        echo "nofma: gpusimpow/... on $arch: $n fused multiply-add(s):"
        awk '{printf "  %s (%d)\n", $2, $1}' "$tmp/sites"
        fail=1
    else
        echo "nofma: gpusimpow/... on $arch: none"
    fi
done
exit $fail
