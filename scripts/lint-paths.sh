#!/usr/bin/env bash
# Fails when a workflow or a script names a Go package directory or a
# script that git does not track, or when a test, benchmark or fuzz pattern
# a workflow passes to `go test` selects nothing: every CI step must build
# and run what a fresh checkout holds.
set -euo pipefail
cd "$(dirname "$0")/.."

missing=0
while IFS=: read -r file path; do
  if [ -z "$(git ls-files -- "$path")" ]; then
    echo "$file names $path, which is not in the tree" >&2
    missing=1
  fi
done < <(grep -oHE '\./(cmd|internal|examples)/[A-Za-z0-9_-]+|\./benchmark\b|\bscripts/[A-Za-z0-9_-]+\.sh' \
  .github/workflows/*.yml scripts/*.sh | sort -u)

# lists prints the names `go test -list pattern pkgs...` selects, or fails.
lists() {
  local pat=$1 out
  shift
  out=$(go test -list "$pat" "$@" 2>&1) || { echo "$out" >&2; return 1; }
  grep -vE '^(ok|\?) ' <<<"$out" || true
}

# check_go_test FILE ARGS... checks one `go test` invocation: every -run,
# -bench or -fuzz pattern (except '^$', which selects nothing on purpose)
# must list a name in each named package, and each of its top-level
# alternatives a name in one of them.
check_go_test() {
  local file=$1 pats=() pkgs=() pat pkg alt alts
  shift
  while (($#)); do
    case $1 in
      -run=* | -bench=* | -fuzz=*) pats+=("${1#*=}") ;;
      -run | -bench | -fuzz) pats+=("$2") && shift ;;
      -count | -benchtime | -fuzztime | -timeout | -cpu | -parallel | -tags) shift ;;
      -*) ;;
      *) pkgs+=("$1") ;;
    esac
    shift
  done
  ((${#pkgs[@]})) || pkgs=(.)
  for pat in "${pats[@]}"; do
    [ "$pat" = '^$' ] && continue
    for pkg in "${pkgs[@]}"; do
      if [ -z "$(lists "$pat" "$pkg")" ]; then
        echo "$file runs go test '$pat' in $pkg, which lists nothing" >&2
        missing=1
      fi
    done
    IFS='|' read -ra alts <<<"$pat"
    ((${#alts[@]} > 1)) || continue
    for alt in "${alts[@]}"; do
      if [ -z "$(lists "$alt" "${pkgs[@]}")" ]; then
        echo "$file runs go test '$pat', whose '$alt' lists nothing in ${pkgs[*]}" >&2
        missing=1
      fi
    done
  done
}

# Each `go test` line of a workflow, with a `for v in a b; do` loop around
# it expanded once per value. The line's arguments are word-split with the
# shell's quoting rules (eval of the workflow's own text, nothing else).
for file in .github/workflows/*.yml; do
  loopvar='' loopvals=''
  while IFS= read -r line; do
    if [[ $line =~ for\ ([A-Za-z_][A-Za-z0-9_]*)\ in\ ([^\;]*)\;\ do ]]; then
      loopvar=${BASH_REMATCH[1]} loopvals=${BASH_REMATCH[2]}
    fi
    if [[ $line == *"go test"* ]]; then
      args=${line#*go test}
      args=${args%%;*}
      vals=('')
      if [ -n "$loopvar" ] && [[ $args == *"\$$loopvar"* ]]; then
        read -ra vals <<<"$loopvals"
      fi
      for val in "${vals[@]}"; do
        [ -n "$loopvar" ] && printf -v "$loopvar" '%s' "$val"
        eval "set -- $args"
        check_go_test "$file" "$@"
      done
    fi
    [[ $line =~ (^|[[:space:]])done($|[[:space:]]) ]] && loopvar=''
  done <"$file"
done
exit "$missing"
