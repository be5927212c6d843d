#!/usr/bin/env bash
# Fails when a workflow or a script names a Go package directory or a
# script that git does not track: every CI step must build what a fresh
# checkout holds.
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
exit "$missing"
