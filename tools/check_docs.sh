#!/usr/bin/env bash
# Docs consistency gate (CI's docs-check step):
#
#   1. Every relative markdown link in README.md, DESIGN.md, ROADMAP.md
#      and docs/*.md must resolve to an existing file.
#   2. Every --flag a tool prints in its --help must be documented in
#      docs/cli.md (the help texts carry "keep in sync" comments pointing
#      back here), and every | `--flag` table row in docs/cli.md must be
#      printed by some tool's --help, so a removed flag cannot linger in
#      the docs.
#
# Usage: tools/check_docs.sh [build-dir]   (default: build)
set -u
cd "$(dirname "$0")/.."
build_dir="${1:-build}"
failures=0

say_fail() {
  echo "docs-check: FAIL: $*" >&2
  failures=$((failures + 1))
}

# --- 1. relative links -------------------------------------------------
for doc in README.md DESIGN.md ROADMAP.md docs/*.md; do
  [ -f "$doc" ] || continue
  doc_dir=$(dirname "$doc")
  # Markdown inline links: [text](target); ignore web links and pure
  # in-page anchors, strip any #fragment from file targets.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | \#*) continue ;;
    esac
    file="${target%%#*}"
    [ -n "$file" ] || continue
    if [ ! -e "$doc_dir/$file" ] && [ ! -e "$file" ]; then
      say_fail "$doc links to missing file '$target'"
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

# --- 2. --help flags vs docs/cli.md ------------------------------------
help_flags=" "
for tool in reclaim_cli reclaim_serve reclaim_client; do
  bin="$build_dir/$tool"
  if [ ! -x "$bin" ]; then
    say_fail "$bin not built (pass the build dir as \$1)"
    continue
  fi
  for flag in $("$bin" --help | grep -o '^  --[a-z-]*' | sort -u); do
    help_flags+="$flag "
    if ! grep -q -- "\`$flag" docs/cli.md; then
      say_fail "$tool --help documents '$flag' but docs/cli.md does not mention it"
    fi
  done
done
for flag in $(grep -o '^| `--[a-z-]*' docs/cli.md | sed 's/^| `//' | sort -u); do
  if [[ "$help_flags" != *" $flag "* ]]; then
    say_fail "docs/cli.md documents '$flag' but no tool's --help prints it"
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "docs-check: $failures problem(s)" >&2
  exit 1
fi
echo "docs-check: OK"
