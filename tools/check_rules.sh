#!/usr/bin/env bash
# Repo-rule linter (CI's rules-check step, next to check_docs.sh). Four
# rules, each born from a bug class this repo has actually seen or
# designed against:
#
#   1. naked-mutex: no raw std::mutex / std::shared_mutex /
#      std::condition_variable / std:: lock wrappers outside
#      src/util/annotated_mutex.hpp. Everything else must go through the
#      annotated wrappers so Clang's -Wthread-safety can see every lock
#      (docs/architecture.md, "Concurrency model").
#
#   2. memo-key coverage: every field of core::SolveOptions, of the
#      model::EnergyModel variant structs, and of model::SleepSpec must be
#      named in src/engine/instance_key.cpp. The PR-2 bug class: add a
#      solver-relevant knob, forget the hash line, and two different
#      instances alias onto one memo entry — the cache silently serves
#      wrong answers. A field that genuinely must not be hashed gets a
#      `// key-exempt(name): reason` line in instance_key.cpp; an
#      exemption naming no field of any checked struct is stale (its field
#      was deleted or renamed) and fails too.
#
#   3. float-eq: no ==/!= against a NONZERO float literal in src/core.
#      Exact zero tests are legitimate sentinels ("no work on this node");
#      comparing against any other literal is a tolerance bug. A
#      deliberate exception carries `// rule-exempt: float-eq` on the line.
#
#   4. engine-route: no src/engine/*.{cpp,hpp} includes core/discrete/,
#      core/vdd/, core/continuous/dispatch.hpp, core/continuous/sleep_dp.hpp,
#      a continuous family solver (core/continuous/numeric_solver.hpp,
#      waterfill.hpp) or a power-down refiner
#      (core/continuous/race_to_idle.hpp, joint_sleep.hpp). The engine is
#      caches and kernels around core::solve: it reaches a closed form only
#      through core::solve or the batched kernels, and routing to a
#      family's solver or refiner lives in core::solve alone. A second
#      dispatcher in the engine once drifted from it and answered long
#      discrete chains differently.
#
# Usage: tools/check_rules.sh            lint the repo
#        tools/check_rules.sh --self-test
#            inject one violation per rule into a scratch tree and verify
#            the linter actually fails on each (CI runs this too: a linter
#            that cannot fail is not a gate).
set -u
cd "$(dirname "$0")/.."
root="${RULES_ROOT:-.}"
failures=0

say_fail() {
  echo "rules-check: FAIL: $*" >&2
  failures=$((failures + 1))
}

# --- 1. naked-mutex ----------------------------------------------------
rule_naked_mutex() {
  local hits
  hits=$(grep -rn \
      -e 'std::mutex' -e 'std::shared_mutex' -e 'std::condition_variable' \
      -e 'std::lock_guard' -e 'std::unique_lock' -e 'std::scoped_lock' \
      -e '#include <mutex>' -e '#include <shared_mutex>' \
      -e '#include <condition_variable>' \
      --include='*.cpp' --include='*.hpp' \
      "$root/src" "$root/tools" "$root/bench" "$root/tests" 2>/dev/null \
      | grep -v 'src/util/annotated_mutex\.hpp')
  if [ -n "$hits" ]; then
    while IFS= read -r hit; do
      say_fail "naked-mutex: $hit (use util/annotated_mutex.hpp wrappers)"
    done <<< "$hits"
  fi
}

# --- 2. memo-key coverage ----------------------------------------------
# Prints the data-member names of `struct $2` in file $1: declaration
# lines inside the struct body that end in ';' and carry no '(' (skips
# ctors, methods, and comments). Good enough for the plain aggregates
# these rules cover; a parse miss fails CLOSED (the field shows up and
# must be hashed) rather than open.
struct_fields() {
  local file="$1" name="$2"
  awk -v struct="$name" '
    $0 ~ "^struct " struct " \\{" { depth = 1; next }
    depth > 0 {
      at_top = (depth == 1)
      depth += gsub(/\{/, "{") - gsub(/\}/, "}")
      if (depth <= 0) { depth = 0; next }
      # Only member declarations directly inside the struct body count.
      # Strip the trailing comment first (fields document themselves with
      # ///<), then the initializer (which may contain calls, e.g.
      # std::numeric_limits<double>::infinity()); what remains must be
      # "type name;" with no "(" — a "(" now means a ctor or method.
      line = $0
      sub(/\/\/.*/, "", line)
      gsub(/[[:space:]]+$/, "", line)
      if (at_top && line ~ /;$/ && line !~ /return/ && line !~ /operator/ &&
          line !~ /friend/ && line !~ /using/ && line !~ /static/) {
        sub(/=.*/, "", line)
        sub(/;$/, "", line)
        gsub(/[[:space:]]+$/, "", line)
        if (line !~ /\(/) {
          n = split(line, parts, /[[:space:]]+/)
          if (n >= 2 && parts[n] ~ /^[A-Za-z_][A-Za-z0-9_]*$/) print parts[n]
        }
      }
    }
  ' "$file"
}

rule_memo_key() {
  local key_src="$root/src/engine/instance_key.cpp"
  if [ ! -f "$key_src" ]; then
    say_fail "memo-key: $key_src missing"
    return
  fi
  local all_fields=""
  check_struct() {
    local file="$1" name="$2" field
    if [ ! -f "$file" ]; then
      say_fail "memo-key: $file missing (looked for struct $name)"
      return
    fi
    while IFS= read -r field; do
      [ -n "$field" ] || continue
      all_fields+=" $field "
      if ! grep -qw "$field" "$key_src" \
          && ! grep -q "key-exempt($field)" "$key_src"; then
        say_fail "memo-key: $name::$field is not hashed in" \
                 "src/engine/instance_key.cpp (and carries no" \
                 "'// key-exempt($field): ...' line) — distinct instances" \
                 "would alias onto one memo entry"
      fi
    done < <(struct_fields "$file" "$name")
  }
  check_struct "$root/src/core/solve.hpp" SolveOptions
  check_struct "$root/src/model/energy_model.hpp" ContinuousModel
  check_struct "$root/src/model/energy_model.hpp" DiscreteModel
  check_struct "$root/src/model/energy_model.hpp" VddHoppingModel
  check_struct "$root/src/model/energy_model.hpp" IncrementalModel
  check_struct "$root/src/model/power_model.hpp" SleepSpec
  check_struct "$root/src/engine/reclaim_engine.hpp" EngineOptions

  local exempt
  while IFS= read -r exempt; do
    [ -n "$exempt" ] || continue
    if [[ "$all_fields" != *" $exempt "* ]]; then
      say_fail "memo-key: stale '// key-exempt($exempt)' in" \
               "src/engine/instance_key.cpp names no field of a checked" \
               "struct — delete it"
    fi
  done < <(grep -o 'key-exempt([A-Za-z_][A-Za-z0-9_]*)' "$key_src" \
               | sed 's/^key-exempt(\(.*\))$/\1/')
}

# --- 3. float-eq -------------------------------------------------------
rule_float_eq() {
  local hits
  hits=$(grep -rnE '[=!]= *[0-9]+\.[0-9]*' \
      --include='*.cpp' --include='*.hpp' "$root/src/core" 2>/dev/null \
      | grep -vE '[=!]= *0\.0*([^0-9]|$)' \
      | grep -v 'rule-exempt: float-eq')
  if [ -n "$hits" ]; then
    while IFS= read -r hit; do
      say_fail "float-eq: $hit (compare with a tolerance, or mark a" \
               "deliberate exact test '// rule-exempt: float-eq')"
    done <<< "$hits"
  fi
}

# --- 4. engine-route ---------------------------------------------------
rule_engine_route() {
  local hits
  hits=$(grep -nE \
      '#include "core/(discrete/|vdd/|continuous/(dispatch|sleep_dp|numeric_solver|waterfill|race_to_idle|joint_sleep)\.hpp)' \
      "$root"/src/engine/*.cpp "$root"/src/engine/*.hpp 2>/dev/null)
  if [ -n "$hits" ]; then
    while IFS= read -r hit; do
      say_fail "engine-route: $hit (solve through core::solve; the engine" \
               "must not route to family solvers itself)"
    done <<< "$hits"
  fi
}

# --- self-test ---------------------------------------------------------
# Each rule must fail on a planted violation; a gate that cannot fire is
# decoration. Builds a scratch tree from the real sources, injects one
# violation per rule, and expects one failure per rule.
self_test() {
  local scratch
  scratch=$(mktemp -d)
  trap 'rm -rf "$scratch"' EXIT
  mkdir -p "$scratch/src/core" "$scratch/src/model" "$scratch/src/engine" \
           "$scratch/tools" "$scratch/bench" "$scratch/tests"
  cp src/core/solve.hpp "$scratch/src/core/"
  cp src/model/energy_model.hpp src/model/power_model.hpp \
     "$scratch/src/model/"
  cp src/engine/instance_key.cpp src/engine/reclaim_engine.hpp \
     "$scratch/src/engine/"

  # 1. a naked std::mutex outside util/
  printf '#include <mutex>\nstd::mutex bad_mutex;\n' \
      > "$scratch/src/engine/injected.cpp"
  # 2. a solver-relevant knob with no matching hash line
  sed -i 's/^struct SolveOptions {$/struct SolveOptions {\n  double injected_knob = 0.5;/' \
      "$scratch/src/core/solve.hpp"
  # 2b. an exemption whose field no longer exists
  printf '// key-exempt(injected_stale): field deleted long ago\n' \
      >> "$scratch/src/engine/instance_key.cpp"
  # 3. equality against a nonzero float literal
  printf 'bool injected(double x) { return x == 1.5; }\n' \
      > "$scratch/src/core/injected.cpp"
  # 4. an engine source reaching past core::solve to a family solver, an
  #    engine header reaching a continuous solver directly, and an engine
  #    source calling a power-down refiner itself
  printf '#include "core/discrete/chain_dp.hpp"\n' \
      > "$scratch/src/engine/injected_route.cpp"
  printf '#include "core/continuous/waterfill.hpp"\n' \
      > "$scratch/src/engine/injected_waterfill.hpp"
  printf '#include "core/continuous/joint_sleep.hpp"\n' \
      > "$scratch/src/engine/injected_refiner.cpp"

  local out status
  out=$(RULES_ROOT="$scratch" "$0" 2>&1)
  status=$?
  local ok=1
  [ "$status" -ne 0 ] || { echo "self-test: linter passed a bad tree"; ok=0; }
  echo "$out" | grep -q 'naked-mutex: .*injected\.cpp' \
      || { echo "self-test: naked-mutex rule did not fire"; ok=0; }
  echo "$out" | grep -q 'memo-key: SolveOptions::injected_knob' \
      || { echo "self-test: memo-key rule did not fire"; ok=0; }
  echo "$out" | grep -q "memo-key: stale '// key-exempt(injected_stale)'" \
      || { echo "self-test: stale key-exempt check did not fire"; ok=0; }
  echo "$out" | grep -q 'float-eq: .*injected\.cpp' \
      || { echo "self-test: float-eq rule did not fire"; ok=0; }
  echo "$out" | grep -q 'engine-route: .*injected_route\.cpp' \
      || { echo "self-test: engine-route rule did not fire"; ok=0; }
  echo "$out" | grep -q 'engine-route: .*injected_waterfill\.hpp' \
      || { echo "self-test: engine-route rule did not fire on a header"; ok=0; }
  echo "$out" | grep -q 'engine-route: .*injected_refiner\.cpp' \
      || { echo "self-test: engine-route rule did not fire on a refiner"; ok=0; }

  # And the real tree must pass, or the gate blocks every PR.
  if ! RULES_ROOT=. "$0" > /dev/null 2>&1; then
    echo "self-test: linter fails on the actual repo"
    ok=0
  fi

  if [ "$ok" -eq 1 ]; then
    echo "rules-check self-test: OK (all 4 rules and the stale-exemption check fire on planted violations)"
    exit 0
  fi
  echo "rules-check self-test: FAILED" >&2
  exit 1
}

if [ "${1:-}" = "--self-test" ]; then
  self_test
fi

rule_naked_mutex
rule_memo_key
rule_float_eq
rule_engine_route

if [ "$failures" -gt 0 ]; then
  echo "rules-check: $failures problem(s)" >&2
  exit 1
fi
echo "rules-check: OK"
