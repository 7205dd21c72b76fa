#!/usr/bin/env bash
# Builds Release and records the perf trajectory: every selected bench
# binary runs once (bench_e18_sweep_throughput five times, see below) and
# its wall time (plus the raw output) lands in BENCH_<name>.json, so
# future PRs can diff instances/second against this one.
#
#   tools/run_bench.sh [output-dir] [bench-glob...]
#   tools/run_bench.sh --self-test
#
# output-dir defaults to bench-results; the bench globs default to
# bench_e* (CI records only the fast baselines with
# 'bench_e1[23456789]_*' 'bench_e20_*'). Set RECLAIM_BENCH_BUILD_DIR to
# reuse an existing Release build tree instead of configuring build-bench
# from scratch.
#
# Each BENCH_<name>.json also records the bench's peak RSS
# ("peak_rss_mb"); it is informational and gates nothing.
#
# Perf-trajectory diff: when RECLAIM_BENCH_BASELINE_DIR points at a
# directory of BENCH_*.json files from a previous run (CI downloads the
# prior run's artifact there), a wall-seconds / instances-per-second /
# peak-RSS diff table is printed after the runs. The diff is
# informational only: the script fails on bench crashes, never on
# regressions.
#
# Sustained-regression alert: a bench whose best inst/s drops more than
# RECLAIM_BENCH_ALERT_PCT percent (default 10) below its *reference* rate
# gets a "rate_regressed" flag recorded in its BENCH_*.json. The reference
# is the last pre-regression rate, carried through the artifact chain in
# "reference_inst_s" while the bench stays flagged, so a step regression
# cannot absorb itself into the baseline. When the baseline already
# carried the flag — the regression held two runs in a row — a
# "::warning::" soft alert is printed (so GitHub Actions annotates the
# run). Informational for every bench except the hard-gated set —
# bench_e12_batch_throughput, bench_e17_serve_throughput and
# bench_e18_sweep_throughput: a sustained regression there is a hard
# gate — the script exits 1. The e18 and e19 rates are their "long-run
# inst/s" column, the route the gate protects. A bench's rate is the
# median over its runs of each run's best rate: e18 runs five times,
# because one ~2 s run of its single-task long run is one sample that
# moves by far more than the threshold between back-to-back runs.
# Opt out with RECLAIM_BENCH_HARD_GATE=0 (e.g. on known-noisy hosts).
#
# --self-test feeds canned e12, e18 and e19 logs to the rate extraction
# and fails unless each yields its expected best rate, and five canned
# e18 runs unless they yield their median: a gate whose rate reads empty
# can never fire.
set -euo pipefail

# The diff/alert program (Python), shared by the post-run diff below and
# --self-test. Diff usage: python3 -c "$(diff_program)" PREV_DIR NOW_DIR.
diff_program() {
  cat <<'EOF'
import glob, json, os, re, statistics, sys

# Table header cells holding an instances/second column: e12/e17 label
# theirs "inst/s"; the e18/e19 sweeps are read at "long-run inst/s".
RATE_HEADERS = ("inst/s", "long-run inst/s")

def rates_of(output):
    """Every instances/second figure in a bench log: inline "N inst/s"
    mentions plus the rate columns of util::Table output."""
    rates = [float(m) for m in
             re.findall(r"([0-9]+(?:\.[0-9]+)?)\s*inst/s", output)]
    lines = output.splitlines()
    for i, line in enumerate(lines):
        if "|" not in line or "inst/s" not in line:
            continue
        header = [c.strip() for c in line.split("|")]
        columns = [k for k, cell in enumerate(header) if cell in RATE_HEADERS]
        if not columns:  # mentions inst/s without being a rate header
            continue
        column = columns[0]
        for row in lines[i + 1:]:
            if row.strip("- ") == "":  # table border
                continue
            if "|" not in row:
                break
            cells = [c.strip() for c in row.split("|")]
            if len(cells) <= column:
                continue
            try:
                rates.append(float(cells[column]))
            except ValueError:
                continue
    return rates

def bench_rate(payload):
    """A bench's recorded rate: the median over its runs ("outputs", one
    per run) of each run's best rate. Baselines written before runs were
    repeated carry one "output"."""
    outputs = payload.get("outputs") or [payload.get("output", "")]
    bests = [max(rates) for rates in map(rates_of, outputs) if rates]
    return statistics.median(bests) if bests else None

if sys.argv[1:] == ["--self-test"]:
    border = "-" * 40
    canned = {
        "bench_e12_batch_throughput": ("\n".join([
            "(a) memo OFF: parallel scaling of fresh solves", border,
            "| threads | instances | seconds |  inst/s | speedup |", border,
            "|       1 |       128 |  0.0086 | 14857.4 |   1.00x |",
            "|       4 |       128 |  0.0027 | 47982.9 |   3.23x |", border,
            ""]), 47982.9),
        "bench_e18_sweep_throughput": ("\n".join([
            "homogeneous grid sweeps (acceptance: >= 1.2x inst/s vs "
            "per-instance memo-OFF, bit-identical)",
            border,
            "| family | instances | per-instance inst/s | no-memo inst/s "
            "| long-run inst/s | vs per-instance | vs no-memo |", border,
            "| single |     20000 |            445548.8 |      2854395.7 "
            "|       3888976.0 |           8.73x |      1.36x |",
            "|  chain |     20000 |            233266.9 |      1162016.7 "
            "|       1008404.8 |           4.32x |      0.87x |", border,
            "Acceptance met: >= 1.2x inst/s on at least one sweep", ""]),
            3888976.0),
        "bench_e19_treesp_throughput": ("\n".join([
            "tree/SP grids: long runs vs the per-instance route", border,
            "|  family | instances | per-instance inst/s | no-memo inst/s "
            "| long-run inst/s | vs per-instance | vs no-memo |", border,
            "| outtree |     20000 |            334061.8 |      1026177.0 "
            "|       1383914.8 |           4.14x |      1.35x |",
            "|      sp |     20000 |            421959.6 |      1089209.2 "
            "|       1450042.7 |           3.44x |      1.33x |", border,
            ""]), 1450042.7),
    }
    ok = True
    for name, (log, expected) in canned.items():
        best = bench_rate({"output": log})
        if best != expected:
            print(f"self-test: {name}: best rate {best}, expected {expected}")
            ok = False
    e18_log = canned["bench_e18_sweep_throughput"][0]
    runs = [e18_log.replace("3888976.0", rate) for rate in
            ("5580000.0", "3620000.0", "5150000.0", "4400000.0", "4870000.0")]
    median = bench_rate({"outputs": runs})
    if median != 4870000.0:
        print(f"self-test: e18 over five runs: rate {median}, "
              f"expected the median 4870000.0")
        ok = False
    print("run_bench self-test: " + ("OK (e12, e18 and e19 each yield "
                                     "their best rate; five e18 runs "
                                     "yield their median)" if ok
                                     else "FAILED"))
    sys.exit(0 if ok else 1)

prev_dir, now_dir = sys.argv[1:]

def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        try:
            payload = json.load(open(path, encoding="utf-8"))
        except (OSError, ValueError):
            continue
        runs[payload.get("bench", os.path.basename(path))] = {
            "status": payload.get("status", "?"),
            "seconds": payload.get("wall_seconds"),
            "rss_mb": payload.get("peak_rss_mb"),
            "inst_s": bench_rate(payload),
            "commit": payload.get("commit", "?"),
            "rate_regressed": bool(payload.get("rate_regressed", False)),
            "reference_inst_s": payload.get("reference_inst_s"),
            "path": path,
        }
    return runs

prev, now = load(prev_dir), load(now_dir)
if not prev:
    print(f"[perf diff] no baselines under {prev_dir}; skipping")
    sys.exit(0)

def fmt(value, unit=""):
    return "-" if value is None else f"{value:.1f}{unit}"

def delta(old, new):
    if old in (None, 0) or new is None:
        return "-"
    return f"{100.0 * (new - old) / old:+.1f}%"

header = (f"[perf diff] vs commit "
          f"{next(iter(prev.values()))['commit']} ({len(prev)} baselines)")
print(header)
rows = [("bench", "prev s", "now s", "d-wall", "prev inst/s", "now inst/s",
         "d-rate", "prev MiB", "now MiB", "d-rss")]
for name in sorted(set(prev) | set(now)):
    p, n = prev.get(name, {}), now.get(name, {})
    rows.append((name, fmt(p.get("seconds")), fmt(n.get("seconds")),
                 delta(p.get("seconds"), n.get("seconds")),
                 fmt(p.get("inst_s")), fmt(n.get("inst_s")),
                 delta(p.get("inst_s"), n.get("inst_s")),
                 fmt(p.get("rss_mb")), fmt(n.get("rss_mb")),
                 delta(p.get("rss_mb"), n.get("rss_mb"))))
widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
for row in rows:
    print("  " + " | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
print("[perf diff] informational only: regressions never fail the run")

# Sustained-regression alert: compare this run against the *reference*
# rate — the last pre-regression rate, carried through the artifact chain
# in reference_inst_s while a bench stays flagged — so a one-time step
# regression cannot absorb itself into the baseline (run 1 would record
# the regressed rate, run 2 would look flat against it, and the alert
# would never fire). Two consecutive runs below the reference raise the
# alert: a soft "::warning::" for every bench; for the hard-gated benches
# (stable enough to be low-noise) a sentinel file additionally fails the
# run unless RECLAIM_BENCH_HARD_GATE=0. A run back at the reference rate
# clears the flag and the reference resets to reality.
threshold = float(os.environ.get("RECLAIM_BENCH_ALERT_PCT", "10"))
hard_gate = os.environ.get("RECLAIM_BENCH_HARD_GATE", "1") != "0"
hard_gated = {"bench_e12_batch_throughput", "bench_e17_serve_throughput",
              "bench_e18_sweep_throughput"}
for name in sorted(now):
    p, n = prev.get(name, {}), now[name]
    n_rate = n.get("inst_s")
    reference = (p.get("reference_inst_s") if p.get("rate_regressed")
                 else None) or p.get("inst_s")
    regressed = (reference not in (None, 0) and n_rate is not None
                 and 100.0 * (reference - n_rate) / reference > threshold)
    try:
        payload = json.load(open(n["path"], encoding="utf-8"))
        payload["rate_regressed"] = regressed
        if regressed:
            payload["reference_inst_s"] = reference
        else:
            payload.pop("reference_inst_s", None)
        json.dump(payload, open(n["path"], "w"), indent=2)
    except (OSError, ValueError):
        continue
    if regressed and p.get("rate_regressed"):
        if hard_gate and name in hard_gated:
            print(f"::error::{name}: inst/s regressed more than "
                  f"{threshold:.0f}% two runs in a row "
                  f"({reference:.1f} -> {n_rate:.1f} vs the pre-regression "
                  f"reference); this bench is a hard gate "
                  f"(RECLAIM_BENCH_HARD_GATE=0 to opt out)")
            with open(os.path.join(now_dir, ".hard-gate-failed"), "a",
                      encoding="utf-8") as sentinel:
                sentinel.write(name + "\n")
        else:
            print(f"::warning::{name}: inst/s regressed more than "
                  f"{threshold:.0f}% two runs in a row "
                  f"({reference:.1f} -> {n_rate:.1f} vs the pre-regression "
                  f"reference)")
            print(f"[perf alert] sustained regression in {name} "
                  f"(soft alert only; the run still passes)")
EOF
}

if [ "${1:-}" = "--self-test" ]; then
  exec python3 -c "$(diff_program)" --self-test
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${1:-$repo_root/bench-results}"
if [ "$#" -ge 2 ]; then patterns=("${@:2}"); else patterns=("bench_e*"); fi
build_dir="${RECLAIM_BENCH_BUILD_DIR:-$repo_root/build-bench}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j

mkdir -p "$out_dir"
host="$(uname -srm)"
stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
commit="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
failures=0

benches=()
for pattern in "${patterns[@]}"; do
  for candidate in "$build_dir"/$pattern; do
    [ -x "$candidate" ] && benches+=("$candidate")
  done
done

# Each bench runs under a small Python runner that records its wall time,
# its output and its peak RSS: the runner starts the bench's runs one
# after another, so the children's high-water mark (ru_maxrss of
# RUSAGE_CHILDREN, KiB on Linux) is the largest run's own. A repeated
# bench records each run's output and the median run's wall time.
for bench in "${benches[@]}"; do
  name="$(basename "$bench")"
  echo "=== $name"
  if ! python3 - "$bench" "$out_dir" "$stamp" "$commit" "$host" <<'EOF'
import json, os, resource, statistics, subprocess, sys, time
bench, out_dir, stamp, commit, host = sys.argv[1:]
name = os.path.basename(bench)
log = os.path.join(out_dir, name + ".log")
runs = 5 if name == "bench_e18_sweep_throughput" else 1
outputs, walls, code = [], [], 0
with open(log, "wb") as sink:
    for _ in range(runs):
        start = time.monotonic()
        run = subprocess.run([bench], stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT)
        walls.append(time.monotonic() - start)
        sink.write(run.stdout)
        outputs.append(run.stdout.decode("utf-8", errors="replace"))
        code = run.returncode
        if code != 0:
            break
seconds = round(statistics.median(walls), 3)
peak_rss_mb = round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1)
status = "ok" if code == 0 else "failed"
payload = {
    "bench": name,
    "status": status,
    "wall_seconds": seconds,
    "peak_rss_mb": peak_rss_mb,
    "timestamp": stamp,
    "commit": commit,
    "host": host,
    "outputs": outputs,
}
json.dump(payload, open(os.path.join(out_dir, f"BENCH_{name}.json"), "w"), indent=2)
print(f"    {status} in {seconds:.3f}s, peak RSS {peak_rss_mb:.1f} MiB -> BENCH_{name}.json")
sys.exit(0 if code == 0 else 1)
EOF
  then
    failures=$((failures + 1))
  fi
done

echo "Results in $out_dir"

# Diff against a previous run's baselines, if provided. Extracts each
# bench's instances/second figures from the recorded output (rates_of)
# and compares the best per bench, alongside wall seconds.
# Best-effort by contract: a malformed baseline must never fail the run,
# hence the || after the invocation.
baseline_dir="${RECLAIM_BENCH_BASELINE_DIR:-}"
rm -f "$out_dir/.hard-gate-failed"
if [ -n "$baseline_dir" ] && [ -d "$baseline_dir" ]; then
  python3 -c "$(diff_program)" "$baseline_dir" "$out_dir" \
    || echo "[perf diff] diff failed (ignored)"
fi

# A crashed bench still gets its JSON recorded above, but the run as a
# whole must fail so CI goes red instead of shipping a broken baseline.
if [ "$failures" -gt 0 ]; then
  echo "error: $failures bench(es) failed" >&2
  exit 1
fi

# Hard gate: a sustained inst/s regression in a gated bench (recorded by
# the diff step above) fails the run. The freshly written BENCH_*.json
# baselines are kept — the next run diffs against reality either way.
if [ -f "$out_dir/.hard-gate-failed" ]; then
  echo "error: sustained bench regression (hard gate):" \
       "$(tr '\n' ' ' < "$out_dir/.hard-gate-failed")" >&2
  exit 1
fi
