#!/usr/bin/env python3
"""GeAr benchmark: the one command that runs it.

Builds the benchmark runner from this checkout's sources (Release, under
.bench_build/perfbench), runs one workload for --seconds, and prints every
metric by name with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted/failed count
correctness checks. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics. Exits non-zero, printing no result, when the sources or
the toolchain are missing, the build is not optimized, or the workload would
use more threads than the host has; exits non-zero after the result when a
check fails. See perfbench/README.md.

Usage: python3 perfbench/run.py --workload narrow|wide --seed N
                                --seconds S --trace 0|1
"""

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

WORKLOADS = ("narrow", "wide")
BUILD_DIR = Path(".bench_build") / "perfbench"
RUNNER = BUILD_DIR / "gear_perfbench"
# Whole run, build excluded: leaves room inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# A leg's layer self times must cover its wall time to within this share.
COVERAGE_TOLERANCE = 0.05

# The calibration rep's time on an uncontended core of the reference host
# (4-vCPU AVX-512 Xeon VM). Rep times are reported at this host speed:
# each is scaled by this over the calibration time measured around it.
CALIBRATION_REF_S = 0.0045

# (metric, unit, leg, scale): a leg's work per rep over its normalised
# median rep time, times scale. exact_pmf_s is that rep time itself.
RATE_METRICS = (
    ("mc_trials_per_s", "1/s", "mc", 1.0),
    ("replay_pairs_per_s", "1/s", "replay", 1.0),
    ("stream_ops_per_s", "1/s", "stream", 1.0),
    ("lpf_mpix_per_s", "Mpix/s", "lpf", 1e-6),
    ("sobel_mpix_per_s", "Mpix/s", "sobel", 1e-6),
    ("integral_mpix_per_s", "Mpix/s", "integral", 1e-6),
    ("sad_mpix_per_s", "Mpix/s", "sad", 1e-6),
    ("rank_configs_per_s", "1/s", "rank", 1.0),
    ("hetero_configs_per_s", "1/s", "hetero", 1.0),
    ("fault_injections_per_s", "1/s", "fault", 1.0),
)
KERNELS = ("lpf3x3", "lpf_binomial", "sobel", "integral", "sad")
# (per-layer metric, leg, count name): counts the runner reports per leg.
COUNT_METRICS = (
    ("apps.stream_corrected_ops", "stream", "stream.corrected_ops"),
    ("apps.stream_fallback_events", "stream", "stream.fallback_events"),
    ("analysis.dse_hits", "rank", "dse.hits"),
    ("analysis.dse_misses", "rank", "dse.misses"),
    ("analysis.dse_fast_path", "rank", "dse.fast_path"),
    ("analysis.hetero_evaluated", "hetero", "hetero.evaluated"),
    ("analysis.hetero_pruned", "hetero", "hetero.pruned"),
    ("analysis.hetero_synthesized", "hetero", "hetero.synthesized"),
    ("analysis.hetero_front", "hetero", "hetero.front"),
    ("analysis.fault.masked", "fault", "fault.masked"),
    ("analysis.fault.false_alarm", "fault", "fault.false_alarm"),
    ("analysis.fault.detected", "fault", "fault.detected"),
    ("analysis.fault.sdc", "fault", "fault.sdc"),
)
EXACT_RUNGS = 4
# Unit of a runner probe, read from its name ("..._ns_per_add.gear" -> ns).
PROBE_UNIT = re.compile(r"_(ns|us|ms)(_|$)")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """sha256 over every library and benchmark source: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (root / d).rglob("*")
                   if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                       text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(root):
    if not (root / "src" / "core" / "config.h").is_file():
        fail("no GeAr sources under ./src; run from the root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (root / BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {r.returncode}")


def run_runner(root, args, out_path):
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path)]
    try:
        r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_TIMEOUT_S} s", 1)
    if r.returncode != 0:
        fail(f"runner exited {r.returncode}; no result", r.returncode)
    with open(out_path) as f:
        return json.load(f)


def rep_times(leg):
    return [s[1] for s in leg["untraced"]]


def rep_time(samples):
    return benchlib.normalised_median(samples, CALIBRATION_REF_S)


def end_to_end(raw):
    legs = raw["legs"]
    m = {
        "setup_s": (rep_time(raw["setup"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "exact_pmf_s": (rep_time(legs["exact"]["untraced"]), "s"),
    }
    for name, unit, leg, scale in RATE_METRICS:
        # Work per rep is fixed by the workload, so any rep's will do.
        work = legs[leg]["untraced"][0][0]
        m[name] = (work / rep_time(legs[leg]["untraced"]) * scale, unit)
    return m


def spans_of(raw):
    keys = ("id", "parent", "layer", "name", "start", "end", "aggregate", "calls", "lanes")
    return [dict(zip(keys, s)) for s in raw["spans"]]


def rep_median_s(spans, name):
    """Median over reps of the summed duration of the `name` spans of a rep
    (their parent is the rep's root span), in seconds."""
    per_rep = {}
    for s in spans:
        if s["name"] == name:
            per_rep[s["parent"]] = per_rep.get(s["parent"], 0) + s["end"] - s["start"]
    return statistics.median(per_rep.values()) * 1e-9


def per_layer(raw, spans, checks):
    legs = raw["legs"]
    m = {}
    for name, value in raw["probes"].items():
        unit = PROBE_UNIT.search(name)
        m[name] = (value, unit.group(1) if unit else "ratio")
    m["stats.operand_model_s"] = (statistics.median(raw["operand_model_s"]), "s")
    m["apps.trace_capture_s"] = (statistics.median(raw["trace_capture_s"]), "s")
    par = [s for leg in legs.values() if leg["parallel"] for s in leg["untraced"]]
    m["stats.executor_cpu_per_wall"] = (sum(s[2] for s in par) / sum(s[1] for s in par),
                                        "ratio")

    for name, leg, count in COUNT_METRICS:
        m[name] = (legs[leg]["counts"][count], "count")
    ev = legs["hetero"]["counts"]["hetero.evaluated"]
    m["analysis.hetero_prune_ratio"] = (legs["hetero"]["counts"]["hetero.pruned"] / ev,
                                        "ratio")
    for i in range(EXACT_RUNGS):
        m[f"core.exact_pmf_support.rung{i}"] = (
            legs["exact"]["counts"][f"exact.support.rung{i}"], "count")

    for i in range(EXACT_RUNGS):
        m[f"core.exact_pmf_s.rung{i}"] = (
            rep_median_s(spans, f"core.exact_error_distribution.rung{i}"), "s")
    m["core.exact_pmf_s.cond"] = (rep_median_s(spans, "core.exact_error_distribution.cond"),
                                  "s")

    selfs = benchlib.self_times(spans)
    for k in KERNELS:
        kernel = [s for s in spans if s["name"] == f"apps.{k}_batch"]
        agg = [s for s in spans if s["name"] == f"adders.add_batch.{k}"]
        wall = sum(s["end"] - s["start"] for s in kernel)
        calls = sum(s["calls"] for s in agg)
        m[f"adders.add_batch_calls.{k}"] = (calls / len(kernel), "count")
        m[f"adders.lane_fill.{k}"] = (sum(s["lanes"] for s in agg) / (64.0 * calls), "ratio")
        m[f"adders.add_batch_share.{k}"] = (sum(s["end"] - s["start"] for s in agg) / wall,
                                            "ratio")
        m[f"apps.self_share.{k}"] = (sum(selfs[s["id"]] for s in kernel) / wall, "ratio")
        # Every rep makes the same kernel calls in the same order, so the
        # per-call add_batch tallies must repeat rep for rep.
        rep_of = {s["id"]: s["parent"] for s in kernel}
        per_call = {}
        for s in agg:
            per_call.setdefault(rep_of[s["parent"]], []).append((s["calls"], s["lanes"]))
        checks.append({"name": f"repeat_counts.add_batch.{k}",
                       "ok": len({tuple(v) for v in per_call.values()}) == 1,
                       "detail": "add_batch calls or lanes drifted between reps"})

    cov = benchlib.coverage(spans)
    wall = sum(w for w, _ in cov.values())
    covered = sum(c for _, c in cov.values())
    m["trace.coverage"] = (covered / wall, "ratio")
    m["trace.unaccounted"] = (1.0 - covered / wall, "ratio")
    print("# layer coverage by leg: " + " ".join(f"{leg}={c / w:.3f}"
                                                  for leg, (w, c) in cov.items()))
    for leg_name, (w, c) in cov.items():
        checks.append({"name": f"trace_coverage.{leg_name}",
                       "ok": abs(1.0 - c / w) <= COVERAGE_TOLERANCE,
                       "detail": f"layers cover {c / w:.3f} of the leg's wall time"})
    traced = sum(s[1] for leg in legs.values() for s in leg["traced"])
    untraced = sum(s[1] for leg in legs.values() for s in leg["untraced"])
    m["trace.overhead"] = (traced / untraced, "ratio")
    return m


def report(raw, metrics, checks, stamp, spans):
    print(f"# perfbench workload={raw['workload']} seed={raw['seed']} rounds={raw['rounds']}")
    print("# host " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, leg in raw["legs"].items():
        st = benchlib.summary(rep_times(leg))
        tail = (f" p{st['tail_pct']:g}={st['tail']:.4f}s" if "tail" in st
                else " (too few reps for a tail percentile)")
        norm = [x[1] * CALIBRATION_REF_S / x[3] for x in leg["untraced"]]
        print(f"#   leg {leg['group']}.{name}: rep median={st['median']:.4f}s{tail} "
              f"n={st['n']} spread={benchlib.spread(rep_times(leg)):.3f}; normalised "
              f"median={statistics.median(norm):.4f}s spread={benchlib.spread(norm):.3f}")
    if spans:
        layers = benchlib.layer_self_times(spans)
        total = sum(layers.values())
        print("# self time by layer: " + " ".join(
            f"{layer}={ns * 1e-9:.3f}s({ns / total:.1%})"
            for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1])))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    for c in checks:
        if not c["ok"]:
            print(f"# FAILED check {c['name']}: {c['detail']}")


def main(argv):
    args = benchlib.parse_args(argv, WORKLOADS)
    root = Path.cwd()
    if not (root / "perfbench" / "CMakeLists.txt").is_file():
        fail("run from the root of a checkout (perfbench/CMakeLists.txt not found)")
    started = time.monotonic()
    build(root)
    out_dir = root / BUILD_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw = run_runner(root, args, out_path)

    stamp = dict(raw["stamp"])
    stamp["commit"] = git_commit(root)
    stamp["source_digest"] = source_digest(root)
    checks = list(raw["checks"])
    spans = spans_of(raw)
    if args.trace:
        metrics = per_layer(raw, spans, checks)
    else:
        metrics = end_to_end(raw)
    failed = sum(1 for c in checks if not c["ok"])
    if args.trace:
        metrics["check_fail_ratio"] = (failed / len(checks), "ratio")

    report(raw, metrics, checks, stamp, spans)
    summary_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.summary.json"
    summary_path.write_text(json.dumps({
        "stamp": stamp, "checks": checks, "wall_s": time.monotonic() - started,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
