"""Helpers for perfbench/run.py: argument parsing, the summary statistics
the benchmark reports, and span self-time accounting.

Kept free of I/O so perfbench/tests can exercise every rule directly.
"""

import argparse
import math
import statistics

# A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _seed(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("seed must be a non-negative whole number")
    value = int(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be a whole number >= 1")
    return int(text)


def parse_args(argv, workloads):
    """Parses the benchmark's command line; argparse exits with code 2 on
    any malformed or missing argument."""
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--seconds", required=True, type=_positive_int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def normalised_median(samples, reference_s):
    """Median rep time with the host's speed factored out: each sample's
    time scaled by reference_s over the calibration time measured around
    it. A sample is [work, secs, cpu_s, calib_s]."""
    return statistics.median(s[1] * reference_s / s[3] for s in samples)


def tail_percentile(values):
    """The highest whole percentile that has at least MIN_SAMPLES_BEYOND
    samples above its nearest rank, as (pct, value); None when that
    percentile would not lie above the median."""
    n = len(values)
    if n <= MIN_SAMPLES_BEYOND:
        return None
    pct = 100 * (n - MIN_SAMPLES_BEYOND) // n
    if pct <= 50:
        return None
    return pct, nearest_rank(values, pct)


def summary(values):
    """Median, tail percentile and sample count of one timing."""
    out = {"n": len(values), "median": statistics.median(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_pct"], out["tail"] = tail
    return out


def spread(values):
    """Run-to-run spread: the distance between the first and third
    quartiles (statistics.quantiles, n=4) as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of `intervals`."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span, keyed by id: its duration minus the part
    of its interval its children cover. Children that overlap each other
    (work on several threads) count once. An aggregate child stands for
    many calls inside its parent and subtracts its summed duration; an
    aggregate span has no children and is all self time.

    Each span is a dict with id, parent, start, end and aggregate.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        dur = s["end"] - s["start"]
        kids = children.get(s["id"], [])
        if s["aggregate"] or not kids:
            out[s["id"]] = dur
            continue
        intervals = [(k["start"], k["end"]) for k in kids if not k["aggregate"]]
        aggregated = sum(k["end"] - k["start"] for k in kids if k["aggregate"])
        out[s["id"]] = max(0, dur - _covered(intervals, s["start"], s["end"]) - aggregated)
    return out


def layer_self_times(spans):
    """Summed self time per layer."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0) + selfs[s["id"]]
    return out


def coverage(spans, root_layer="bench"):
    """Per root span name: (wall, covered) where wall sums the root spans'
    durations and covered sums the self times of every span below them.
    covered / wall is the share of the wall the layers account for."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    root_of = {}

    def find_root(s):
        if s["id"] not in root_of:
            root_of[s["id"]] = s["id"] if s["parent"] < 0 else find_root(by_id[s["parent"]])
        return root_of[s["id"]]

    out = {}
    for s in spans:
        root = by_id[find_root(s)]
        if root["layer"] != root_layer:
            continue
        wall, covered = out.get(root["name"], (0, 0))
        if s["id"] == root["id"]:
            wall += s["end"] - s["start"]
        else:
            covered += selfs[s["id"]]
        out[root["name"]] = (wall, covered)
    return out
