#!/usr/bin/env python3
"""Run the benchmark on a parent revision and on the working tree, in pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seeds 1-10 \\
        --workloads canon-orbit congruent-pairs --out BENCH_N.json \\
        --claim op_ms_p95@congruent-pairs

The parent revision is exported with `git archive`, and the working tree's
tracked and untracked (not ignored) files are copied, each into its own
temporary directory, so both sides run from fresh checkouts with identical
layout.  For each workload and seed the script runs the command of
BENCHMARK.json once on each side, alternating which side runs first (odd
seeds: parent first), and records every end-to-end metric, the number of
timed samples, and the correctness and attempted/failed counts of each run.
Per workload it writes each metric's medians, the parent's interquartile
range, how many pairs the change won and lost, and the slope of
peak_rss_mb against timed samples on each side (MB per 1,000 samples).
Because bench/run.py keeps the result of every timed sample, a faster side
stores more of them; so it also gives each side's median peak_rss_mb moved
to the parent's median sample count along one slope fitted over both sides'
runs (each side keeps its own intercept), which separates the program's
memory from the results the harness stores.
Each workload's `over_bound` lists the end-to-end metrics whose change
median is worse than the parent's median by more than the metric's bound
in BENCHMARK.json (a relative change; from a parent median of 0, any
worsening counts), the same test the benchmark gate makes; its
`near_bound` lists those worse by more than half their bound (the
over-bound ones included), so a metric creeping toward its bound shows
before the gate trips.
With `--claim METRIC@WORKLOAD`, that workload's summary also gets a `claim`
block: the pairs the change won out of the pairs run (ties count for
neither), the shift of the median in the better direction, the parent's
interquartile range and their ratio, and `met`, true when the change won
at least nine tenths of the pairs and the shift exceeds the parent's
interquartile range.
It reads bench/ and changes nothing in the repository except the output
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def export_revision(rev: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o",
                    str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def interpreter(command) -> str:
    """Implementation and version of the interpreter the command runs."""
    probe = "import platform; print(platform.python_implementation(), platform.python_version())"
    proc = subprocess.run([*command[:-1], "-c", probe], capture_output=True, text=True)
    return proc.stdout.strip()


def copy_working_tree(dest: Path) -> None:
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(tree: Path, command, workload: str, seed: int, seconds) -> dict:
    """One benchmark run in `tree`: its result line plus its timed samples."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    record = tree / "bench" / "out" / f"{workload}-seed{seed}-trace0.json"
    samples = None
    if record.is_file():
        samples = json.loads(record.read_text()).get("loop", {}).get("samples")
    return {"exit": proc.returncode, "result": result, "samples": samples}


def side_table(runs, metrics) -> dict:
    table = {
        "samples": [r["samples"] for r in runs],
        "attempted_failed": [[r["result"].get("attempted"), r["result"].get("failed")]
                             for r in runs],
        "correct": [r["result"].get("correct", False) and r["exit"] == 0 for r in runs],
    }
    for name in metrics:
        table[name] = [r["result"].get("metrics", {}).get(name, {}).get("value")
                       for r in runs]
    return table


def quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def rss_points(table) -> list[tuple[int, float]]:
    """(timed samples, peak_rss_mb) of each run that reported both."""
    return [(s, r) for s, r in zip(table["samples"], table.get("peak_rss_mb", []))
            if s is not None and r is not None]


def rss_slope(*tables):
    """Least-squares MB of peak RSS per timed sample, one slope over the runs
    of all the tables, each table with its own intercept; None when no table
    has two different sample counts."""
    num = den = 0.0
    for points in map(rss_points, tables):
        if not points:
            continue
        ms = statistics.fmean(s for s, _ in points)
        mr = statistics.fmean(r for _, r in points)
        num += sum((s - ms) * (r - mr) for s, r in points)
        den += sum((s - ms) ** 2 for s, _ in points)
    return num / den if den else None


def per_1000(slope):
    return None if slope is None else round(1000 * slope, 4)


def rss_at_samples(parent: dict, change: dict, samples) -> dict | None:
    """Each side's median peak_rss_mb moved to `samples` timed samples along
    the slope fitted over both sides."""
    slope = rss_slope(parent, change)
    if slope is None:
        return None
    out = {"samples": samples, "mb_per_1000_samples": per_1000(slope)}
    for side, table in (("parent", parent), ("change", change)):
        moved = [r + slope * (samples - s) for s, r in rss_points(table)]
        out[side] = round(statistics.median(moved), 4) if moved else None
    if out["parent"] and out["change"] is not None:
        out["rel_change"] = round((out["change"] - out["parent"]) / out["parent"], 4)
    return out


def worse_by(parent_median, change_median, higher_is_better: bool) -> float:
    """How much worse the change median is than the parent's, relative to
    it (negative when better); from a parent median of 0, infinite when
    worse and 0 otherwise."""
    loss = parent_median - change_median if higher_is_better else change_median - parent_median
    if parent_median:
        return loss / abs(parent_median)
    return float("inf") if loss > 0 else 0.0


def claim_verdict(parent: dict, change: dict, name: str, higher_is_better: bool) -> dict:
    """Whether the change gains on metric `name`: at least 9 of 10 pairs
    won, ties counting for neither, and the medians apart by more than the
    parent's interquartile range in the better direction."""
    pairs = [(p, c) for p, c in zip(parent[name], change[name])
             if p is not None and c is not None]
    won = sum((c > p) if higher_is_better else (c < p) for p, c in pairs)
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    shift = iqr = 0.0
    if pairs:
        shift = statistics.median(cs) - statistics.median(ps)
        shift = shift if higher_is_better else -shift
        iqr = quartile_spread(ps)
    return {
        "metric": name, "pairs_won": won, "pairs_run": len(pairs),
        "median_shift": round(shift, 5), "parent_iqr": round(iqr, 5),
        "shift_over_iqr": round(shift / iqr, 3) if iqr else None,
        "met": bool(pairs) and 10 * won >= 9 * len(pairs) and shift > iqr,
    }


def parse_claim(text: str, metrics, workloads) -> tuple[str, str]:
    """METRIC@WORKLOAD as (metric, workload); ValueError when either is not
    one the run reports."""
    metric, _, workload = text.partition("@")
    if metric not in metrics or workload not in workloads:
        raise ValueError(f"--claim {text!r}: expected METRIC@WORKLOAD with an end-to-end "
                         f"metric of BENCHMARK.json and a workload that is run")
    return metric, workload


def summarize(parent: dict, change: dict, metrics: dict) -> dict:
    out = {}
    over_bound, near_bound = [], []
    for name, spec in metrics.items():
        pairs = [(p, c) for p, c in zip(parent[name], change[name])
                 if p is not None and c is not None]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        higher = spec["better"] == "higher"
        better = sum((c > p) if higher else (c < p) for p, c in pairs)
        worse = sum((c < p) if higher else (c > p) for p, c in pairs)
        pm, cm = statistics.median(ps), statistics.median(cs)
        iqr = quartile_spread(ps)
        out[name] = {
            "parent_median": round(pm, 5), "change_median": round(cm, 5),
            "rel_change": round((cm - pm) / pm, 4) if pm else None,
            "parent_iqr": round(iqr, 5),
            "parent_iqr_over_median": round(iqr / pm, 4) if pm else None,
            "pairs_change_better": better, "pairs_change_worse": worse,
        }
        loss = worse_by(pm, cm, higher)
        if loss > spec["bound"]:
            over_bound.append(name)
        if loss > spec["bound"] / 2:
            near_bound.append(name)
    out["over_bound"] = over_bound
    out["near_bound"] = near_bound
    out["samples_median"] = {
        side: statistics.median(s for s in table["samples"] if s is not None)
        for side, table in (("parent", parent), ("change", change))
        if any(s is not None for s in table["samples"])
    }
    out["rss_mb_per_1000_samples"] = {
        side: per_1000(rss_slope(table))
        for side, table in (("parent", parent), ("change", change))
    }
    if "parent" in out["samples_median"]:
        out["peak_rss_mb_at_parent_samples"] = rss_at_samples(
            parent, change, out["samples_median"]["parent"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare with")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD",
                        help="judge a claimed gain on one metric of one workload")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = args.seconds if args.seconds is not None else bench.get("run_seconds")
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    claim = None
    if args.claim:
        try:
            claim = parse_claim(args.claim, metrics, workloads)
        except ValueError as exc:
            parser.error(str(exc))
    parent_rev = git("rev-parse", args.parent).strip()

    doc = {
        "what": "bench/run.py end-to-end metrics at the parent commit and with this "
                "change, same seeds on both sides, alternating which side runs first "
                "(odd seeds: parent first)",
        "parent_commit": parent_rev,
        "command": " ".join(command) + " --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "interpreter": interpreter(command),
        "host": {"machine": platform.machine(), "nproc": os.cpu_count()},
        "workloads": {},
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_revision(parent_rev, trees["parent"])
        copy_working_tree(trees["change"])
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], command, workload, seed, seconds)
                    runs[side].append(run)
                    value = run["result"].get("metrics", {}).get("ops_per_s", {})
                    print(f"{workload} seed {seed} {side}: exit {run['exit']}, "
                          f"ops_per_s {value.get('value')}, samples {run['samples']}",
                          file=sys.stderr, flush=True)
            tables = {side: side_table(r, metrics) for side, r in runs.items()}
            doc["workloads"][workload] = {"seeds": seeds, **tables}
            doc["summary"][workload] = summarize(tables["parent"], tables["change"], metrics)
            if claim and claim[1] == workload:
                doc["summary"][workload]["claim"] = claim_verdict(
                    tables["parent"], tables["change"], claim[0],
                    metrics[claim[0]]["better"] == "higher")
            # written after each workload, so an interrupted run keeps what it finished
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
