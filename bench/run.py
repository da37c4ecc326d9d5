#!/usr/bin/env python3
"""quadalg benchmark: one command, three workloads, checked answers.

    python3 bench/run.py --workload canon-orbit --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout, with the interpreter named in
BENCHMARK.json.  It builds the workload's corpus from the seed, measures
set-up in fresh interpreters, drives the operations in a closed loop with
one client, in passes over the corpus until `--seconds` have passed, with
fresh per-process state for every pass, grades every answer independently,
and prints one JSON object as its last line.  Times are scaled to the speed
of a reference kernel timed next to each op (refclock.py).  `--trace 0`
gives the end-to-end metrics; `--trace 1` gives the per-layer metrics of
layers.py instead.  A wrong answer exits 1; a missing source tree exits 2
without a result.  Details of each run (seed, interpreter, nproc, commit,
stratum shares) go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from children import run_child, spawn_env
from exact import WrongVerdict
from refclock import ref_time, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5         # fresh interpreters before the loop, after one unmeasured
PROBE_EVERY_S = 2.0      # one more between two ops of the loop this often; setup_s
                         # is the median of all, spread in time against noisy tenants
WARMUP_OPS = 5           # untimed, graded at once so a wrong answer fails fast
TRACE_OPS = 100          # fixed op list of the traced passes
CLI_MAIN_OPS = 20        # ops replayed through the in-process cli.main
SPAWN_PROBES = 5         # interpreter-start and import probes in a traced run

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p95": "ms",
    "cpu_ms_per_op": "ms", "failed_frac": "ratio", "peak_rss_mb": "MB",
}


class SetupFailure(Exception):
    pass


def _first_line(exc: BaseException) -> str:
    lines = f"{type(exc).__name__}: {exc}".strip().splitlines()
    return lines[0] if lines else type(exc).__name__


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


# --- set-up ----------------------------------------------------------------


def measure_setup(env, count: int, warm: bool) -> list:
    """(corrected, raw) set-up times of `count` fresh interpreters; with
    `warm`, after one unmeasured probe that also compiles the package's
    bytecode.  The correction uses the median kernel time in the probe."""
    times = []
    for i in range(count + warm):
        try:
            code, stdout, stderr = run_child(
                [sys.executable, str(HERE / "setup_probe.py")], ROOT, env)
        except subprocess.TimeoutExpired:
            raise SetupFailure("set-up probe timed out") from None
        lines = stdout.strip().splitlines()
        doc = json.loads(lines[-1]) if lines else {"error": stderr.strip()[-200:]}
        if code != 0 or "error" in doc:
            raise SetupFailure(doc.get("error") or f"set-up probe exited {code}")
        if i or not warm:
            ref = statistics.median(doc["ref_s"])
            times.append((doc["setup_s"] * scale(ref, ref), doc["setup_s"]))
    return times


def spawn_ms(argv, env) -> float:
    walls = []
    for _ in range(SPAWN_PROBES):
        t0 = time.perf_counter()
        code, _, stderr = run_child(argv, ROOT, env)
        walls.append((time.perf_counter() - t0) * 1e3)
        if code != 0:
            raise SetupFailure(stderr.strip()[-200:])
    return statistics.median(walls)


# --- the closed loop ---------------------------------------------------------


class Outcomes:
    """Results of timed ops, graded after the loop so grading is not timed."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}        # item id -> (result, refusal)
        self.repeats = []      # (item id, result, refusal)
        self.info = {}         # item id -> grading info

    def add(self, item, result, refusal) -> None:
        if item["id"] in self.first:
            self.repeats.append((item["id"], result, refusal))
        else:
            self.first[item["id"]] = (result, refusal)

    def grade(self) -> None:
        wl = self.wl
        for i, (result, refusal) in self.first.items():
            if refusal is None:
                self.info[i] = wl.check(wl.items[i], result)
        for i, result, refusal in self.repeats:
            first, first_refusal = self.first[i]
            if (refusal is None) != (first_refusal is None) or (
                    refusal is None and wl.summary(result) != wl.summary(first)):
                raise WrongVerdict(f"op {i} gave a different answer on a repeat")


def call(op, item):
    """(result, refusal) of one op."""
    try:
        return op(item), None
    except Exception as exc:  # any raise is a refusal: counted, not graded
        return None, _first_line(exc)


def warm_up(wl, order) -> None:
    wl.load()
    for idx in order[:WARMUP_OPS]:
        item = wl.items[idx]
        result, refusal = call(wl.run, item)
        if refusal is None:
            wl.check(item, result)


def _cost_metrics(walls, cpus, stat) -> dict:
    """The timing metrics from per-op samples, each op reduced by `stat`."""
    costs = [stat(w) for w in walls]
    return {
        "ops_per_s": len(costs) / sum(costs),
        "op_ms_p50": percentile(costs, 0.50) * 1e3,
        "op_ms_p95": percentile(costs, 0.95) * 1e3,
        "cpu_ms_per_op": sum(stat(c) for c in cpus) / len(cpus) * 1e3,
    }


def timed_loop(wl, order, seconds: float, probe):
    """Passes over the corpus until `seconds` have passed; the first pass is
    always whole, the last one stops at the deadline.

    The machine's speed changes by 1.6-1.9x from one tenth-second or
    minute to the next (refclock.py), so every op is bracketed by timings
    of the reference kernel, and its wall and CPU times are scaled to the
    kernel's reference speed.  An op's cost is the median of its scaled
    samples over the passes.  Each pass after the first takes the ops in a
    new seeded order, so that no op meets the same neighbours, garbage
    collections or mode switches on every pass.  The unscaled per-op
    minima are kept in the run record, with the raw loop rate.
    Every pass starts from fresh per-process state (`wl.load`, untimed), so
    a cache that outlives a call cannot turn later passes into lookups.
    Every PROBE_EVERY_S, between two ops, `probe()` measures set-up in a
    fresh interpreter, so setup_s samples the same stretch of time.
    failed_frac is the refused share of the first, whole pass: repeats must
    agree with it, and a pass cut at the deadline would weigh ops unevenly.
    For the same reason the result line's `attempted` and `failed` count
    each corpus item once, from that pass: the repeats are timing samples,
    and their number depends on the machine's speed, not on the program.
    """
    outcomes = Outcomes(wl)
    n = len(order)
    walls = [[] for _ in range(n)]   # scaled samples per item
    cpus = [[] for _ in range(n)]
    raw_walls = [[] for _ in range(n)]
    raw_cpus = [[] for _ in range(n)]
    attempted = passes = 0
    refusals = Counter()
    t_start = time.perf_counter()
    deadline, next_probe = t_start + seconds, t_start + PROBE_EVERY_S
    reorder = random.Random(f"passes:{wl.seed}")
    pass_order = list(order)
    while passes == 0 or time.perf_counter() < deadline:
        wl.load()
        ref_before = ref_time()
        for idx in pass_order:
            if passes and time.perf_counter() >= deadline:
                break
            item = wl.items[idx]
            c0, t0 = time.process_time(), time.perf_counter()
            result, refusal = call(wl.run, item)
            t1, c1 = time.perf_counter(), time.process_time()
            ref_after = ref_time()
            k = scale(ref_before, ref_after)
            walls[idx].append((t1 - t0) * k)
            cpus[idx].append((c1 - c0) * k)
            raw_walls[idx].append(t1 - t0)
            raw_cpus[idx].append(c1 - c0)
            ref_before = ref_after
            attempted += 1
            if refusal is not None:
                refusals[refusal.split(":")[0]] += 1
            outcomes.add(item, result, refusal)
            if t1 >= next_probe:
                probe()
                next_probe = time.perf_counter() + PROBE_EVERY_S
                ref_before = ref_time()
        passes += 1
        reorder.shuffle(pass_order)
    loop_s = time.perf_counter() - t_start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = _cost_metrics(walls, cpus, statistics.median)
    failed = sum(r is not None for _, r in outcomes.first.values())
    metrics["failed_frac"] = failed / n
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    return metrics, outcomes, {"attempted": n, "failed": failed, "passes": passes,
                               "samples": attempted, "refused_samples": dict(refusals),
                               "loop_s": loop_s, "loop_ops_per_s": attempted / loop_s,
                               "samples_per_op": attempted / n,
                               "unscaled_minima": _cost_metrics(raw_walls, raw_cpus, min)}


# --- the traced run ------------------------------------------------------------


def in_process_cli(argv):
    import quadalg.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def traced_run(wl, order, env, uv_bridge_s):
    from layers import DEPTHS, REPORT_BUILDERS, ScalarCounter, SpanTracer

    ops = [wl.items[i] for i in order[:TRACE_OPS]]

    def one_pass(tracer=None):
        outcomes = Outcomes(wl)
        wl.load()
        t0 = time.perf_counter()
        for k, item in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            result, refusal = call(wl.run, item)
            outcomes.add(item, result, refusal)
        return time.perf_counter() - t0, outcomes

    plain_s, plain = one_pass()
    tracers = []
    for _ in range(2):
        tracer = SpanTracer()
        tracer.install()
        try:
            traced_s, outcomes = one_pass(tracer)
        finally:
            tracer.uninstall()
        tracers.append((tracer, traced_s, outcomes))
    plain_s = min(plain_s, one_pass()[0])  # untraced passes bracket the traced ones
    counter = ScalarCounter()
    counter.install()
    try:
        one_pass()
    finally:
        counter.uninstall()
    kernel = counter.kernel_us()

    cli_ops = ops[:CLI_MAIN_OPS]
    t0 = time.perf_counter()
    for item in cli_ops:
        in_process_cli(wl.cli_argv(item))
    cli_main_ms = (time.perf_counter() - t0) / len(cli_ops) * 1e3
    start_ms = spawn_ms([sys.executable, "-c", "pass"], env)
    import_ms = spawn_ms([sys.executable, "-c", "import quadalg.cli"], env) - start_ms

    for _, _, outcomes in tracers:  # traced answers must match the untraced ones
        plain.repeats += [(i, res, ref) for i, (res, ref) in outcomes.first.items()]
    plain.grade()

    (tracer, traced_s, _), (tracer2, traced2_s, _) = tracers
    traced_s = min(traced_s, traced2_s)
    aggs = [t.aggregate() for t in (tracer, tracer2)]
    counts = [{name: a["calls"] for name, a in agg.items()} for agg in aggs]
    if counts[0] != counts[1] or tracer.terms_out != tracer2.terms_out:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        raise WrongVerdict("two traced passes over the same ops gave different call counts: "
                           + ", ".join(f"{k} {counts[0].get(k)}/{counts[1].get(k)}" for k in diff))
    agg = aggs[0]
    n = len(ops)

    def span(name):
        return agg.get(name, {"calls": 0, "total": 0.0, "self": 0.0})

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for kind in ("mul", "add", "inv", "eq"):
        for d in DEPTHS:
            put(f"scalar.{kind}.d{d}.calls", counter.calls[(kind, d)], "count")
    for kind in ("mul", "inv"):
        for d in DEPTHS:
            put(f"scalar.{kind}.d{d}.us", kernel[(kind, d)], "us")
    put("scalar.sqrt_extend.calls", counter.sqrt_calls, "count")
    put("scalar.sqrt_extend.new_level", counter.sqrt_new_level, "count")
    put("scalar.tower_growth.calls", counter.growth, "count")
    for name in ("matrix.apply_congruence", "matrix.p_compose", "matrix.p_invert",
                 "congruence2.canon2", "sfcanon.sf_canonicalize", "sfcanon.verify_witness",
                 "polyio.parse_poly", "polyio.format_poly", "ncrewrite.reduce"):
        put(f"{name}.calls", span(name)["calls"], "count")
        put(f"{name}.self_ms", span(name)["self"] / n * 1e3, "ms/op")
    put("sfcanon.sf_canonicalize.total_ms", span("sfcanon.sf_canonicalize")["total"] / n * 1e3,
        "ms/op")
    put("sfcanon.sf_canonicalize.calls_per_op", span("sfcanon.sf_canonicalize")["calls"] / n,
        "count/op")
    for name in ("sfcanon.sf_congruent", "algebra.classify", "algebra.iso_check",
                 "algebra.classify_h"):
        put(f"{name}.calls", span(name)["calls"], "count")
        put(f"{name}.total_ms", span(name)["total"] / n * 1e3, "ms/op")
    put("algebra.verified_uv_bridge.total_ms", uv_bridge_s * 1e3, "ms")
    put("polyio.report.self_ms",
        sum(span("polyio." + b)["self"] for b in REPORT_BUILDERS) / n * 1e3, "ms/op")
    put("ncrewrite.reduce.terms_out", tracer.terms_out, "count")
    put("cli.interpreter_start_ms", start_ms, "ms")
    put("cli.import_ms", import_ms, "ms")
    put("cli.main.ms", cli_main_ms, "ms")
    put("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio")

    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl")
    under = {k: v / n * 1e3 for k, v in tracer.self_under("sfcanon.sf_canonicalize").items()}
    detail = {"ops": n, "traced_s": traced_s, "untraced_s": plain_s,
              "self_ms_per_op_under_sf_canonicalize": under}
    return metrics, plain, detail


# --- records -------------------------------------------------------------------


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def stratum_shares(wl, outcomes) -> dict:
    """Shares of the corpus with each property, over the graded first pass."""
    strata, classes, depths, refusals = Counter(), Counter(), Counter(), Counter()
    tower_depth = 0
    for i, (_, refusal) in outcomes.first.items():
        strata[wl.items[i]["stratum"]] += 1
        if refusal is not None:
            kind = refusal.split(":")[0]
            classes["refused:" + kind] += 1
            refusals[kind] += 1
            tower_depth += "tower depth" in refusal
            continue
        info = outcomes.info.get(i, {})
        classes[info.get("class", "?")] += 1
        if "depth" in info:
            depths[str(info["depth"])] += 1
    total = max(1, len(outcomes.first))

    def share(c):
        return {k: round(v / total, 4) for k, v in sorted(c.items())}

    return {"items": len(outcomes.first), "strata": share(strata), "class_mix": share(classes),
            "witness_tower_depth": share(depths), "refusals": share(refusals),
            "tower_depth_refusal_share": round(tower_depth / total, 4)}


def end_to_end(values) -> dict:
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def emit(correct, attempted, failed, metrics) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("canon-orbit", "congruent-pairs", "reduce-words"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadalg" / "__init__.py").is_file():
        print(f"error: no quadalg source tree at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "executable": sys.executable, "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)), "commit": git_commit()}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    def setup_failed(exc) -> int:
        print(f"set-up failed: {exc}", file=sys.stderr)
        record["setup_error"] = str(exc)
        record_path.write_text(json.dumps(record, indent=1))
        emit(False, 1, 1, end_to_end({"failed_frac": 1.0}))
        return 1

    env = spawn_env(SRC)
    try:
        setup_times = measure_setup(env, SETUP_PROBES, warm=True)
        import quadalg  # noqa: F401  (the probes showed it imports)
        import quadalg.algebra as algebra
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed)
        for name in ("h_kx", "h_os", "h_sxx", "u", "v"):
            quadalg.load_system(name)
        t0 = time.perf_counter()
        algebra.verified_uv_bridge()
        uv_bridge_s = time.perf_counter() - t0
    except SetupFailure as exc:
        return setup_failed(exc)

    order = list(range(len(wl.items)))
    random.Random(f"order:{args.seed}").shuffle(order)
    record["corpus_items"] = len(order)
    try:
        warm_up(wl, order)
        if args.trace:
            metrics, outcomes, detail = traced_run(wl, order, env, uv_bridge_s)
            attempted = detail["ops"]
            failed = sum(1 for _, r in outcomes.first.values() if r is not None)
            record["trace_detail"] = detail
        else:
            metrics, outcomes, detail = timed_loop(
                wl, order, args.seconds,
                lambda: setup_times.extend(measure_setup(env, 1, warm=False)))
            outcomes.grade()
            metrics["setup_s"] = statistics.median(t for t, _ in setup_times)
            metrics = end_to_end(metrics)
            attempted, failed = detail["attempted"], detail["failed"]
            record["loop"] = detail
            record["setup_s_samples"] = setup_times  # (scaled, raw)
            record["setup_s_unscaled"] = statistics.median(r for _, r in setup_times)
    except WrongVerdict as exc:
        print(f"wrong verdict: {exc}", file=sys.stderr)
        record["wrong_verdict"] = str(exc)
        record_path.write_text(json.dumps(record, indent=1))
        emit(False, 1, 0, {})
        return 1
    except SetupFailure as exc:  # a probe between two ops
        return setup_failed(exc)
    record["shares"] = stratum_shares(wl, outcomes)
    record["metrics"] = metrics
    record_path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"shares": record["shares"]}), file=sys.stderr)
    emit(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
