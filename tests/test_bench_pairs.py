"""`scripts/bench_pairs.py` on synthetic tables: the summary it writes, the
bound test, the peak-RSS slope and the verdict on a claimed gain.

No benchmark runs: every subprocess the script could start raises instead.
"""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "op_ms_p95": {"better": "lower", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a test started a subprocess")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)


def table(samples, **metrics):
    return {"samples": samples, **metrics}


@pytest.mark.parametrize("parent, change, higher, loss", [
    (100, 90, True, 0.1),
    (100, 110, True, -0.1),
    (2, 3, False, 0.5),
    (2, 1, False, -0.5),
    (0, 1, False, math.inf),
    (0, 0, False, 0.0),
    (0, -1, False, 0.0),
])
def test_worse_by(parent, change, higher, loss):
    assert bench_pairs.worse_by(parent, change, higher) == pytest.approx(loss)


def test_rss_slope_is_one_slope_with_an_intercept_per_table():
    # 1 MB per 1,000 samples on both sides, 10 MB apart
    parent = table([1000, 2000, 3000], peak_rss_mb=[10.0, 11.0, 12.0])
    change = table([1000, 3000], peak_rss_mb=[20.0, 22.0])
    assert bench_pairs.rss_slope(parent, change) == pytest.approx(0.001)
    assert bench_pairs.rss_slope(parent) == pytest.approx(0.001)
    # runs with missing values are left out; one sample count gives no slope
    assert bench_pairs.rss_slope(table([1000, None], peak_rss_mb=[10.0, 11.0])) is None
    assert bench_pairs.rss_slope(table([1000, 1000], peak_rss_mb=[10.0, 11.0])) is None


def test_summarize():
    parent = table([1000, 1000, 1000, 1000], ops_per_s=[100.0, 102.0, 98.0, 100.0],
                   op_ms_p95=[4.0, 4.0, 4.2, 3.8], peak_rss_mb=[10.0, 10.0, 10.0, 10.0])
    change = table([2000, 2000, 2000, 2000], ops_per_s=[80.0, 81.0, 79.0, 104.0],
                   op_ms_p95=[2.0, 2.1, 1.9, 2.0], peak_rss_mb=[11.0, 11.0, 11.0, 11.0])
    out = bench_pairs.summarize(parent, change, METRICS)
    ops = out["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (100.0, 80.5)
    assert ops["rel_change"] == pytest.approx(-0.195)
    assert (ops["pairs_change_better"], ops["pairs_change_worse"]) == (1, 3)
    assert out["op_ms_p95"]["rel_change"] == pytest.approx(-0.5)
    assert out["op_ms_p95"]["parent_iqr"] == pytest.approx(0.1)
    # ops_per_s is 19.5% worse: past half its bound of 25%; peak RSS 10%
    # worse with a bound of 10% sits on it, past half of it
    assert out["over_bound"] == []
    assert out["near_bound"] == ["ops_per_s", "peak_rss_mb"]
    assert out["samples_median"] == {"parent": 1000, "change": 2000}
    # no table has two sample counts, so no slope moves the RSS
    assert out["peak_rss_mb_at_parent_samples"] is None
    worse = dict(change, peak_rss_mb=[12.0, 12.0, 12.0, 12.0])
    assert bench_pairs.summarize(parent, worse, METRICS)["over_bound"] == ["peak_rss_mb"]


def test_peak_rss_at_the_parent_sample_count():
    unrun = {"ops_per_s": [None, None], "op_ms_p95": [None, None]}
    parent = table([1000, 2000], peak_rss_mb=[10.0, 11.0], **unrun)
    change = table([3000, 4000], peak_rss_mb=[12.5, 13.5], **unrun)
    out = bench_pairs.summarize(parent, change, METRICS)["peak_rss_mb_at_parent_samples"]
    assert out["samples"] == 1500 and out["mb_per_1000_samples"] == pytest.approx(1.0)
    assert out["parent"] == pytest.approx(10.5) and out["change"] == pytest.approx(11.0)
    assert out["rel_change"] == pytest.approx(0.0476, abs=1e-4)


def verdict(parent, change, higher=False):
    return bench_pairs.claim_verdict(table([None] * len(parent), m=parent),
                                     table([None] * len(change), m=change), "m", higher)


PARENT = [3.8, 3.9, 4.0, 3.9, 3.85, 3.95, 3.9, 4.05, 3.75, 3.9]


def test_claim_met_on_nine_pairs_of_ten_and_a_shift_past_the_iqr():
    change = [2.7] * 9 + [4.1]
    got = verdict(PARENT, change)
    assert (got["pairs_won"], got["pairs_run"], got["met"]) == (9, 10, True)
    assert got["median_shift"] == pytest.approx(1.2)
    assert got["parent_iqr"] == pytest.approx(0.075)
    assert got["shift_over_iqr"] == pytest.approx(16.0)


def test_claim_ties_count_for_neither():
    got = verdict(PARENT, [2.7] * 8 + PARENT[8:])
    assert (got["pairs_won"], got["pairs_run"], got["met"]) == (8, 10, False)
    assert verdict(PARENT, [2.7] * 9 + PARENT[9:])["met"]


def test_claim_needs_a_shift_past_the_parent_iqr():
    # every pair won, by less than the parent's own spread
    got = verdict(PARENT, [p - 0.01 for p in PARENT])
    assert (got["pairs_won"], got["met"]) == (10, False)
    assert got["shift_over_iqr"] < 1


def test_claim_direction_follows_the_metric():
    faster = [p * 1.3 for p in PARENT]
    assert verdict(PARENT, faster, higher=True)["met"]
    assert not verdict(PARENT, faster, higher=False)["met"]
    assert verdict(PARENT, faster, higher=False)["pairs_won"] == 0


def test_claim_on_no_pairs_is_not_met():
    got = verdict([None, 1.0], [2.0, None])
    assert (got["pairs_run"], got["met"], got["shift_over_iqr"]) == (0, False, None)


@pytest.mark.parametrize("text", ["op_ms_p95", "op_ms_p95@", "nope@congruent-pairs",
                                  "op_ms_p95@reduce-words"])
def test_claim_names_a_run_workload_and_an_end_to_end_metric(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_claim(text, METRICS, ["congruent-pairs"])
    assert bench_pairs.parse_claim("op_ms_p95@congruent-pairs", METRICS,
                                   ["congruent-pairs"]) == ("op_ms_p95", "congruent-pairs")


def test_a_bad_claim_is_a_usage_error_before_any_run(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--out", str(tmp_path / "out.json"), "--workloads", "reduce-words",
                          "--claim", "op_ms_p95@congruent-pairs"])
    assert exit_info.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
