"""Verdicts of scripts/bench_pairs.py on fake benchmark records."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_pairs
_spec.loader.exec_module(bench_pairs)

DECLARED = {"wall_s": ("lower", 0.25)}


def _record(wall: float, correct: bool = True, attempted: int = 8, failed: int = 0) -> dict:
    return {"seconds": 30, "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def _pairs(n: int = 10) -> list[dict]:
    """n pairs where the change is clearly faster and every run is sound."""
    return [{"seed": i, "order": ["base", "head"],
             "base": _record(2.0 + 0.01 * i), "head": _record(1.3 + 0.01 * i)}
            for i in range(n)]


def test_sound_faster_change_shows_a_gain():
    group = bench_pairs._group("fine-forced", "run", _pairs(), DECLARED)
    assert group["checks"]["head_sound"]
    assert group["checks"]["head"] == {"correct_runs": 10, "attempted": 80, "failed": 0}
    assert group["seconds"] == [30]
    wall = group["summary"]["wall_s"]
    assert wall["head_wins"] == 10
    assert wall["within_bound"] and wall["gain_shown"]


def test_incorrect_change_run_voids_both_verdicts():
    pairs = _pairs()
    pairs[3]["head"]["correct"] = False
    group = bench_pairs._group("fine-forced", "run", pairs, DECLARED)
    assert group["checks"]["head"]["correct_runs"] == 9
    assert not group["checks"]["head_sound"]
    wall = group["summary"]["wall_s"]
    assert not wall["within_bound"] and not wall["gain_shown"]


@pytest.mark.parametrize(("base_failed", "head_failed", "head_attempted", "sound"), [
    (0, 1, 8, False),   # the change fails a job the base does not
    (1, 2, 8, False),   # a larger share of the same number of jobs
    (1, 2, 16, True),   # the same share of twice as many jobs
    (2, 1, 8, True),    # fewer failures than the base
])
def test_failed_share_against_the_base_run(base_failed, head_failed, head_attempted, sound):
    pairs = _pairs()
    pairs[0]["base"]["failed"] = base_failed
    pairs[0]["head"].update(failed=head_failed, attempted=head_attempted)
    group = bench_pairs._group("fine-forced", "run", pairs, DECLARED)
    assert group["checks"]["head_fails_more"] == (0 if sound else 1)
    assert group["summary"]["wall_s"]["gain_shown"] is sound


def test_an_incorrect_base_run_does_not_void_the_change():
    pairs = _pairs()
    pairs[0]["base"]["correct"] = False
    group = bench_pairs._group("fine-forced", "run", pairs, DECLARED)
    assert group["checks"]["base"]["correct_runs"] == 9
    assert group["summary"]["wall_s"]["gain_shown"]


def test_setup_probe_summary_counts_wins_ties_and_medians():
    def probe(seconds: float) -> dict:
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"setup_s": {"value": seconds, "unit": "s"}}}

    pairs = [{"seed": 1, "order": ["base", "head"], "base": probe(0.20 + 0.01 * i),
              "head": probe(0.18 + 0.01 * i)} for i in range(5)]
    pairs.append({"seed": 1, "order": ["head", "base"], "base": probe(0.3), "head": probe(0.3)})
    group = bench_pairs._group("forced-sweep", "setup", pairs, {"setup_s": ("lower", 0.25)})
    setup = group["summary"]["setup_s"]
    assert (setup["head_wins"], setup["ties"], setup["pairs"]) == (5, 1, 6)
    assert setup["base"]["median"] == pytest.approx(0.225)
    assert setup["head"]["median"] == pytest.approx(0.205)
    assert setup["median_change"] == pytest.approx(-0.02 / 0.225)


def _process_record(faults: list[int], peak: float) -> dict:
    rounds = [{"minflt": f, "cpu_s": 0.5 + f * 1e-6, "wall_s": 0.6 + f * 1e-6} for f in faults]
    return {"correct": True, "attempted": 20, "failed": 0, "rounds": rounds,
            "metrics": bench_pairs._steady(rounds, peak, warmup=1)}


def test_fault_rounds_summary_reads_steady_rounds_per_process():
    # The first round of each process faults heavily; with warmup 1 only the
    # later rounds count, each process by their median.
    pairs = [{"seed": 91 + i, "order": ["base", "head"] if i % 2 == 0 else ["head", "base"],
              "base": _process_record([90000, 30000 + i, 34000 + i, 32000 + i], 38.0 + 0.1 * i),
              "head": _process_record([3000, 2800 + i, 2900 + i, 2700 + i], 37.5 + 0.1 * i)}
             for i in range(4)]
    pairs[3]["head"] = _process_record([3000, 40000, 40000, 40000], 37.8)
    group = bench_pairs._group("fine-forced", "rounds", pairs, DECLARED)
    faults = group["summary"]["minflt"]
    assert (faults["head_wins"], faults["ties"], faults["pairs"]) == (3, 0, 4)
    assert faults["base"]["median"] == pytest.approx(32001.5)
    assert faults["head"]["median"] == pytest.approx(2801.5)
    assert (faults["base"]["min"], faults["head"]["max"]) == (32000, 40000)
    assert faults["median_change"] == pytest.approx(2801.5 / 32001.5 - 1)
    peak = group["summary"]["peak_rss_mib"]
    assert peak["base"]["median"] == pytest.approx(38.15)
    assert peak["head_wins"] == 4
    assert (group["checks"]["base"]["correct_runs"], group["checks"]["head"]["correct_runs"]) == (4, 4)
    assert group["summary"]["cpu_s"]["head_wins"] == 3


def test_rounds_worker_runs_the_workload():
    top = _SCRIPT.parents[1]
    done = subprocess.run([sys.executable, str(_SCRIPT), "--worker", "--workload", "free-twin",
                           "--seed", "1"], cwd=top, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert len(record["rounds"]) == 5
    assert all(set(r) == {"wall_s", "cpu_s", "minflt"} for r in record["rounds"])
    assert record["correct"] and record["attempted"] == 35
    assert "peak_rss_mib" in record["metrics"]
