"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

Each workload runs at ``--size tiny`` (a few acquisitions, a few
seconds of reads): the printed metric names and units must match
``BENCHMARK.json``, a planted wrong answer must fail the correctness
check, and a directory without the repository's sources must make the
command fail without printing a result.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import season, workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _tiny(workload, trace, *extra):
    out = _run(
        "--workload", workload, "--seed", "3", "--seconds", "4",
        "--trace", str(trace), "--size", "tiny", *extra,
    )  # fmt: skip
    return out, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units_match_the_spec(workload, trace):
    out, result = _tiny(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(
            metric["value"] > 0 for metric in result["metrics"].values()
        )


def test_a_planted_wrong_answer_fails_the_check():
    out, result = _tiny("season_ingest", 0, "--plant-wrong-answer")
    assert out.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "CHECK FAILED" in out.stdout


def test_without_the_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _run(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        cwd=str(tmp_path),
    )  # fmt: skip
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_the_same_seed_gives_the_same_inputs():
    greece = season.make_greece()
    day = season.make_season(greece)
    again = season.make_season(greece)
    assert [(e.lon, e.lat, e.start) for e in day.events] == [
        (e.lon, e.lat, e.start) for e in again.events
    ]
    last = season.CRISIS_DAY
    mixes = [
        [r.key for r in workloads.season_read_mix(random.Random(5), day, last, 40)]
        for _ in range(2)
    ]
    assert mixes[0] == mixes[1]
    other = workloads.season_read_mix(random.Random(6), day, last, 40)
    assert [r.key for r in other] != mixes[0]


def test_the_read_mix_keeps_its_shares():
    day = season.make_season(season.make_greece())
    reads = workloads.season_read_mix(
        random.Random(1), day, season.CRISIS_DAY, 40
    )
    labels = [r.label for r in reads]
    assert labels.count("small") == 20
    assert labels.count("wide") == 4
    assert labels.count("overlay") == 16


def _event(kind, sequence, data="{}"):
    return {"id": sequence, "event": kind, "data": data, "at": 0.0}


def test_the_sse_check_catches_gaps_and_duplicates():
    log = [[5, 1], [6, 0], [7, 2]]
    good = [
        _event("notification", 5, "a"),
        _event("batch", 5),
        _event("batch", 6),
        _event("notification", 7, "b"),
        _event("notification", 7, "c"),
        _event("batch", 7),
    ]
    assert workloads.check_sse(good, log)["problems"] == []
    gap = [e for e in good if e["id"] != 6]
    assert workloads.check_sse(gap, log)["failed"] >= 1
    duplicate = good + [_event("notification", 7, "b")]
    assert workloads.check_sse(duplicate, log)["failed"] >= 1
