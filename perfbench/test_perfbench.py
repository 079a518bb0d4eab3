"""Tests for the benchmark itself: its checks must catch wrong answers,
and the names it prints must be those of BENCHMARK.json.

    python3 -m pytest perfbench -q

Workloads run here on small instances, so the tests take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import StarReference, Tally  # noqa: E402
from inputs import WORKLOADS, Workload, grid_relations, write_relations  # noqa: E402
from minjoin import Answer, Database, Relation, TaggedValue, build_min_da, parse_query  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = 2**9


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload to |D| = 2^9; returns a function that writes a
    workload's data files (seed 3) and returns their directory."""
    for name, wl in WORKLOADS.items():
        monkeypatch.setitem(WORKLOADS, name, Workload(wl.query, wl.symbols, SMALL, wl.check_size))
    monkeypatch.setattr(workloads, "EMIT_BATCH", 10)
    monkeypatch.setattr(workloads, "EMIT_BATCHES", 3)
    monkeypatch.setattr(workloads, "COUNT_SERVE_SIZE", SMALL)

    def write(name: str) -> Path:
        wl = WORKLOADS[name]
        work = tmp_path / name
        write_relations(grid_relations(wl.symbols, wl.size, 3), work / "data")
        write_relations(grid_relations(wl.symbols, wl.check_size, 3), work / "check")
        return work

    return write


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_has_every_metric(small, capsys, name, trace):
    work = small(name)
    assert workloads.main([
        "--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--work", str(work),
    ]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def _star_index(seed: int = 5):
    rels = grid_relations(("W1", "W2", "W3"), SMALL, seed)
    q, _, r = parse_query(WORKLOADS["star-rda"].query)
    db = Database({s: Relation.from_ints(s, 2, rows) for s, rows in rels.items()})
    return build_min_da(q, r.xs, db), StarReference(rels)


class _Shifted:
    """An index that answers access(k) with the answer at k + 1."""

    def __init__(self, ix):
        self.ix = ix

    def access(self, k, probes=None):
        return self.ix.access(k + 1, probes)


class _Corrupted:
    """An index whose answers carry an r1 value that joins with nothing."""

    def __init__(self, ix):
        self.ix = ix

    def access(self, k, probes=None):
        a = self.ix.access(k, probes).assignment
        return Answer({**a, "r1": TaggedValue(a["r1"].base + 10**6)})


def test_star_references_agree_with_the_engine():
    ix, ref = _star_index()
    assert ix.total == ref.total
    tally = Tally()
    workloads.serve_accesses(ix, ref, range(ix.total), tally, [])
    assert (tally.attempted, tally.failed) == (ix.total, 0)


def test_off_by_one_access_index_fails():
    ix, ref = _star_index()
    tally = Tally()
    workloads.serve_accesses(_Shifted(ix), ref, range(ix.total), tally, [])
    # the last index runs out of bounds, and every MIN-value boundary shows
    assert tally.attempted == ix.total and tally.failed > 1
    assert tally.first_failure


def test_corrupted_answer_fails():
    ix, ref = _star_index()
    tally = Tally()
    workloads.serve_accesses(_Corrupted(ix), ref, range(50), tally, [])
    assert (tally.attempted, tally.failed) == (50, 50)


def test_wrong_count_fails(small, monkeypatch):
    real = workloads.mj_access.count_with_predicate
    monkeypatch.setattr(workloads.mj_access, "count_with_predicate", lambda q, p, db: real(q, p, db) + 1)
    run = workloads.Run("star-count", 3, 0.0, False, small("star-count"))
    workloads.run_star_count(run)
    assert run.tally.failed == run.tally.attempted >= 1 + workloads.MIN_SETUPS


class _Repeating:
    """A stream that emits its first answer over and over."""

    def __init__(self, stream):
        self.first = stream.peek()
        self.emitted = 0
        self.steps = self.max_delay = 0

    def peek(self):
        return self.first

    def advance(self):
        self.emitted += 1

    def drain(self):
        return [self.first, self.first]


def test_repeated_answer_fails(small, monkeypatch):
    real = workloads.mj_enum.enumerate_with_predicate
    monkeypatch.setattr(workloads.mj_enum, "enumerate_with_predicate", lambda q, p, db: _Repeating(real(q, p, db)))
    run = workloads.Run("path-enum", 3, 0.0, False, small("path-enum"))
    workloads.run_path_enum(run)
    assert run.tally.failed > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_on_small_runs(small, name):
    run = workloads.Run(name, 3, 0.0, True, small(name))
    workloads.RUNNERS[name](run)
    workloads.per_layer(run)
    assert run.tally.failed == 0
    assert run.counts and workloads.unrepeated(run.counts) == []


def test_refuses_to_run_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path-enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
