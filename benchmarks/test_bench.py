"""Tests of the benchmark itself.

    python3 -m pytest benchmarks -q

They check that inputs follow from the seed, that the independent
references hold their closed forms, that per-layer counts repeat
exactly across two traced runs, and that self times add up to the
top-level spans.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import pytest

import bench_items
import run
from bench_trace import Tracer

sys.path.insert(0, str(run.SRC))


def _keys(workload: str, seed: int, decks: int = 2) -> list[str]:
    rng, seen = random.Random(seed), set()
    return [item.key for d in range(decks) for item in bench_items.make_deck(workload, rng, seen, d)]


@pytest.mark.parametrize("workload", bench_items.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = _keys(workload, 7)
    assert first == _keys(workload, 7)
    assert first != _keys(workload, 8)
    assert len(set(first)) == len(first)


def test_interleaving_closed_form():
    for k in range(2, 6):
        want = {n: comb(k, n) * 2 ** (k - n) * factorial(n) for n in range(k + 1)}
        assert bench_items.interleaving_cells(k) == want
    assert [sum(bench_items.interleaving_cells(k).values()) for k in (2, 3, 4, 5)] == [10, 38, 168, 872]


@pytest.mark.parametrize("n", range(0, 5))
def test_cube_documents(n):
    word = [f"p{i}" for i in range(n)]
    assert len(bench_items.cube_system(word)["transitions"]) == 3 ** n - 2 ** n
    dims = bench_items.standard_cube_doc(word)["dims"]
    for m in range(n + 1):
        assert len(dims[str(m)]) == comb(n, m) * factorial(m) * 2 ** (n - m)


def _item_of(tag: str):
    for workload in bench_items.WORKLOADS:
        for count, spec in bench_items.DECKS[workload]:
            for maker, *args in (spec if isinstance(spec, list) else [spec]):
                if args[0] == tag:
                    return maker(random.Random(3), *args)
    raise KeyError(tag)


def test_self_times_sum_to_top_level_spans(tmp_path):
    runner = run.Runner(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        walls = []
        for tag in ("par.k3", "rec.branch", "check.pcube", "cubify.cube", "orth.fail", "bad.label"):
            mark = tracer.mark()
            elapsed = runner.run(_item_of(tag))
            walls.append((tracer.top_level_ns(mark), elapsed))
    finally:
        tracer.uninstall()
    assert all(r["failed"] is None and r["wrong"] is None for r in runner.records)
    total_self = sum(tracer.self_ns().values())
    assert total_self == tracer.top_level_ns(0)
    for top_ns, elapsed in walls:
        assert top_ns / 1e9 <= elapsed
        assert top_ns / 1e9 >= 0.95 * elapsed or elapsed - top_ns / 1e9 < 1e-4
    from hdts import cli, sync

    assert cli.main.__module__ == "hdts.cli" and sync.compose.__module__ == "hdts.encoding"


def _traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "B")}


@pytest.mark.parametrize("workload", bench_items.WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first = _traced_counts(workload, 11)
    assert first == _traced_counts(workload, 11)
    assert first["cli.main.calls"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
