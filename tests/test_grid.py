"""The chain's bytes across the seed-3 grid match tests/expected/grid_seed3.json (see grid_chain)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import grid_chain


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("grid")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        grid_chain.write_inputs()
    return root


def expected() -> dict:
    return json.loads(grid_chain.EXPECTED.read_text(encoding="utf-8"))


def test_the_grid_matches_the_committed_digests(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    changed = grid_chain.differences(expected(), grid_chain.run_grid(Path("one_worker")))
    assert not changed, f"{len(changed)} outputs differ from {grid_chain.EXPECTED.name}: {', '.join(changed)}"


def test_two_workers_write_the_same_bytes_but_for_the_worker_count(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    # one configuration per workload: the one its benchmark runs
    chosen = {"values-greedy": ["greedy"], "pool-sqld1": ["sql-d1-k8"], "multidb-maj": ["maj-k8"]}
    digests = grid_chain.run_grid(Path("two_workers"), workers=2, configurations=chosen)
    committed = {w: {c: expected()[w][c] for c in configurations} for w, configurations in chosen.items()}
    changed = grid_chain.differences(committed, digests)
    assert not changed, f"{len(changed)} outputs differ at 2 workers: {', '.join(changed)}"
