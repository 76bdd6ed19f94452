"""The seed-3 grid of eval -> classify -> report chains, and the sha256 of everything it writes.

The inputs are ``bench/generate.py``'s three workloads at seed 3. Each
configuration of ``CONFIGURATIONS`` runs ``eval --seed 4``, then
``classify`` and ``report``, in-process through ``cli.main`` and with paths
relative to the working directory, so that the manifest hash is the same on
every host. Each command writes into its own directory, so every file it
writes is kept. ``tests/expected/grid_seed3.json`` holds the digests of a
one-worker grid, keyed by workload, configuration and file name; a
command's stdout is the file ``<command>.stdout``.

After a change that moves outputs on purpose, rewrite the file with

    PYTHONPATH=src python tests/grid_chain.py

and list each changed digest in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from nl2sqlbench.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "expected" / "grid_seed3.json"
WORKLOADS = ("values-greedy", "pool-sqld1", "multidb-maj")
CONFIGURATIONS = {
    "greedy": ("--track", "greedy"),
    "greedy-no-retrieval": ("--track", "greedy", "--no-retrieval"),
    "sample": ("--track", "sample"),
    "maj-k8": ("--track", "maj", "--k", "8"),
    "sql-d1-k8": ("--track", "sql-d1", "--k", "8"),
    "sql-d1-k8-a_r,a_g,a_s": ("--track", "sql-d1", "--k", "8", "--ablation", "a_r,a_g,a_s"),
}
# how each file that records the worker count spells it
WORKERS_ENTRY = {"manifest.txt": "workers = {}\n", "records.jsonl": '"workers": "{}"', "report.json": '"workers": "{}"'}


def write_inputs() -> None:
    """Generate each workload's seed-3 inputs under ``<workload>/`` in the working directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import generate
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for workload in WORKLOADS:
        generate.generate(workload, 3, Path(workload))


def _run(argv: list[str]) -> bytes:
    """``cli.main(argv)``'s stdout; a non-zero exit status raises."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit status {code}: {' '.join(argv)}")
    return stdout.getvalue().encode()


def run_chain(workload: str, configuration: str, workers: int, out: Path) -> dict[str, str]:
    """One chain's digests by file name, its outputs under ``out``, with the worker count spelled as 1's.

    A file that records the worker count must record it once, or this raises.
    """
    inputs = Path(workload)
    evaluated, classified, reported = out / "eval", out / "classify", out / "report"
    stdouts = {
        "eval.stdout": _run([
            "eval", "--benchmark", str(inputs / "benchmark.json"), "--format", "bird",
            "--db-root", str(inputs / "db"), "--backend", "mock", "--mock-fixture", str(inputs / "fixture.json"),
            *CONFIGURATIONS[configuration], "--seed", "4", "--workers", str(workers), "--out", str(evaluated),
        ]),
        "classify.stdout": _run([
            "classify", "--records", str(evaluated / "records.jsonl"), "--db-root", str(inputs / "db"),
            "--out", str(classified),
        ]),
        "report.stdout": _run(["report", "--records", str(evaluated / "records.jsonl"), "--out", str(reported)]),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in stdouts.items()}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name in WORKERS_ENTRY:
            mine, ones = (WORKERS_ENTRY[path.name].format(count).encode() for count in (workers, 1))
            if data.count(mine) != 1:
                raise AssertionError(f"{path}: {mine!r} is not there exactly once")
            data = data.replace(mine, ones)
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def run_grid(out: Path, workers: int = 1, configurations=None) -> dict:
    """{workload: {configuration: digests}} over ``configurations`` (every workload's: all of them)."""
    return {
        workload: {
            configuration: run_chain(workload, configuration, workers, out / workload / configuration)
            for configuration in (configurations[workload] if configurations else CONFIGURATIONS)
        }
        for workload in WORKLOADS
    }


def differences(expected: dict, actual: dict) -> list[str]:
    """``workload/configuration/file`` of each digest that is missing on either side or differs."""
    flat = [
        {f"{w}/{c}/{name}": digest for w, runs in grid.items() for c, files in runs.items()
         for name, digest in files.items()}
        for grid in (expected, actual)
    ]
    return sorted(key for key in flat[0].keys() | flat[1].keys() if flat[0].get(key) != flat[1].get(key))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_inputs()
        grid = run_grid(Path("out"))
        os.chdir(ROOT)
    EXPECTED.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED.relative_to(ROOT)}: {sum(len(files) for runs in grid.values() for files in runs.values())} digests")
