"""One measurement in a fresh process; prints one JSON line.

``child.py setup BENCHMARK FIXTURE DB_ROOT`` times what a fresh process
does before its first item: importing the CLI, ``load_benchmark``, ``MockBackend.from_file`` and
``load_database``/``load_descriptions``/``extract_schema`` for every database.

``child.py chain SPEC OUT [SIDECAR]`` runs ``eval`` -> ``classify`` ->
``report`` into OUT through ``nl2sqlbench.cli.main``, timing each command and
taking the process CPU time and peak RSS of ``eval``. With SIDECAR the spans
of ``spans.install()`` are written there when the process exits.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(benchmark: str, fixture: str, db_root: str) -> float:
    start = time.perf_counter()
    # the CLI module is what a user's process imports
    from nl2sqlbench import cli  # noqa: F401
    from nl2sqlbench import context
    from nl2sqlbench.corpus import load_benchmark, load_database
    from nl2sqlbench.gateway import MockBackend

    items = load_benchmark(benchmark, "bird")
    MockBackend.from_file(fixture)
    for db_id in sorted({item.db_id for item in items}):
        handle = load_database(db_id, db_root)
        context.extract_schema(handle, context.load_descriptions(handle.path.parent))
    return time.perf_counter() - start


def chain(spec_path: str, out: str, sidecar: str | None) -> dict:
    import atexit
    import json
    import resource
    import traceback

    from nl2sqlbench import cli

    if sidecar:
        import spans

        atexit.register(spans.install().dump, sidecar)
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    records = f"{out}/records.jsonl"
    commands = {
        "eval": ["eval", *spec["eval_args"], "--out", out],
        "classify": ["classify", "--records", records, "--db-root", spec["db_root"]],
        "report": ["report", "--records", records, "--out", out],
    }
    result = {}
    for name, argv in commands.items():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result[f"{name}_rc"] = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash fails the chain's items, not the benchmark
            traceback.print_exc()
            result[f"{name}_rc"] = 1
        result[f"{name}_s"] = time.perf_counter() - start
        if name == "eval":
            after = resource.getrusage(resource.RUSAGE_SELF)
            result["eval_cpu_s"] = (after.ru_utime + after.ru_stime) - (usage.ru_utime + usage.ru_stime)
            result["eval_maxrss_kb"] = after.ru_maxrss
    return result


def main() -> None:
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        result = {"setup_s": setup(*rest)}
    else:
        result = chain(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    import json  # only now: the CLI imports json too, so set-up must not find it loaded

    print(json.dumps(result))


if __name__ == "__main__":
    main()
