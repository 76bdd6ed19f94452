"""Hermetic benchmark of the eval -> classify -> report chain on the mock backend.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --survey [--seed N] [--seconds S]

A run generates the workload's inputs from the seed (``generate.py``), times
set-up in fresh processes, then runs whole chains in fresh processes until
the time is spent, checking every chain's outputs against the generator's
expectations and against the first chain byte for byte. With ``--trace 0``
the end-to-end metrics come from these untimed-by-trace chains; with
``--trace 1`` one untraced chain is followed by traced chains whose spans
(``spans.py``) give the per-layer metrics. Every metric is printed by name
with its unit; the last line is one JSON object.

``--survey`` runs every workload at the CLI's default ``--workers``, at
``--workers 1`` and traced, prints everything, checks that each workload
exercises its intended layer and writes ``bench/notes.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "values-greedy": ["--track", "greedy"],
    "pool-sqld1": ["--track", "sql-d1", "--k", "8"],
    "multidb-maj": ["--track", "maj", "--k", "8"],
}

# (name, unit); "why" and bounds live in BENCHMARK.json
END_TO_END = (
    ("eval_items_per_s", "1/s"),
    ("chain_items_per_s", "1/s"),
    ("eval_cpu_s_per_item", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("corpus.load_database.calls", "count"),
    ("corpus.load_database.self_s", "s"),
    ("context.load_descriptions.self_s", "s"),
    ("context.extract_schema.self_s", "s"),
    ("context.retrieve_values.calls", "count"),
    ("context.retrieve_values.self_s", "s"),
    ("context.retrieve_values.eval_share", "ratio"),
    ("context.render_ddl.self_s", "s"),
    ("context.build_prompt.calls", "count"),
    ("gateway.generate.calls", "count"),
    ("gateway.generate.self_s", "s"),
    ("gateway.backend_complete.calls", "count"),
    ("executor.execute_sql.calls", "count"),
    ("executor.execute_sql.self_s", "s"),
    ("executor.execute_sql.eval_share", "ratio"),
    ("executor.execute_sql.calls_per_item", "count/item"),
    ("executor.distinct_sql_per_item", "count/item"),
    ("executor.useful_execution_ratio", "ratio"),
    ("executor.compare_results.self_s", "s"),
    ("executor.result_signature.self_s", "s"),
    ("executor.timeouts", "count"),
    ("pipeline.item.calls", "count"),
    ("pipeline.item.self_s", "s"),
    ("pipeline.run_verifier.self_s", "s"),
    ("pipeline.repairs", "count"),
    ("pipeline.evaluate_pool.self_s", "s"),
    ("pipeline.select_winner.self_s", "s"),
    ("metrics.assemble_report.calls", "count"),
    ("metrics.assemble_report.self_s", "s"),
    ("diagnoser.classify_error.calls", "count"),
    ("diagnoser.classify_error.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("cli.classify.self_s", "s"),
    ("cli.report.self_s", "s"),
    ("trace.eval_thread_s", "s"),
    ("trace.overhead_share", "ratio"),
)
# deterministic per chain: must repeat exactly between traced chains
EXACT = {name for name, unit in PER_LAYER if unit.startswith("count")} | {"executor.useful_execution_ratio"}

# spans (or counts) each workload must record at least once
_EVERY = {
    "cli.eval", "cli.classify", "cli.report", "corpus.load_database", "context.load_descriptions",
    "context.extract_schema", "context.retrieve_values", "context.render_ddl", "context.build_prompt",
    "gateway.generate", "gateway.backend_complete", "executor.execute_sql", "executor.compare_results",
    "executor.result_signature", "pipeline.item", "pipeline.evaluate_pool", "metrics.assemble_report",
}
REQUIRED_SPANS = {
    "values-greedy": _EVERY,
    "pool-sqld1": _EVERY | {"pipeline.run_verifier", "pipeline.select_winner", "diagnoser.classify_error"},
    "multidb-maj": _EVERY | {"pipeline.select_winner", "diagnoser.classify_error"},
}
REQUIRED_COUNTS = {"pool-sqld1": ("pipeline.repairs",)}

SETUP_PROBES = 7
MIN_CHAINS = 3
MIN_TRACED_CHAINS = 2
CHILD_TIMEOUT_S = 150
OUTPUT_FILES = ("records.jsonl", "report.json", "labels.jsonl", "curves.csv", "scatter.csv")

SCOPE_LIMITS = (
    "The generator draws only finite reals and integers within +-2^53. Non-finite results and "
    "integers above 2^53 currently abort a whole eval at the parent process, so no metric could be "
    "taken on them; the unit tests of the comparison cover those inputs.",
    "RemoteBackend is not measured: the benchmark stays off the network and uses the mock backend.",
    "On a shared 2-core host, the CPU speed drifts by up to about 20% in phases lasting minutes, so "
    "ten runs of the same code on ten seeds spread by 5-23% (IQR/median of items/s) although every "
    "seed gives the same work. Every timing is a median over the chains of a 30-second run, and "
    "the timing bounds in BENCHMARK.json are the largest allowed, 0.25.",
)


class Failure(Exception):
    """The benchmark could not run (not a mismatch in the program's outputs)."""


def _child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise Failure(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# output checks


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row and not row[0].startswith("#")][1:]


def check_outputs(out: Path, expect: dict) -> tuple[set[str], list[str]]:
    """(ids of items whose outputs disagree with the expectations, report-level mismatches)."""
    items = expect["items"]
    bad_items: set[str] = set()
    problems: list[str] = []
    records = {r["item_id"]: r for r in _jsonl(out / "records.jsonl") if r.get("type") != "run_header"}
    for item_id, want in items.items():
        got = records.get(item_id)
        if (
            got is None
            or "internal_error" in (got.get("status"), got["outcome"]["status"])
            or got["final_sql"] != want["final_sql"]
            or got["correct"] != want["correct"]
        ):
            bad_items.add(item_id)
    labels = {r["item_id"]: r["category"] for r in _jsonl(out / "labels.jsonl") if r.get("type") != "run_header"}
    for item_id, want in items.items():
        if labels.get(item_id) != want["category"]:
            bad_items.add(item_id)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for key in ("n_items", "n_correct", "ex_percent", "pass_at_k", "maj_at_k", "error_distribution"):
        if report.get(key) != expect[key]:
            problems.append(f"report.json {key}: {report.get(key)!r} != {expect[key]!r}")
    curves = {(row[2], row[1]): row[3] for row in _csv_rows(out / "curves.csv")}
    wanted = {(m, k): f"{v:.1f}" for m in ("pass_at_k", "maj_at_k") for k, v in expect[m].items()}
    if curves != wanted:
        problems.append(f"curves.csv: {sorted(curves.items())} != {sorted(wanted.items())}")
    scatter = _csv_rows(out / "scatter.csv")
    if len(scatter) != 1 or scatter[0][1] != expect["ex_percent"]:
        problems.append(f"scatter.csv ex_percent: {scatter} != {expect['ex_percent']}")
    return bad_items, problems


def _check_chain(index: int, result: dict, out: Path, reference: Path, expect: dict) -> tuple[int, list[str]]:
    """(failed items, problems) of one chain; a failed eval fails every item."""
    n_items = expect["n_items"]
    if result["eval_rc"] != 0:
        return n_items, [f"chain {index}: eval exited with {result['eval_rc']}"]
    try:
        bad, mismatches = check_outputs(out, expect)
        if index > 0:
            mismatches += _identical(out, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return n_items, [f"chain {index}: unreadable outputs: {exc!r}"]
    if result["classify_rc"] or result["report_rc"]:
        mismatches.append(f"chain {index}: classify or report exited non-zero")
    problems = [f"chain {index}: item {i} disagrees with the expectations" for i in sorted(bad)]
    problems += [f"chain {index}: {m}" for m in mismatches]
    return min(n_items, len(bad) + len(mismatches)), problems


def _identical(out: Path, reference: Path) -> list[str]:
    return [
        f"{name} differs between two chains on the same seed"
        for name in OUTPUT_FILES
        if (out / name).read_bytes() != (reference / name).read_bytes()
    ]


# ---------------------------------------------------------------------------
# one run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workers: int | None = None) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        return _run(workload, seed, seconds, trace, workers, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, trace: bool, workers: int | None, work: Path) -> dict:
    paths = generate.generate(workload, seed, work / "inputs")
    expect = json.loads(Path(paths["expect"]).read_text(encoding="utf-8"))
    n_items = expect["n_items"]
    eval_args = [
        "--benchmark", paths["benchmark"], "--format", "bird", "--db-root", paths["db_root"],
        "--backend", "mock", "--mock-fixture", paths["fixture"], *WORKLOADS[workload],
    ]
    if workers is not None:
        eval_args += ["--workers", str(workers)]
    spec = work / "spec.json"
    spec.write_text(json.dumps({"eval_args": eval_args, "db_root": paths["db_root"]}), encoding="utf-8")

    # the first process compiles and caches bytecode and warms the file cache; users pay that once
    probe = ["setup", paths["benchmark"], paths["fixture"], paths["db_root"]]
    _child(probe)
    setup_samples: list[float] = []

    chains: list[dict] = []
    traced: list[dict] = []
    header: dict = {}
    failed = 0
    problems: list[str] = []
    reference = work / "chain0"
    start = time.perf_counter()
    while True:
        index = len(chains) + len(traced)
        is_traced = trace and index > 0
        out = work / f"chain{index}"
        sidecar = work / f"spans{index}.jsonl"
        args = ["chain", str(spec), str(out)] + ([str(sidecar)] if is_traced else [])
        result = _child(args)
        failed_items, mismatches = _check_chain(index, result, out, reference, expect)
        failed += failed_items
        problems += mismatches
        if index == 0 and (out / "records.jsonl").is_file():
            header = _jsonl(out / "records.jsonl")[0]
        if is_traced:
            result["layers"] = spans.summarize(spans.load(sidecar))
            sidecar.unlink()
            traced.append(result)
        else:
            chains.append(result)
        if index > 0:
            shutil.rmtree(out)
        # set-up probes interleave with the chains, so both sample the same stretch of time
        setup_samples.append(_child(probe)["setup_s"])
        done = len(traced) if trace else len(chains)
        wanted = MIN_TRACED_CHAINS if trace else MIN_CHAINS
        last = result["eval_s"] + result["classify_s"] + result["report_s"]
        if done >= wanted and time.perf_counter() - start + last > seconds:
            break
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(_child(probe)["setup_s"])

    e2e = {
        "eval_items_per_s": [n_items / c["eval_s"] for c in chains],
        "chain_items_per_s": [n_items / (c["eval_s"] + c["classify_s"] + c["report_s"]) for c in chains],
        "eval_cpu_s_per_item": [c["eval_cpu_s"] / n_items for c in chains],
        "setup_s": setup_samples,
        "peak_rss_mb": [c["eval_maxrss_kb"] / 1024 for c in chains],
    }
    run = {
        "workload": workload,
        "seed": seed,
        "items": n_items,
        "workers": int(header["manifest"]["workers"]) if header else None,
        "nproc": os.cpu_count(),
        "chains": len(chains),
        "traced_chains": len(traced),
        "attempted": n_items * (len(chains) + len(traced)),
        "failed": failed,
        "problems": problems,
        "properties": expect["properties"],
        "end_to_end": {name: _quartiles(values) + (len(values),) for name, values in e2e.items()},
    }
    if trace:
        run["per_layer"], layer_problems = _per_layer(workload, traced, chains[0]["eval_s"])
        run["problems"] += layer_problems
        run["failed"] += len(layer_problems)
    run["attempted"] = max(run["attempted"], run["failed"])
    return run


def _per_layer(workload: str, traced: list[dict], untraced_eval_s: float) -> tuple[dict, list[str]]:
    problems = []
    layers = [t["layers"] for t in traced]
    out = {}
    for name, _unit in PER_LAYER:
        values = [layer.get(name, 0) for layer in layers]
        if name == "trace.overhead_share":
            values = [t["eval_s"] / untraced_eval_s - 1.0 for t in traced]
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between traced chains: {values}")
        out[name] = statistics.median(values)
    for span in sorted(REQUIRED_SPANS[workload]):
        if min(layer.get(f"{span}.calls", 0) for layer in layers) == 0:
            problems.append(f"span {span} recorded no call on {workload}")
    for count in REQUIRED_COUNTS.get(workload, ()):
        if out[count] == 0:
            problems.append(f"{count} is zero on {workload}")
    return out, problems


# ---------------------------------------------------------------------------
# reporting


def _print_run(run: dict, trace: bool) -> None:
    print(
        f"workload {run['workload']} seed {run['seed']}: {run['items']} items x {run['chains']} chains"
        + (f" + {run['traced_chains']} traced" if trace else "")
        + f", workers {run['workers']}, nproc {run['nproc']}"
    )
    units = dict(END_TO_END)
    for name, (q1, median, q3, count) in run["end_to_end"].items():
        print(f"  {name:<24} {median:>12.6g} {units[name]:<6} (median of {count}; q1 {q1:.6g}, q3 {q3:.6g})")
    share = run["failed"] / run["attempted"]
    print(f"  {'failed_item_share':<24} {share:>12.6g} ratio  ({run['failed']} of {run['attempted']} attempted)")
    if trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<38} {run['per_layer'][name]:>12.6g} {unit}")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)


def _result_line(run: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": run["per_layer"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": run["end_to_end"][name][1], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not run["problems"], "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


ACCEPTANCE = (
    ("values-greedy", "context.retrieve_values.eval_share", ">=", 0.90),
    ("pool-sqld1", "context.retrieve_values.eval_share", "<=", 0.05),
    ("pool-sqld1", "executor.execute_sql.eval_share", ">=", 0.50),
)


def _acceptance(traced: dict) -> list[dict]:
    checks = []
    for workload, metric, op, bound in ACCEPTANCE:
        value = traced[workload]["per_layer"][metric]
        checks.append({"workload": workload, "check": f"{metric} {op} {bound}", "value": round(value, 4),
                       "ok": value >= bound if op == ">=" else value <= bound})
    layers = traced["multidb-maj"]["per_layer"]
    calls, distinct = layers["executor.execute_sql.calls_per_item"], layers["executor.distinct_sql_per_item"]
    checks.append({"workload": "multidb-maj",
                   "check": "executor.execute_sql.calls_per_item <= executor.distinct_sql_per_item + 2",
                   "value": f"{calls:g} executions per item, {distinct:g} distinct predicted SQL per item",
                   "ok": calls <= distinct + 2})
    layers = traced["pool-sqld1"]["per_layer"]
    calls, distinct = layers["executor.execute_sql.calls_per_item"], layers["executor.distinct_sql_per_item"]
    checks.append({"workload": "pool-sqld1",
                   "check": "executor.execute_sql.calls_per_item >= 4 * executor.distinct_sql_per_item",
                   "value": f"{calls:g} executions per item, {distinct:g} distinct predicted SQL per item",
                   "ok": calls >= 4 * distinct})
    return checks


def survey(seed: int, seconds: float) -> int:
    notes = {"nproc": os.cpu_count(), "python": sys.version.split()[0], "seed": seed,
             "run_seconds": seconds, "workloads": {}}
    traced = {}
    ok = True
    for workload in WORKLOADS:
        default = run_workload(workload, seed, seconds, trace=False)
        _print_run(default, False)
        single = run_workload(workload, seed, seconds, trace=False, workers=1)
        _print_run(single, False)
        traced[workload] = run_workload(workload, seed, seconds, trace=True)
        _print_run(traced[workload], True)
        ok &= not (default["problems"] or single["problems"] or traced[workload]["problems"])
        notes["workloads"][workload] = {
            "cli_default_workers": default["workers"],
            "properties": default["properties"],
            "end_to_end_median": {k: round(v[1], 6) for k, v in default["end_to_end"].items()},
            "eval_items_per_s_by_workers": {
                str(default["workers"]): round(default["end_to_end"]["eval_items_per_s"][1], 4),
                "1": round(single["end_to_end"]["eval_items_per_s"][1], 4),
            },
            "per_layer": {k: round(v, 6) for k, v in traced[workload]["per_layer"].items()},
            "failed_item_share": sum(r["failed"] for r in (default, single, traced[workload]))
            / sum(r["attempted"] for r in (default, single, traced[workload])),
        }
    notes["acceptance"] = _acceptance(traced)
    notes["scope_limits"] = list(SCOPE_LIMITS)
    for check in notes["acceptance"]:
        print(f"acceptance {check['workload']}: {check['check']}: {check['value']} -> "
              f"{'ok' if check['ok'] else 'NOT MET'}")
    (BENCH / "notes.json").write_text(json.dumps(notes, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {BENCH / 'notes.json'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--survey", action="store_true", help="run every workload and write notes.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "nl2sqlbench" / "cli.py").is_file():
        print(f"error: no nl2sqlbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.survey:
        return survey(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload is required without --survey")
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (Failure, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_run(run, bool(args.trace))
    print(json.dumps(_result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
