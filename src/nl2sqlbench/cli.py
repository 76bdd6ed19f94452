"""Command-line entry point: eval, classify, and report subcommands.

Runs stream records to disk as they complete (one JSON line each, manifest
header first), so interrupted evaluations resume with --resume. With the mock
backend and a fixed seed the whole eval -> classify -> report chain is
byte-deterministic.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import math
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

from . import context as context_mod
from .corpus import load_benchmark, load_database
from .diagnoser import classify_error
from .errors import ConfigError, IngestError, MetricError, RegistryError, SchemaError
from .gateway import MockBackend, RemoteBackend
from .metrics import assemble_report, merged_rows
from .pipeline import EvalRecord, PipelineConfig, run_sql_d1

ABLATION_STAGES = ("a_r", "a_g", "a_v", "a_s")
# each track's stages: the baselines are the sql-d1 flow with stages switched off
TRACK_STAGES = {
    "greedy": ("a_r", "a_g"),
    "sample": ("a_r", "a_g"),
    "maj": ("a_r", "a_g", "a_s"),
    "sql-d1": ABLATION_STAGES,
}
# a remote run's default --workers, which is its cap on requests in flight: its threads mostly wait on the
# network, so the CPU count does not bound it
REMOTE_WORKERS = 8


def _pipeline_config(args) -> PipelineConfig:
    """The run's config, from the track's stages narrowed by --ablation (sql-d1 only) and --no-retrieval."""
    stages = set(TRACK_STAGES[args.track])
    if args.ablation:
        if args.track != "sql-d1":
            raise ConfigError(f"--ablation applies to the sql-d1 track, not {args.track}")
        stages = {s.strip() for s in args.ablation.split(",") if s.strip()}
        unknown = stages - set(ABLATION_STAGES)
        if unknown:
            raise ConfigError(f"unknown ablation stages: {', '.join(sorted(unknown))}")
    if args.no_retrieval:
        stages.discard("a_r")
    return PipelineConfig(
        use_retriever="a_r" in stages,
        num_candidates=args.k if "a_s" in stages else 1,
        verifier_max_iters=args.verifier_iters if "a_v" in stages else 0,
        timeout_seconds=args.timeout,
        temperature=0.0 if args.track == "greedy" else args.temperature,
        max_new_tokens=args.max_new_tokens,
        backend_params=_parse_backend_params(args.backend_params_raw),
        seed=args.seed,
        values_per_column=args.values_per_column,
        retrieval_top_k=args.top_k_values,
    )


def _manifest(args, cfg: PipelineConfig, backend, workers: int) -> dict:
    # the backend as resolved: a remote one's URL and model from flags or environment, never its API key,
    # and a mock one's fixture
    remote = isinstance(backend, RemoteBackend)
    return {
        "benchmark": str(Path(args.benchmark)),
        "format": args.format,
        "db_root": str(Path(args.db_root)),
        "track": args.track,
        "backend": args.backend,
        "backend_url": backend.url if remote else "",
        "backend_model": (backend.model or "") if remote else "",
        "mock_fixture": "" if remote else str(Path(args.mock_fixture)),
        "workers": str(workers),
        **{f.name: _manifest_value(getattr(cfg, f.name)) for f in fields(PipelineConfig)},
    }


def _manifest_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def manifest_text(manifest: dict) -> str:
    return "".join(f"{key} = {manifest[key]}\n" for key in sorted(manifest))


def manifest_hash(manifest: dict) -> str:
    """Identity of a run. ``workers`` is provenance only: records do not depend on it."""
    keyed = {key: value for key, value in manifest.items() if key != "workers"}
    return hashlib.sha256(manifest_text(keyed).encode()).hexdigest()[:16]


def _make_backend(args, workers: int):
    if args.backend == "mock":
        # a mock backend with no rules replies empty to every prompt: a run of it would only read EX 0
        if not args.mock_fixture:
            raise ConfigError("the mock backend needs --mock-fixture")
        return MockBackend.from_file(args.mock_fixture)
    return RemoteBackend(url=args.backend_url, model=args.backend_model, workers=workers)


def _load_database(root: Path, retrieval: bool, db_id: str):
    """Read one database for an eval: (handle, base schema context, literal index or None).

    Column descriptions come from ``<root>/<db_id>/database_description/``
    whichever layout the database file has. With retrieval the context
    carries sampled values and the text-column literal index is built.
    Without it only the catalog and column descriptions are read: no values
    are sampled and no index is built.
    """
    handle = load_database(db_id, root)
    descriptions = context_mod.load_descriptions(root / db_id)
    if not retrieval:
        return handle, context_mod.read_catalog(handle, descriptions), None
    schema = context_mod.extract_schema(handle, descriptions)
    return handle, schema, context_mod.index_literals(context_mod.read_literals(handle, schema))


def _eval_tasks(db_root: Path, cfg: PipelineConfig, backend, pending: list, out, records: list) -> list:
    """eval's tasks in the order they are taken: each pending database's read, then each pending item.

    Every read comes ahead of every item, so an item waits only on a read
    that a thread has already taken up; a read that fails is raised by its
    database's items. Records go to ``out`` and onto ``records`` in item
    order, written by whichever thread completes the next one, so the file
    streams for --resume while items finish out of order.
    """
    load = functools.partial(_load_database, db_root, cfg.use_retriever)
    databases = {db_id: Future() for db_id in dict.fromkeys(item.db_id for item in pending)}
    finished: dict[int, EvalRecord] = {}  # records held for an earlier item, by index in pending
    written = len(records)  # index in records of the first pending item's record
    lock = threading.Lock()

    def read(db_id):
        try:
            databases[db_id].set_result(load(db_id))
        except BaseException as exc:
            databases[db_id].set_exception(exc)
            if not isinstance(exc, Exception):  # an interrupt stops the run at once
                raise

    def evaluate(index):
        item = pending[index]
        db, schema, literals = databases[item.db_id].result()
        record = run_sql_d1(item, schema, cfg, backend, db, literals)
        with lock:
            finished[index] = record
            while len(records) - written in finished:
                record = finished.pop(len(records) - written)
                out.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
                out.flush()
                records.append(record)

    return [functools.partial(read, db_id) for db_id in databases] + [
        functools.partial(evaluate, index) for index in range(len(pending))
    ]


def _drain(tasks: list, workers: int) -> None:
    """Run ``tasks`` in list order on the calling thread and ``workers - 1`` pool threads.

    Once a task raises, no thread takes another. When every thread is done,
    the exception of the earliest task that raised is raised, as
    ``Executor.map`` raises it.
    """
    queue = iter(enumerate(tasks))
    lock = threading.Lock()
    failures: dict[int, BaseException] = {}  # by index in tasks

    def run():
        index = -1  # an interrupt before the first task is taken is raised first
        try:
            while not failures:
                with lock:
                    index, task = next(queue, (None, None))
                if task is None:
                    return
                task()
        except BaseException as exc:  # raised below, once every thread is done
            failures[index] = exc

    # a pool starts a thread only when a task is submitted, so a one-worker run starts none
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        for _ in range(workers - 1):
            pool.submit(run)
        run()
    if failures:
        raise failures[min(failures)]


def _catalogs(args):
    """db_id -> that database's catalog, each read once: what the two classify modes read.

    Labels look only at table and column names, so no column descriptions are read.
    """
    return functools.cache(lambda db_id: context_mod.read_catalog(load_database(db_id, args.db_root)))


# the run header's keys that classify, report and --resume read, with their types
_HEADER_TYPES = {"manifest_hash": str, "benchmark": str, "strategy": str, "manifest": dict}


def _read_records_file(path: Path, resume: bool = False) -> tuple[dict, list[EvalRecord], list[str]]:
    """Parse a records file into (header, records, complete lines).

    Line 1 must be the run header that eval writes, every later line a
    record, and the file must hold at least one record. A resume read
    (``resume``) also takes a file with no records, and drops a truncated
    final line (an interrupted write); if no complete line is left it
    returns ({}, [], []), and the run starts afresh. Anything else raises
    IngestError naming the file, and the line number where there is one.
    """
    header: dict = {}
    records: list[EvalRecord] = []
    complete: list[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8: {exc}") from exc
    lines = [(n, l) for n, l in enumerate(text.splitlines(), 1) if l.strip()]
    for idx, (number, line) in enumerate(lines):
        try:
            data = json.loads(line)
            if idx > 0:
                records.append(EvalRecord.from_dict(data))
            elif isinstance(data, dict) and data.get("type") == "run_header" and all(
                isinstance(data.get(key), kind) for key, kind in _HEADER_TYPES.items()
            ):
                header = data
            else:
                raise IngestError(f"{path} line {number}: not a run header")
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
            if resume and idx == len(lines) - 1:
                break
            raise IngestError(f"{path} line {number}: not valid JSON: {exc}") from exc
        except (AttributeError, KeyError, TypeError) as exc:
            raise IngestError(f"{path} line {number}: not a record: {exc!r}") from exc
        complete.append(line)
    if not records and not resume:
        raise IngestError(f"{path}: no records")
    return header, records, complete


def cmd_eval(args) -> int:
    # a mock run's items are CPU-bound, so a second worker mostly adds GIL hand-offs; a remote run's mostly wait
    workers = args.workers if args.workers is not None else REMOTE_WORKERS if args.backend == "remote" else 1
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    # bad inputs end the run here, before it writes anything
    cfg = _pipeline_config(args)
    items = load_benchmark(args.benchmark, args.format)
    backend = _make_backend(args, workers)
    manifest = _manifest(args, cfg, backend, workers)
    digest = manifest_hash(manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    records_path = out_dir / "records.jsonl"
    # the report's records, in file order: those kept by --resume, then this run's as they stream
    records: list[EvalRecord] = []
    resuming = False
    if args.resume and records_path.exists():
        header, records, complete_lines = _read_records_file(records_path, resume=True)
        if complete_lines and header["manifest_hash"] != digest:
            raise ConfigError(f"refusing to resume: {records_path} belongs to a different run")
        resuming = bool(complete_lines)
        sanitized = "\n".join(complete_lines) + "\n" if complete_lines else ""
        if records_path.read_text(encoding="utf-8") != sanitized:
            # drop a truncated tail left by an interrupted write
            records_path.write_text(sanitized, encoding="utf-8")
    done_ids = {record.item_id for record in records}
    pending = [item for item in items if item.item_id not in done_ids]
    # the manifest lands on disk before any evaluation starts, and only for a run that goes ahead
    (out_dir / "manifest.txt").write_text(manifest_text(manifest), encoding="utf-8")
    header_line = json.dumps(
        {
            "type": "run_header",
            "manifest_hash": digest,
            "benchmark": manifest["benchmark"],
            "format": args.format,
            "strategy": args.track,
            "manifest": manifest,
        },
        sort_keys=True,
    )

    kept = len(records)
    with open(records_path, "a" if resuming else "w", encoding="utf-8") as out:
        if not resuming:
            out.write(header_line + "\n")
        out.flush()
        try:
            _drain(_eval_tasks(Path(args.db_root), cfg, backend, pending, out, records), workers)
        finally:
            if isinstance(backend, RemoteBackend):
                backend.session.close()
    # this run's items whose candidates all failed in transport
    transport_failures = sum(bool(r.candidates) and all(c.error for c in r.candidates) for r in records[kept:])

    report = assemble_report(records, strategy=args.track, manifest=manifest)
    _write_report(out_dir, report, digest)
    print(f"evaluated {len(records)} items: EX {report.to_json_dict()['ex_percent']}")

    if pending and transport_failures == len(pending):
        print("backend unreachable for every item; partial records kept", file=sys.stderr)
        return 3
    return 0


def _write_report(out_dir: Path, report, digest: str) -> None:
    payload = report.to_json_dict()
    payload["manifest_hash"] = digest
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_csv(out_dir / "report.csv", digest, report.to_csv_rows())


def _write_csv(path: Path, digest: str, rows) -> None:
    """A CSV file whose first line names the manifest hash(es) of the runs it came from."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# manifest {digest}\n")
        csv.writer(handle).writerows(rows)


def _label_line(item_id: str, label) -> str:
    return json.dumps({"item_id": item_id, **asdict(label)}, sort_keys=True)


def cmd_classify(args) -> int:
    records_path = Path(args.records)
    header, records, _lines = _read_records_file(records_path)
    catalog = _catalogs(args)

    labels = []
    lines = []
    for record in records:
        if record.correct:
            continue
        label = classify_error(record.final_sql, record.gold_sql, catalog(record.db_id))
        labels.append(label)
        lines.append(_label_line(record.item_id, label))
    out_dir = Path(args.out) if args.out else records_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    labels_path = out_dir / "labels.jsonl"
    header_line = json.dumps({"type": "run_header", "manifest_hash": header["manifest_hash"]}, sort_keys=True)
    labels_path.write_text("\n".join([header_line] + lines) + "\n", encoding="utf-8")

    # the report comes from the records read, as eval's does, so report.json and report.csv agree with them
    report = assemble_report(records, strategy=header["strategy"], manifest=header["manifest"], labels=labels)
    _write_report(out_dir, report, header["manifest_hash"])
    print("error distribution: " + json.dumps(report.error_distribution, sort_keys=True))
    return 0


def cmd_classify_files(args) -> int:
    """Standalone mode: label a prediction file against a gold benchmark file."""
    path = Path(args.pred)
    try:  # {item_id: SQL or null}, or an array of {"item_id", "sql"} objects
        predictions = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(predictions, list):
            predictions = {str(p["item_id"]): p["sql"] for p in predictions}
        if not all(sql is None or isinstance(sql, str) for sql in predictions.values()):
            raise TypeError("an SQL value is neither a string nor null")
    # ValueError: bad JSON or UTF-8; RecursionError: JSON nested too deep
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise IngestError(f"{path}: not a predictions file: {exc!r}") from exc
    items = load_benchmark(args.gold, args.format)
    catalog = _catalogs(args)
    out = sys.stdout
    for item in items:
        pred_sql = predictions.get(item.item_id)
        label = classify_error(pred_sql, item.gold_sql, catalog(item.db_id))
        out.write(_label_line(item.item_id, label) + "\n")
    return 0


def cmd_report(args) -> int:
    runs = []
    benchmark_seen: str | None = None
    for path in args.records:
        header, records, _lines = _read_records_file(Path(path))
        benchmark = header["benchmark"]
        if benchmark_seen is None:
            benchmark_seen = benchmark
        elif benchmark != benchmark_seen:
            raise ConfigError(f"refusing to merge runs over different benchmarks: {benchmark_seen!r} vs {benchmark!r}")
        report = assemble_report(records, strategy=header["strategy"], manifest=header["manifest"])
        runs.append((header["manifest_hash"], report))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    hashes = ",".join(sorted({h for h, _ in runs}))
    curves, scatter = merged_rows(runs)
    _write_csv(out_dir / "curves.csv", hashes, curves)
    _write_csv(out_dir / "scatter.csv", hashes, scatter)
    print(f"wrote curves.csv and scatter.csv for {len(runs)} run(s)")
    return 0


def _parse_backend_params(pairs: list[str]) -> dict:
    """The ``--backend-param`` pairs by key; a value that reads as a JSON scalar is sent as that scalar.

    ``64``, ``true`` and ``null`` are sent as a number, a boolean and null,
    and ``"64"`` as the string 64. Any other value is sent as its text. An
    empty key, or a key in ``RemoteBackend.BODY_FIELDS``, is refused.
    """
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not key or not sep:
            raise ConfigError(f"--backend-param needs key=value, got {pair!r}")
        if key in RemoteBackend.BODY_FIELDS:
            raise ConfigError(f"--backend-param cannot set {key!r}: the harness sets that body field itself")
        try:
            parsed = json.loads(value)
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            parsed = value
        # arrays and objects stay text, and so do NaN and ±Infinity, which strict JSON lacks
        scalar = parsed is None or isinstance(parsed, (str, int)) or isinstance(parsed, float) and math.isfinite(parsed)
        params[key] = parsed if scalar else value
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nl2sqlbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = PipelineConfig()  # eval's pipeline defaults are the config's

    run = sub.add_parser("eval", help="run an evaluation track over a benchmark")
    run.add_argument("--benchmark", required=True)
    run.add_argument("--format", required=True, choices=("spider", "bird"))
    run.add_argument("--db-root", required=True)
    run.add_argument("--track", default="greedy", choices=tuple(TRACK_STAGES))
    run.add_argument("--k", type=int, default=defaults.num_candidates, help="candidate pool size for maj/sql-d1")
    run.add_argument("--ablation", default="", help="comma list of a_r,a_g,a_v,a_s (sql-d1 only)")
    run.add_argument("--verifier-iters", type=int, default=defaults.verifier_max_iters)
    run.add_argument("--timeout", type=float, default=defaults.timeout_seconds)
    run.add_argument("--temperature", type=float, default=defaults.temperature)
    run.add_argument("--max-new-tokens", type=int, default=defaults.max_new_tokens)
    run.add_argument("--backend", default="mock", choices=("remote", "mock"))
    run.add_argument("--mock-fixture", default=None)
    run.add_argument("--backend-url", default=None)
    run.add_argument("--backend-model", default=None)
    run.add_argument("--backend-param", action="append", default=[], dest="backend_params_raw")
    run.add_argument("--values-per-column", type=int, default=defaults.values_per_column)
    run.add_argument("--top-k-values", type=int, default=defaults.retrieval_top_k)
    run.add_argument("--no-retrieval", action="store_true")
    run.add_argument(
        "--workers", type=int, default=None,
        help="item workers: the calling thread and WORKERS-1 pool threads; with a remote backend, the cap on "
        f"requests in flight. Default: {REMOTE_WORKERS} with a remote backend, 1 with the mock one",
    )
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", required=True)
    run.add_argument("--resume", action="store_true")

    cls = sub.add_parser("classify", help="label incorrect records with the error taxonomy")
    cls.add_argument("--records", help="records.jsonl from an eval run")
    cls.add_argument("--pred", help="standalone: JSON predictions file")
    cls.add_argument("--gold", help="standalone: gold benchmark file")
    cls.add_argument("--format", default="bird", choices=("spider", "bird"))
    cls.add_argument("--db-root", required=True)
    cls.add_argument("--out", default=None)

    rep = sub.add_parser("report", help="merge runs into curve and scatter CSVs")
    rep.add_argument("--records", nargs="+", required=True)
    rep.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "classify":
            if args.records:
                return cmd_classify(args)
            if args.pred and args.gold:
                return cmd_classify_files(args)
            raise ConfigError("classify needs --records, or --pred with --gold")
        if args.command == "report":
            return cmd_report(args)
    except (ConfigError, IngestError, RegistryError, SchemaError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
