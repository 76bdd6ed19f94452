"""Command-line entry point: eval, classify, and report subcommands.

Runs stream records to disk as they complete (one JSON line each, manifest
header first), so interrupted evaluations resume with --resume. With the mock
backend and a fixed seed the whole eval -> classify -> report chain is
byte-deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import context as context_mod
from .corpus import BenchmarkItem, load_benchmark, load_database
from .diagnoser import classify_error, count_labels
from .errors import ConfigError, IngestError, MetricError, RegistryError, SchemaError
from .gateway import MockBackend, RemoteBackend
from .metrics import assemble_report
from .pipeline import EvalRecord, PipelineConfig, run_sql_d1

logger = logging.getLogger(__name__)

TRACKS = ("greedy", "sample", "maj", "sql-d1")
ABLATION_STAGES = ("a_r", "a_g", "a_v", "a_s")


@dataclass
class RunConfig:
    benchmark: Path
    format: str
    db_root: Path
    out_dir: Path
    track: str = "greedy"
    backend: str = "mock"
    mock_fixture: Path | None = None
    mock_default_reply: str = ""
    backend_url: str | None = None
    backend_model: str | None = None
    db_layout: str = "nested"
    workers: int = 1
    seed: int | None = None
    resume: bool = False
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)


def _pipeline_config(args) -> PipelineConfig:
    track = args.track
    stages = set(ABLATION_STAGES)
    if track == "sql-d1" and args.ablation:
        stages = {s.strip() for s in args.ablation.split(",") if s.strip()}
        unknown = stages - set(ABLATION_STAGES)
        if unknown:
            raise ConfigError(f"unknown ablation stages: {', '.join(sorted(unknown))}")
    common = dict(
        verifier_max_iters=args.verifier_iters,
        timeout_seconds=args.timeout,
        max_new_tokens=args.max_new_tokens,
        backend_params=dict(args.backend_params),
        seed=args.seed,
    )
    if track == "greedy":
        return PipelineConfig(
            use_retriever=not args.no_retrieval, use_verifier=False, use_selector=False,
            num_candidates=1, temperature=0.0, **common,
        )
    if track == "sample":
        return PipelineConfig(
            use_retriever=not args.no_retrieval, use_verifier=False, use_selector=False,
            num_candidates=1, temperature=args.temperature, **common,
        )
    if track == "maj":
        return PipelineConfig(
            use_retriever=not args.no_retrieval, use_verifier=False, use_selector=True,
            num_candidates=args.k, temperature=args.temperature, **common,
        )
    return PipelineConfig(
        use_retriever="a_r" in stages,
        use_verifier="a_v" in stages,
        use_selector="a_s" in stages,
        num_candidates=args.k if "a_s" in stages else 1,
        temperature=args.temperature,
        **common,
    )


def _manifest(config: RunConfig) -> dict:
    cfg = config.pipeline
    return {
        "benchmark": str(config.benchmark),
        "format": config.format,
        "db_root": str(config.db_root),
        "db_layout": config.db_layout,
        "track": config.track,
        "backend": config.backend,
        "backend_model": config.backend_model or "",
        "mock_fixture": str(config.mock_fixture) if config.mock_fixture else "",
        "use_retriever": str(cfg.use_retriever),
        "use_verifier": str(cfg.use_verifier),
        "use_selector": str(cfg.use_selector),
        "num_candidates": str(cfg.num_candidates),
        "verifier_max_iters": str(cfg.verifier_max_iters),
        "timeout_seconds": str(cfg.timeout_seconds),
        "temperature": str(cfg.temperature),
        "max_new_tokens": str(cfg.max_new_tokens),
        "backend_params": json.dumps(cfg.backend_params, sort_keys=True),
        "seed": str(config.seed) if config.seed is not None else "",
        "workers": str(config.workers),
    }


def manifest_text(manifest: dict) -> str:
    return "".join(f"{key} = {manifest[key]}\n" for key in sorted(manifest))


def manifest_hash(manifest: dict) -> str:
    """Identity of a run. ``workers`` is provenance only: records do not depend on it."""
    keyed = {key: value for key, value in manifest.items() if key != "workers"}
    return hashlib.sha256(manifest_text(keyed).encode()).hexdigest()[:16]


def _make_backend(config: RunConfig):
    if config.backend == "mock":
        if config.mock_fixture:
            return MockBackend.from_file(config.mock_fixture, default_reply=config.mock_default_reply)
        return MockBackend(default_reply=config.mock_default_reply)
    return RemoteBackend(url=config.backend_url, model=config.backend_model)


class _DatabaseCache:
    """Per-run registry of database handles and base schema contexts."""

    def __init__(self, root: Path, layout: str):
        self.root = root
        self.layout = layout
        self._lock = threading.Lock()
        self._handles: dict = {}
        self._schemas: dict = {}

    def handle(self, db_id: str):
        with self._lock:
            if db_id not in self._handles:
                self._handles[db_id] = load_database(db_id, self.root, layout=self.layout)
            return self._handles[db_id]

    def schema(self, db_id: str):
        handle = self.handle(db_id)
        with self._lock:
            if db_id not in self._schemas:
                descriptions = context_mod.load_descriptions(handle.path.parent)
                self._schemas[db_id] = context_mod.extract_schema(handle, descriptions)
            return self._schemas[db_id]


def _evaluate_item(item: BenchmarkItem, config: RunConfig, cache: _DatabaseCache, backend) -> EvalRecord:
    cfg = config.pipeline
    db = cache.handle(item.db_id)
    base_schema = cache.schema(item.db_id)

    def ctx_builder(use_retriever: bool):
        schema = base_schema
        if use_retriever:
            question_text = item.question if not item.evidence else f"{item.question} {item.evidence}"
            schema = context_mod.retrieve_values(question_text, db, schema, cfg.retrieval_top_k)
            ddl = context_mod.render_ddl(
                schema, include_values=True, values_per_column=cfg.values_per_column
            )
        else:
            ddl = context_mod.render_ddl(schema, include_values=False)
        return context_mod.SchemaContext(
            db_id=schema.db_id,
            tables=schema.tables,
            ddl_text=ddl,
            matched_values=schema.matched_values,
            sample_values=schema.sample_values,
        )

    return run_sql_d1(item, ctx_builder, cfg, backend, db)


def _read_records_file(path: Path, tolerate_tail: bool = False) -> tuple[dict, list[EvalRecord], list[str]]:
    """Parse a records file into (header, records, complete lines).

    With tolerate_tail a truncated final line (interrupted write) is dropped
    instead of raising.
    """
    header: dict = {}
    records: list[EvalRecord] = []
    complete: list[str] = []
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]
    for idx, line in enumerate(lines):
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if tolerate_tail and idx == len(lines) - 1:
                break
            raise
        complete.append(line)
        if data.get("type") == "run_header":
            header = data
        else:
            records.append(EvalRecord.from_dict(data))
    return header, records, complete


def cmd_eval(config: RunConfig) -> int:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(config)
    digest = manifest_hash(manifest)
    # the manifest lands on disk before any evaluation starts
    (config.out_dir / "manifest.txt").write_text(manifest_text(manifest), encoding="utf-8")

    items = load_benchmark(config.benchmark, config.format)
    backend = _make_backend(config)
    cache = _DatabaseCache(config.db_root, config.db_layout)

    records_path = config.out_dir / "records.jsonl"
    done_ids: set[str] = set()
    resuming = False
    if config.resume and records_path.exists():
        header, existing, complete_lines = _read_records_file(records_path, tolerate_tail=True)
        if header and header.get("manifest_hash") not in ("", digest):
            print("refusing to resume: records file belongs to a different run", file=sys.stderr)
            return 2
        done_ids = {record.item_id for record in existing}
        resuming = bool(complete_lines)
        sanitized = "\n".join(complete_lines) + "\n" if complete_lines else ""
        if records_path.read_text(encoding="utf-8") != sanitized:
            # drop a truncated tail left by an interrupted write
            records_path.write_text(sanitized, encoding="utf-8")

    pending = [item for item in items if item.item_id not in done_ids]
    header_line = json.dumps(
        {
            "type": "run_header",
            "manifest_hash": digest,
            "benchmark": str(config.benchmark),
            "format": config.format,
            "strategy": config.track,
            "manifest": manifest,
        },
        sort_keys=True,
    )

    records: list[EvalRecord] = []
    with open(records_path, "a" if resuming else "w", encoding="utf-8") as out:
        if not resuming:
            out.write(header_line + "\n")
        out.flush()
        if pending:
            with ThreadPoolExecutor(max_workers=max(1, config.workers)) as pool:
                for record in pool.map(
                    lambda item: _evaluate_item(item, config, cache, backend), pending
                ):
                    records.append(record)
                    out.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
                    out.flush()

    _header, all_records, _lines = _read_records_file(records_path)
    if not all_records:
        print("no records produced", file=sys.stderr)
        return 2
    report = assemble_report(all_records, strategy=config.track, manifest=manifest)
    _write_report(config.out_dir, report, digest)
    print(f"evaluated {len(all_records)} items: EX {report.to_json_dict()['ex_percent']}")

    transport_failures = sum(
        1 for r in records if r.candidates and all(c.error for c in r.candidates)
    )
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
    with open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# manifest {digest}\n")
        writer = csv.writer(handle)
        writer.writerow(("strategy", "k", "metric", "value"))
        writer.writerows(report.to_csv_rows())


def cmd_classify(args) -> int:
    records_path = Path(args.records)
    if not records_path.exists():
        print(f"records file not found: {records_path}", file=sys.stderr)
        return 2
    header, records, _lines = _read_records_file(records_path)
    cache = _DatabaseCache(Path(args.db_root), args.db_layout)

    labels = []
    lines = []
    for record in records:
        if record.correct:
            continue
        label = classify_error(record.final_sql, record.gold_sql, cache.schema(record.db_id))
        labels.append(label)
        lines.append(
            json.dumps(
                {
                    "item_id": record.item_id,
                    "category": label.category,
                    "subtype": label.subtype,
                    "rationale": label.rationale,
                },
                sort_keys=True,
            )
        )
    out_dir = Path(args.out) if args.out else records_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    labels_path = out_dir / "labels.jsonl"
    header_line = json.dumps(
        {"type": "run_header", "manifest_hash": header.get("manifest_hash", "")}, sort_keys=True
    )
    labels_path.write_text("\n".join([header_line] + lines) + "\n", encoding="utf-8")

    distribution = count_labels(labels)
    report_path = out_dir / "report.json"
    if report_path.exists():
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        payload["error_distribution"] = distribution
        report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        manifest = header.get("manifest", {})
        report = assemble_report(
            records, strategy=header.get("strategy", "unknown"), manifest=manifest,
            error_distribution=distribution,
        )
        _write_report(out_dir, report, header.get("manifest_hash", ""))
    print("error distribution: " + json.dumps(distribution, sort_keys=True))
    return 0


def cmd_classify_files(args) -> int:
    """Standalone mode: label a prediction file against a gold benchmark file."""
    predictions = json.loads(Path(args.pred).read_text(encoding="utf-8"))
    if isinstance(predictions, list):
        predictions = {str(p["item_id"]): p["sql"] for p in predictions}
    items = load_benchmark(args.gold, args.format)
    cache = _DatabaseCache(Path(args.db_root), args.db_layout)
    out = sys.stdout
    for item in items:
        pred_sql = predictions.get(item.item_id)
        label = classify_error(pred_sql, item.gold_sql, cache.schema(item.db_id))
        out.write(
            json.dumps(
                {
                    "item_id": item.item_id,
                    "category": label.category,
                    "subtype": label.subtype,
                    "rationale": label.rationale,
                },
                sort_keys=True,
            )
            + "\n"
        )
    return 0


def cmd_report(args) -> int:
    runs = []
    benchmark_seen: str | None = None
    for path in args.records:
        header, records, _lines = _read_records_file(Path(path))
        if not records:
            print(f"{path}: no records", file=sys.stderr)
            return 2
        benchmark = header.get("benchmark", "")
        if benchmark_seen is None:
            benchmark_seen = benchmark
        elif benchmark != benchmark_seen:
            print(
                f"refusing to merge runs over different benchmarks: {benchmark_seen!r} vs {benchmark!r}",
                file=sys.stderr,
            )
            return 2
        strategy = header.get("strategy", Path(path).stem)
        report = assemble_report(records, strategy=strategy, manifest=header.get("manifest", {}))
        runs.append((header.get("manifest_hash", ""), report))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    hashes = ",".join(sorted({h for h, _ in runs if h}))

    with open(out_dir / "curves.csv", "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# manifest {hashes}\n")
        writer = csv.writer(handle)
        writer.writerow(("strategy", "k", "metric", "value"))
        for _hash, report in runs:
            for k in sorted(report.pass_at_k_curve):
                writer.writerow((report.strategy, k, "pass_at_k", f"{100.0 * report.pass_at_k_curve[k]:.1f}"))
            for k in sorted(report.maj_at_k_curve):
                writer.writerow((report.strategy, k, "maj_at_k", f"{100.0 * report.maj_at_k_curve[k]:.1f}"))

    with open(out_dir / "scatter.csv", "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# manifest {hashes}\n")
        writer = csv.writer(handle)
        writer.writerow(
            ("strategy", "ex_percent", "mean_latency_seconds", "single_pass_latency_seconds", "mean_tokens")
        )
        for _hash, report in runs:
            writer.writerow(
                (
                    report.strategy,
                    f"{100.0 * report.ex_overall:.1f}",
                    f"{report.mean_latency_seconds:.3f}",
                    f"{report.single_pass_latency_seconds:.3f}",
                    f"{report.mean_tokens:.1f}",
                )
            )
    print(f"wrote curves.csv and scatter.csv for {len(runs)} run(s)")
    return 0


def _parse_backend_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--backend-param needs key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key] = value
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nl2sqlbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("eval", help="run an evaluation track over a benchmark")
    run.add_argument("--benchmark", required=True)
    run.add_argument("--format", required=True, choices=("spider", "bird"))
    run.add_argument("--db-root", required=True)
    run.add_argument("--db-layout", default="nested", choices=("nested", "flat"))
    run.add_argument("--track", default="greedy", choices=TRACKS)
    run.add_argument("--k", type=int, default=8, help="candidate pool size for maj/sql-d1")
    run.add_argument("--ablation", default="", help="comma list of a_r,a_g,a_v,a_s (sql-d1 only)")
    run.add_argument("--verifier-iters", type=int, default=2)
    run.add_argument("--timeout", type=float, default=30.0)
    run.add_argument("--temperature", type=float, default=0.8)
    run.add_argument("--max-new-tokens", type=int, default=2048)
    run.add_argument("--backend", default="mock", choices=("remote", "mock"))
    run.add_argument("--mock-fixture", default=None)
    run.add_argument("--mock-default-reply", default="")
    run.add_argument("--backend-url", default=None)
    run.add_argument("--backend-model", default=None)
    run.add_argument("--backend-param", action="append", default=[], dest="backend_params_raw")
    run.add_argument("--values-per-column", type=int, default=3)
    run.add_argument("--top-k-values", type=int, default=3)
    run.add_argument("--no-retrieval", action="store_true")
    run.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", required=True)
    run.add_argument("--resume", action="store_true")

    cls = sub.add_parser("classify", help="label incorrect records with the error taxonomy")
    cls.add_argument("--records", help="records.jsonl from an eval run")
    cls.add_argument("--pred", help="standalone: JSON predictions file")
    cls.add_argument("--gold", help="standalone: gold benchmark file")
    cls.add_argument("--format", default="bird", choices=("spider", "bird"))
    cls.add_argument("--db-root", "--db", dest="db_root", required=True)
    cls.add_argument("--db-layout", default="nested", choices=("nested", "flat"))
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
            args.backend_params = _parse_backend_params(args.backend_params_raw)
            config = RunConfig(
                benchmark=Path(args.benchmark),
                format=args.format,
                db_root=Path(args.db_root),
                out_dir=Path(args.out),
                track=args.track,
                backend=args.backend,
                mock_fixture=Path(args.mock_fixture) if args.mock_fixture else None,
                mock_default_reply=args.mock_default_reply,
                backend_url=args.backend_url,
                backend_model=args.backend_model,
                db_layout=args.db_layout,
                workers=args.workers,
                seed=args.seed,
                resume=args.resume,
                pipeline=_pipeline_config(args),
            )
            config.pipeline.values_per_column = args.values_per_column
            config.pipeline.retrieval_top_k = args.top_k_values
            return cmd_eval(config)
        if args.command == "classify":
            if args.records:
                return cmd_classify(args)
            if args.pred and args.gold:
                return cmd_classify_files(args)
            print("classify needs --records, or --pred with --gold", file=sys.stderr)
            return 2
        if args.command == "report":
            return cmd_report(args)
    except (ConfigError, IngestError, RegistryError, SchemaError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
