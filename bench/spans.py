"""Span tracing for the benchmark's traced run, and the per-layer summary.

``install()`` wraps the harness's public functions where they are looked up,
so a name bound with ``from ... import`` is wrapped on the importing module
(``pipeline.execute_sql``, ``cli.classify_error``, ...). Each wrapper first
checks that the attribute it replaces is the defining module's function, so a
wrapper aimed at the wrong module fails loudly instead of reading zero.

A span records its name, start, end, parent span and item id. The current
span lives in a context variable, and the thread pools of ``cli`` and
``gateway`` are swapped for one that carries it into worker threads, so a
trajectory's backend call still knows its item and parent. Spans stay in
memory until ``Tracer.dump`` writes them out.

``summarize()`` turns one chain's spans into per-layer counts and self times:
a span's self time is its duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

_current = contextvars.ContextVar("bench_span", default=None)  # (span id, item id)

# (span name, module the caller looks the name up in, attribute, defining module)
TARGETS = (
    ("cli.eval", "cli", "cmd_eval", "cli"),
    ("cli.classify", "cli", "cmd_classify", "cli"),
    ("cli.report", "cli", "cmd_report", "cli"),
    ("corpus.load_database", "cli", "load_database", "corpus"),
    ("context.load_descriptions", "context", "load_descriptions", "context"),
    ("context.extract_schema", "context", "extract_schema", "context"),
    ("context.retrieve_values", "context", "retrieve_values", "context"),
    ("context.render_ddl", "context", "render_ddl", "context"),
    ("context.build_prompt", "pipeline", "build_prompt", "context"),
    ("gateway.generate", "pipeline", "generate", "gateway"),
    ("executor.execute_sql", "pipeline", "execute_sql", "executor"),
    ("executor.compare_results", "pipeline", "compare_results", "executor"),
    ("executor.result_signature", "pipeline", "result_signature", "executor"),
    ("pipeline.item", "cli", "run_sql_d1", "pipeline"),
    ("pipeline.item", "cli", "run_greedy", "pipeline"),
    ("pipeline.run_verifier", "pipeline", "run_verifier", "pipeline"),
    ("pipeline.evaluate_pool", "pipeline", "evaluate_pool", "pipeline"),
    ("pipeline.select_winner", "pipeline", "select_winner", "pipeline"),
    ("pipeline.select_winner", "metrics", "select_winner", "pipeline"),
    ("metrics.assemble_report", "cli", "assemble_report", "metrics"),
    ("diagnoser.classify_error", "cli", "classify_error", "diagnoser.classify"),
)
# run_greedy may be folded into run_sql_d1; pipeline.item then wraps the survivor
OPTIONAL = {("cli", "run_greedy")}


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, item_of=None, detail_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = _current.get()
            item = item_of(args) if item_of else (parent[1] if parent else None)
            token = _current.set((span_id, item))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                detail = detail_of(args, result) if detail_of else None
                self.spans.append((span_id, name, start, end, parent[0] if parent else None, item, detail))

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, item, detail in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                         "parent": parent, "item": item, "detail": detail}) + "\n")


def _item_of(args):
    return args[0].item_id


def _item_detail(args, _result):
    return {"gold_sql": args[0].gold_sql}


def _execute_detail(args, result):
    return {"sql": args[1], "status": getattr(result, "status", "raised")}


def install() -> Tracer:
    """Wrap every target; raises if a target is missing or is not the defining function."""
    tracer = Tracer()
    modules = {}

    def module(name):
        if name not in modules:
            modules[name] = importlib.import_module(f"nl2sqlbench.{name}")
        return modules[name]

    plan = []
    for span, where, attr, defined_in in TARGETS:  # check every target before wrapping any
        host = module(where)
        if not hasattr(host, attr) and (where, attr) in OPTIONAL:
            continue
        current = getattr(host, attr)
        if current is not getattr(module(defined_in), attr):
            raise RuntimeError(f"{span}: nl2sqlbench.{where}.{attr} is not nl2sqlbench.{defined_in}.{attr}")
        plan.append((span, host, attr, current))
    for span, host, attr, current in plan:
        item_of = _item_of if span == "pipeline.item" else None
        detail_of = {"pipeline.item": _item_detail, "executor.execute_sql": _execute_detail}.get(span)
        setattr(host, attr, tracer.wrap(span, current, item_of, detail_of))
    gateway = module("gateway")
    gateway.MockBackend.complete = tracer.wrap("gateway.backend_complete", gateway.MockBackend.complete)
    for name in ("cli", "gateway"):
        if module(name).ThreadPoolExecutor is not ThreadPoolExecutor:
            raise RuntimeError(f"nl2sqlbench.{name}.ThreadPoolExecutor is not concurrent.futures'")
        module(name).ThreadPoolExecutor = _ContextPool
    return tracer


# ---------------------------------------------------------------------------
# summary


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children.get(s["id"], []))
        for s in spans
    }


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one eval -> classify -> report chain."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = {}
    for span in spans:
        out[f"{span['name']}.calls"] = out.get(f"{span['name']}.calls", 0) + 1
        out[f"{span['name']}.self_s"] = out.get(f"{span['name']}.self_s", 0.0) + own[span["id"]]

    def under(span, name):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == name:
                return True
        return False

    # eval's traced thread time: self time of cli.eval and of every span below it
    eval_spans = [s for s in spans if s["name"] == "cli.eval" or under(s, "cli.eval")]
    eval_self = sum(own[s["id"]] for s in eval_spans)
    for name in ("context.retrieve_values", "executor.execute_sql"):
        part = sum(own[s["id"]] for s in eval_spans if s["name"] == name)
        out[f"{name}.eval_share"] = part / eval_self if eval_self else 0.0
    out["trace.eval_thread_s"] = eval_self

    items = {s["item"]: s["detail"]["gold_sql"] for s in spans if s["name"] == "pipeline.item"}
    executed: dict[str, set] = {item: set() for item in items}
    executions = 0
    for span in spans:
        if span["name"] == "executor.execute_sql" and span["item"] in items:
            executions += 1
            executed[span["item"]].add(span["detail"]["sql"])
    predicted = sum(len(sqls - {items[item]}) for item, sqls in executed.items())
    n_items = max(1, len(items))
    out["executor.execute_sql.calls_per_item"] = executions / n_items
    out["executor.distinct_sql_per_item"] = predicted / n_items
    # every distinct predicted string plus the gold query is an execution worth making
    out["executor.useful_execution_ratio"] = sum(len(s) for s in executed.values()) / max(1, executions)
    out["executor.timeouts"] = sum(
        1 for s in spans if s["name"] == "executor.execute_sql" and s["detail"]["status"] == "timeout"
    )
    out["pipeline.repairs"] = sum(
        1 for s in spans
        if s["name"] == "gateway.generate" and s["parent"] is not None
        and by_id[s["parent"]]["name"] == "pipeline.run_verifier"
    )
    return out
