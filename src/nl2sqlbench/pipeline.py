"""Dual-track inference orchestration.

Model-based track: greedy (temperature 0, one candidate) or sampled pools
evaluated by majority voting. Agentic track: retrieval-grounded context,
a candidate pool, per-candidate execution-feedback repair, and
consistency-based selection over execution-result clusters. Both tracks are
configurations of the one staged flow in ``run_sql_d1``; stages toggle
independently so ablation configurations can be measured side by side.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from . import context  # retrieval and DDL are looked up on the module, where bench/spans.py wraps them
from .corpus import BenchmarkItem, DatabaseHandle
from .context import LiteralIndex, SchemaContext, build_prompt
from .errors import ConfigError
from .executor import (
    DEFAULT_TIMEOUT_SECONDS,
    STATUS_EMPTY,
    ExecutionOutcome,
    ItemReader,
    compare_results,
    execute_sql,
    is_order_sensitive,
    result_signature,
)
from .gateway import DEFAULT_MAX_NEW_TOKENS, DEFAULT_TEMPERATURE, Candidate, GenerationRequest, generate

REPAIR_TEMPLATE = (
    "Your previous SQL query was:\n```sql\n{sql}\n```\n"
    "Executing it produced the error: {error}. Fix the query. "
    "Output only the corrected SQL inside ```sql ``` tags."
)


@dataclass
class PipelineConfig:
    use_retriever: bool = True
    num_candidates: int = 8  # above 1, the selector picks among the pool
    verifier_max_iters: int = 2  # 0 switches the verifier off
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    backend_params: dict = field(default_factory=dict)
    seed: int | None = None
    values_per_column: int = 3
    retrieval_top_k: int = 3

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ConfigError("num_candidates must be at least 1")
        if self.verifier_max_iters < 0:
            raise ConfigError("verifier_max_iters must be non-negative")
        if self.use_retriever and self.retrieval_top_k < 1:
            raise ConfigError("retrieval_top_k must be at least 1 when retrieval is on")
        # written so that NaN fails too; checked here so a run stops before it writes any output
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError("temperature must be within [0, 2]")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be at least 1")
        if not self.timeout_seconds > 0:
            raise ConfigError("timeout_seconds must be positive")
        if self.values_per_column < 0:
            raise ConfigError("values_per_column must be non-negative")


@dataclass
class PoolEntry:
    """One executed pool candidate, ready for consistency clustering."""

    trajectory_id: int
    sql: str | None
    signature: str  # hex digest of the execution-result signature
    failure: bool
    correct: bool = False
    status: str = STATUS_EMPTY


@dataclass
class EvalRecord:
    item_id: str
    db_id: str
    difficulty: str
    question: str
    gold_sql: str
    final_sql: str | None
    candidates: list[Candidate]
    outcome: ExecutionOutcome
    gold_outcome: ExecutionOutcome
    correct: bool
    order_sensitive: bool
    per_stage_trace: list[tuple[str, str]]
    total_latency_seconds: float
    total_tokens: int
    pool: list[PoolEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Serializable form for the records file: one key per field.

        Result rows are dropped. Latency fields account for backend calls
        only, keeping mock-backend runs byte-reproducible.
        """
        data = _field_values(self)
        data.update(
            outcome=_field_values(self.outcome, skip="rows"),
            gold_outcome=_field_values(self.gold_outcome, skip="rows"),
            candidates=[_field_values(c) for c in self.candidates],
            pool=[_field_values(e) for e in self.pool],
            per_stage_trace=[list(entry) for entry in self.per_stage_trace],
        )
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EvalRecord":
        """Inverse of ``to_dict``; absent optional keys take the field defaults, unknown keys are ignored."""
        record = _known_fields(cls, data)
        for key in ("outcome", "gold_outcome"):  # rows are never stored: even a record that carries them reads None
            record[key] = ExecutionOutcome(**{**_known_fields(ExecutionOutcome, data[key]), "rows": None})
        record.update(
            candidates=[Candidate(**_known_fields(Candidate, c)) for c in data["candidates"]],
            pool=[PoolEntry(**_known_fields(PoolEntry, e)) for e in data.get("pool", [])],
            per_stage_trace=[tuple(entry) for entry in data["per_stage_trace"]],
        )
        return cls(**record)


def _field_values(obj, skip: str = "") -> dict:
    """A dataclass instance's fields by name, but ``skip``; values are not copied (``asdict`` deep-copies)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != skip}


def _known_fields(cls, data: dict) -> dict:
    return {f.name: data[f.name] for f in fields(cls) if f.name in data}


def _prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode()).hexdigest()[:12]


def _request(prompt: str, cfg: PipelineConfig, temperature: float, num_candidates: int) -> GenerationRequest:
    return GenerationRequest(
        prompt=prompt,
        temperature=temperature,
        max_new_tokens=cfg.max_new_tokens,
        num_candidates=num_candidates,
        backend_params=dict(cfg.backend_params),
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Stages


def build_context(
    item: BenchmarkItem, schema: SchemaContext, cfg: PipelineConfig, literals: LiteralIndex | None
) -> tuple[str, dict]:
    """The item's rendered DDL, and the values retrieval matched on question plus evidence.

    ``literals`` is the database's ``context.index_literals`` index, or None
    when retrieval is off: then nothing is matched and the DDL shows no
    example values.
    """
    if not cfg.use_retriever:
        return context.render_ddl(schema, {}, 0), {}
    question = f"{item.question} {item.evidence}" if item.evidence else item.question
    matched = context.retrieve_values(question, literals, cfg.retrieval_top_k)
    return context.render_ddl(schema, matched, cfg.values_per_column), matched


def run_generator(prompt: str, cfg: PipelineConfig, backend, trace: list) -> list[Candidate]:
    """Populate a candidate pool of exactly cfg.num_candidates trajectories."""
    trace.append(("generate", f"prompt {_prompt_hash(prompt)} x{cfg.num_candidates}"))
    candidates = generate(_request(prompt, cfg, cfg.temperature, cfg.num_candidates), backend)
    for cand in candidates:
        note = "failed" if cand.failed else f"{cand.token_count} tokens"
        trace.append(("generate", f"trajectory {cand.trajectory_id}: {note}"))
    return candidates


class Verdict(NamedTuple):
    """What an item's judge stores for one SQL string."""

    outcome: ExecutionOutcome  # without rows, which nothing reads once judged; row_count stays
    signature: str  # result_signature of the outcome
    correct: bool


Judge = Callable[[str | None], Verdict]


def item_judge(
    reader: ItemReader, gold_sql: str, gold_outcome: ExecutionOutcome, order_sensitive: bool,
    timeout_seconds: float,
) -> Judge:
    """One item's judge of SQL strings, each distinct compiled program judged once and stored.

    Judging executes the string, compares the result with the gold one and
    signs it. A result is never correct when the gold query failed. Verdicts
    are stored by string and by the string's compiled program
    (``ItemReader.program``), so strings that differ only in aliases,
    layout or the like share one verdict, and a string whose program is
    gold's reuses ``gold_outcome``; a string with no program key is judged
    by itself. A statement whose result can change between runs
    (``random()``, ``'now'``) therefore runs once per program, as a
    repeated string does. The stored verdict drops the result's rows, so an
    item holds gold's rows, which every comparison reads, and the rows of
    the one result being judged.
    """
    verdicts: dict[str | None, Verdict] = {}
    by_program: dict[tuple, Verdict] = {}
    gold_program = functools.cache(lambda: reader.program(gold_sql))

    def judge(sql: str | None) -> Verdict:
        if sql not in verdicts:
            program = gold_program() if sql == gold_sql else reader.program(sql)
            verdict = by_program.get(program)
            if verdict is None:
                if sql == gold_sql or program is not None and program == gold_program():
                    outcome = gold_outcome
                else:
                    outcome = execute_sql(reader, sql, timeout_seconds)
                correct = gold_outcome.ok and compare_results(outcome, gold_outcome, order_sensitive)
                verdict = Verdict(replace(outcome, rows=None), result_signature(outcome), correct)
                if program is not None:
                    by_program[program] = verdict
            verdicts[sql] = verdict
        return verdicts[sql]

    return judge


def run_verifier(
    candidate: Candidate, prompt: str, cfg: PipelineConfig, backend, judge: Judge, trace: list
) -> Candidate:
    """Execution-feedback repair loop (at most cfg.verifier_max_iters regenerations).

    A repair prompt is the item's ``prompt`` followed by the failing SQL and
    its error. Repairs regenerate at temperature 0; latency and token counts
    accumulate onto the returned candidate. A candidate that still fails
    after the budget is returned unchanged for selection to down-rank.
    Each SQL string's outcome comes from the item's ``judge``.

    A repair is requested as a one-candidate generation, so the backend sees
    trajectory 0 whichever candidate is being repaired: a mock rule limited
    to a trajectory above 0 answers no repair, and a seeded remote backend
    sends every repair with trajectory 0's seed.
    """
    current = candidate
    for iteration in range(cfg.verifier_max_iters):
        outcome = judge(current.extracted_sql).outcome
        if outcome.ok:
            if iteration == 0:
                trace.append(("verify", f"trajectory {current.trajectory_id}: ok, no repair"))
            return current
        error_text = outcome.error_message or outcome.status
        trace.append(
            ("verify", f"trajectory {current.trajectory_id} iter {iteration + 1}: {outcome.status}: {error_text}")
        )
        repair_prompt = prompt + "\n" + REPAIR_TEMPLATE.format(
            sql=current.extracted_sql or "", error=error_text
        )
        repaired = generate(_request(repair_prompt, cfg, 0.0, 1), backend)[0]
        current = Candidate(
            trajectory_id=current.trajectory_id,
            raw_text=repaired.raw_text,
            extracted_sql=repaired.extracted_sql,
            latency_seconds=current.latency_seconds + repaired.latency_seconds,
            token_count=current.token_count + repaired.token_count,
            tokens_approximate=current.tokens_approximate or repaired.tokens_approximate,
            error=repaired.error,
        )
    return current


def evaluate_pool(candidates: list[Candidate], judge: Judge) -> list[PoolEntry]:
    """The candidates as cluster-ready pool entries, each judged by the item's ``judge``.

    Clustering signatures use order-insensitive canonical forms; per-entry
    correctness uses the gold query's own order sensitivity.
    """
    entries = []
    for cand in candidates:
        outcome, signature, correct = judge(cand.extracted_sql)
        entries.append(
            PoolEntry(
                trajectory_id=cand.trajectory_id,
                sql=cand.extracted_sql,
                signature=signature,
                failure=not outcome.ok,
                correct=correct,
                status=outcome.status,
            )
        )
    return entries


def select_winner(entries: list[PoolEntry]) -> PoolEntry | None:
    """Plurality choice over execution-result clusters.

    Failure clusters are discarded unless every cluster is a failure. The
    largest surviving cluster wins; ties go to the cluster containing the
    lowest trajectory id, whose candidate also serves as the representative.
    Entries without SQL cannot represent anything and are ignored.
    """
    eligible = [e for e in entries if e.sql is not None]
    if not eligible:
        return None
    clusters: dict[str, list[PoolEntry]] = {}
    for entry in eligible:
        clusters.setdefault(entry.signature, []).append(entry)
    groups = list(clusters.values())
    survivors = [g for g in groups if not g[0].failure]
    if not survivors:
        survivors = groups
    survivors.sort(key=lambda g: (-len(g), min(e.trajectory_id for e in g)))
    winner = survivors[0]
    return min(winner, key=lambda e: e.trajectory_id)


# ---------------------------------------------------------------------------
# Track


def run_sql_d1(
    item: BenchmarkItem,
    schema: SchemaContext,
    cfg: PipelineConfig,
    backend,
    db: DatabaseHandle,
    literals: LiteralIndex | None,
) -> EvalRecord:
    """The four-stage agentic flow with stages toggled by the config.

    ``schema`` is the database's base context, before retrieval and DDL, and
    ``literals`` is its text-column literal index, or None without retrieval
    (see ``build_context``).
    With one candidate at temperature 0 and no repairs this is the greedy
    track. The verifier, the pool and the final record share one
    ``item_judge``, so each distinct compiled program of the item, the gold
    query's included, is executed once. The item's queries share one read-only
    connection, which is closed when the item returns or raises (see
    ``executor.ItemReader``).
    """
    trace: list = []
    ddl, matched = build_context(item, schema, cfg, literals)
    if cfg.use_retriever:
        n_matches = sum(len(v) for v in matched.values())
        trace.append(("retrieve", f"{n_matches} matched values over {len(matched)} columns"))
    else:
        trace.append(("retrieve", "disabled: schema DDL only"))

    prompt = build_prompt(item, ddl)
    candidates = run_generator(prompt, cfg, backend, trace)

    order_sensitive = is_order_sensitive(item.gold_sql)
    with ItemReader(db) as reader:
        gold_outcome = execute_sql(reader, item.gold_sql, cfg.timeout_seconds)
        judge = item_judge(reader, item.gold_sql, gold_outcome, order_sensitive, cfg.timeout_seconds)

        if cfg.verifier_max_iters:
            candidates = [run_verifier(c, prompt, cfg, backend, judge, trace) for c in candidates]

        pool = evaluate_pool(candidates, judge)

    final = pool[0]
    if cfg.num_candidates > 1:
        winner = select_winner(pool)
        if winner:
            final = winner
            cluster_size = sum(1 for e in pool if e.signature == winner.signature and e.sql is not None)
            trace.append(
                ("select", f"trajectory {winner.trajectory_id} wins (cluster {cluster_size}/{len(pool)})")
            )
        else:
            trace.append(("select", "no candidate produced SQL"))
    else:
        trace.append(("select", "disabled: single candidate"))

    outcome = judge(final.sql).outcome
    trace.append(("execute", f"final status {outcome.status}"))
    if not gold_outcome.ok:
        trace.append(("execute", f"gold invalid: {gold_outcome.status}"))
    trace.append(("compare", f"correct={final.correct}"))
    return EvalRecord(
        item_id=item.item_id,
        db_id=item.db_id,
        difficulty=item.difficulty,
        question=item.question,
        gold_sql=item.gold_sql,
        final_sql=final.sql,
        candidates=candidates,
        outcome=outcome,
        # a record keeps row counts, not rows: a finished record may wait in memory for the items ahead of it
        gold_outcome=replace(gold_outcome, rows=None),
        correct=final.correct,
        order_sensitive=order_sensitive,
        per_stage_trace=trace,
        total_latency_seconds=math.fsum(c.latency_seconds for c in candidates),
        total_tokens=sum(c.token_count for c in candidates),
        pool=pool,
    )
