"""Accuracy, scaling-curve, and efficiency metrics plus report assembly.

Percentages follow the one-decimal reporting convention throughout so report
files diff cleanly. pass@k uses the standard unbiased per-item estimator
1 - C(n-c, k)/C(n, k) computed in product form; Maj@k replays the selector's
clustering over stored pool prefixes, so reports never need live databases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import stratify
from .diagnoser import CATEGORIES
from .errors import MetricError
from .pipeline import EvalRecord, select_winner


def pct(fraction: float) -> float:
    """One-decimal percentage (58.7 for 0.587), as a real number."""
    return float(f"{100.0 * fraction:.1f}")


def execution_accuracy(records: list[EvalRecord]) -> float:
    """Fraction of records whose final SQL executed to the gold result."""
    if not records:
        raise MetricError("execution accuracy undefined on an empty record set")
    return sum(1 for r in records if r.correct) / len(records)


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased estimate of getting >= 1 correct among k draws from an n-pool with c correct."""
    if not 0 <= c <= n:
        raise MetricError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not 1 <= k <= n:
        raise MetricError(f"need 1 <= k <= n, got k={k}, n={n}")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    product = 1.0
    for i in range(k):
        product *= (n - c - i) / (n - i)
    return 1.0 - product


def majority_accuracy(records: list[EvalRecord], k: int) -> float:
    """EX after consistency voting over each record's first k pool candidates."""
    if not records:
        raise MetricError("majority accuracy undefined on an empty record set")
    correct = 0
    for record in records:
        if len(record.pool) < k:
            raise MetricError(f"item {record.item_id}: pool of {len(record.pool)} has no prefix of {k}")
        prefix = [e for e in record.pool if e.trajectory_id < k]
        winner = select_winner(prefix)
        if winner is not None and winner.correct:
            correct += 1
    return correct / len(records)


def pass_at_k_over_records(records: list[EvalRecord], k: int) -> float:
    """Per-item unbiased pass@k averaged over the run."""
    if not records:
        raise MetricError("pass@k undefined on an empty record set")
    total = 0.0
    for record in records:
        n = len(record.pool)
        if n < k:
            raise MetricError(f"item {record.item_id}: pool of {n} cannot estimate pass@{k}")
        c = sum(1 for e in record.pool if e.correct)
        total += pass_at_k(n, c, k)
    return total / len(records)


def efficiency_stats(records: list[EvalRecord]) -> tuple[float, float]:
    """(mean total latency seconds, mean total tokens) over records."""
    if not records:
        return (0.0, 0.0)
    latency = math.fsum(r.total_latency_seconds for r in records) / len(records)
    tokens = sum(r.total_tokens for r in records) / len(records)
    return (latency, tokens)


def single_pass_latency(records: list[EvalRecord]) -> float:
    """Mean first-candidate latency (the single-pass cost of the model).

    A candidate's latency includes its verifier repairs (``pipeline.run_verifier``
    adds each one's), so on a run with the verifier a repaired trajectory 0
    counts its repairs too. The first attempt's latency alone is not recorded.
    """
    firsts = [r.candidates[0].latency_seconds for r in records if r.candidates]
    if not firsts:
        return 0.0
    return math.fsum(firsts) / len(firsts)


@dataclass
class EvalReport:
    strategy: str
    n_items: int
    n_correct: int
    ex_overall: float
    ex_by_difficulty: dict[str, dict]
    pass_at_k_curve: dict[int, float]
    maj_at_k_curve: dict[int, float]
    mean_latency_seconds: float
    mean_tokens: float
    single_pass_latency_seconds: float
    tokens_approximate: bool
    error_distribution: dict[str, int]
    manifest: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Deterministic JSON form; percentages rendered to one decimal."""
        return {
            "strategy": self.strategy,
            "n_items": self.n_items,
            "n_correct": self.n_correct,
            "ex_overall": self.ex_overall,
            "ex_percent": f"{100.0 * self.ex_overall:.1f}",
            "ex_by_difficulty": {
                name: {
                    "n_items": bucket["n_items"],
                    "n_correct": bucket["n_correct"],
                    "ex_percent": f"{100.0 * bucket['ex']:.1f}",
                }
                for name, bucket in self.ex_by_difficulty.items()
            },
            "pass_at_k": {str(k): pct(v) for k, v in self.pass_at_k_curve.items()},
            "maj_at_k": {str(k): pct(v) for k, v in self.maj_at_k_curve.items()},
            "mean_latency_seconds": round(self.mean_latency_seconds, 6),
            "single_pass_latency_seconds": round(self.single_pass_latency_seconds, 6),
            "mean_tokens": round(self.mean_tokens, 3),
            "tokens_approximate": self.tokens_approximate,
            "error_distribution": {c: self.error_distribution.get(c, 0) for c in CATEGORIES},
            "manifest": self.manifest,
        }

    def to_csv_rows(self) -> list[tuple[str, str, str, str]]:
        """Plot-ready rows: (strategy, k, metric, value)."""
        rows = [(self.strategy, "", "ex", f"{100.0 * self.ex_overall:.1f}")]
        for name, bucket in self.ex_by_difficulty.items():
            rows.append((self.strategy, "", f"ex_{name}", f"{100.0 * bucket['ex']:.1f}"))
        for k in sorted(self.pass_at_k_curve):
            rows.append((self.strategy, str(k), "pass_at_k", f"{100.0 * self.pass_at_k_curve[k]:.1f}"))
        for k in sorted(self.maj_at_k_curve):
            rows.append((self.strategy, str(k), "maj_at_k", f"{100.0 * self.maj_at_k_curve[k]:.1f}"))
        rows.append((self.strategy, "", "mean_latency_seconds", f"{self.mean_latency_seconds:.3f}"))
        rows.append((self.strategy, "", "single_pass_latency_seconds", f"{self.single_pass_latency_seconds:.3f}"))
        rows.append((self.strategy, "", "mean_tokens", f"{self.mean_tokens:.1f}"))
        for category in CATEGORIES:
            rows.append((self.strategy, "", f"errors_{category}", str(self.error_distribution.get(category, 0))))
        return rows


def assemble_report(
    records: list[EvalRecord],
    strategy: str,
    manifest: dict | None = None,
    error_distribution: dict[str, int] | None = None,
) -> EvalReport:
    """Aggregate a run's records into the full report.

    The error distribution is zero-filled until a classification pass
    supplies real counts.
    """
    if not records:
        raise MetricError("cannot assemble a report from zero records")
    ex = execution_accuracy(records)
    buckets = {}
    for name, bucket in stratify(records).items():
        if not bucket:
            continue
        buckets[name] = {
            "n_items": len(bucket),
            "n_correct": sum(1 for r in bucket if r.correct),
            "ex": execution_accuracy(bucket),
        }
    pool_sizes = {len(r.pool) for r in records}
    pass_curve: dict[int, float] = {}
    maj_curve: dict[int, float] = {}
    if pool_sizes and min(pool_sizes) > 1:
        max_k = min(pool_sizes)
        for k in range(1, max_k + 1):
            pass_curve[k] = pass_at_k_over_records(records, k)
            maj_curve[k] = majority_accuracy(records, k)
    latency, tokens = efficiency_stats(records)
    distribution = error_distribution or {c: 0 for c in CATEGORIES}
    return EvalReport(
        strategy=strategy,
        n_items=len(records),
        n_correct=sum(1 for r in records if r.correct),
        ex_overall=ex,
        ex_by_difficulty=buckets,
        pass_at_k_curve=pass_curve,
        maj_at_k_curve=maj_curve,
        mean_latency_seconds=latency,
        mean_tokens=tokens,
        single_pass_latency_seconds=single_pass_latency(records),
        tokens_approximate=any(c.tokens_approximate for r in records for c in r.candidates),
        error_distribution={c: distribution.get(c, 0) for c in CATEGORIES},
        manifest=manifest or {},
    )
