"""Scoring of model predictions: exact match with the curly-brace OOV
relaxation, replica aggregation, length-bucketed breakdowns, divergence
curve data, and results tables."""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .data import Example, PredictionRecord
from .sparql import (IrDecodeError, SparqlParseError, clause_set_equal,
                     parse_sparql)

BRACES = ("{", "}")
DEFAULT_OOV_TOKEN = "<unk>"


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class AggregateStat:
    mean: float
    variance_value: float
    variance_kind: str  # stdev | ci95 | ci95_bootstrap
    n: int
    degenerate: bool = False  # single replica: variance is 0 by convention


@dataclass(frozen=True)
class LengthBucket:
    low: int
    high: int
    train_count: int
    test_count: int
    accuracy: Optional[float]
    unseen_length: bool


@dataclass(frozen=True)
class EvalReport:
    split: str
    replica_accuracies: tuple[float, ...]
    aggregate: AggregateStat

    def to_jsonable(self) -> dict:
        return {
            "split": self.split,
            "replica_accuracies": list(self.replica_accuracies),
            "mean": self.aggregate.mean,
            "variance": self.aggregate.variance_value,
            "variance_kind": self.aggregate.variance_kind,
            "n_replicas": self.aggregate.n,
        }


def exact_match(prediction: Sequence[str], gold: Sequence[str],
                relax_oov_braces: bool = False,
                oov_token: str = DEFAULT_OOV_TOKEN) -> bool:
    """True iff the sequences are identical; with the relaxation the OOV
    token also matches gold curly braces (and only those positions)."""
    if len(prediction) != len(gold):
        return False
    for p, g in zip(prediction, gold):
        if p == g:
            continue
        if relax_oov_braces and g in BRACES and p == oov_token:
            continue
        return False
    return True


def _clause_set_match(prediction: Sequence[str], gold: Sequence[str]) -> bool:
    try:
        gold_q = parse_sparql(" ".join(gold))
        pred_q = parse_sparql(" ".join(prediction))
    except SparqlParseError:
        return False
    return clause_set_equal(pred_q, gold_q)


def _matches(predictions: Iterable[PredictionRecord],
             golds: Mapping[str, Sequence[str]],
             relax_oov_braces: bool = False, oov_token: str = DEFAULT_OOV_TOKEN,
             clause_set: bool = False) -> dict[str, bool]:
    """{id: matched} for the predictions of one replica, the matcher of
    score_run and length_breakdown.  An unknown or repeated id is an
    error."""
    matched = {}
    for rec in predictions:
        if rec.example_id not in golds:
            raise EvalError(f"prediction for unknown id {rec.example_id!r}")
        if rec.example_id in matched:
            raise EvalError(f"multiple predictions for id {rec.example_id!r}")
        gold = golds[rec.example_id]
        matched[rec.example_id] = (
            _clause_set_match(rec.tokens, gold) if clause_set
            else exact_match(rec.tokens, gold, relax_oov_braces, oov_token))
    return matched


def score_run(predictions: Iterable[PredictionRecord],
              golds: Mapping[str, Sequence[str]] | Sequence[Example],
              relax_oov_braces: bool = False,
              oov_token: str = DEFAULT_OOV_TOKEN,
              clause_set: bool = False) -> float:
    """Fraction of gold examples matched by the predictions of one replica.
    Missing predictions count as wrong; predictions for unknown ids are an
    error."""
    if not isinstance(golds, Mapping):
        golds = {ex.id: ex.output for ex in golds}
    if not golds:
        raise EvalError("no gold examples")
    matched = _matches(predictions, golds, relax_oov_braces, oov_token, clause_set)
    correct = sum(1 for i in golds if matched.get(i, False))
    return correct / len(golds)


def score_replicas(predictions: Iterable[PredictionRecord],
                   golds: Mapping[str, Sequence[str]] | Sequence[Example],
                   **options) -> dict[int, float]:
    """Per-replica accuracies, keyed by replica index."""
    by_replica: dict[int, list[PredictionRecord]] = {}
    for rec in predictions:
        by_replica.setdefault(rec.replica, []).append(rec)
    if not by_replica:
        raise EvalError("no predictions")
    return {rep: score_run(recs, golds, **options)
            for rep, recs in sorted(by_replica.items())}


def aggregate_replicas(accuracies: Sequence[float], kind: str = "stdev",
                       bootstrap_samples: int = 10000,
                       seed: int = 0) -> AggregateStat:
    """Mean and a variance measure over replica accuracies.

    stdev is the sample standard deviation; ci95 the normal-approximation
    half-width 1.96 * stdev / sqrt(n); ci95_bootstrap a percentile bootstrap
    half-width for comparison.
    """
    accuracies = list(accuracies)
    if not accuracies:
        raise EvalError("no replica accuracies")
    mean = sum(accuracies) / len(accuracies)
    n = len(accuracies)
    if n == 1:
        return AggregateStat(mean, 0.0, kind, 1, degenerate=True)
    stdev = statistics.stdev(accuracies)
    if kind == "stdev":
        value = stdev
    elif kind == "ci95":
        value = 1.96 * stdev / math.sqrt(n)
    elif kind == "ci95_bootstrap":
        rng = random.Random(seed)
        means = sorted(
            sum(rng.choice(accuracies) for _ in range(n)) / n
            for _ in range(bootstrap_samples))
        lo = means[int(0.025 * bootstrap_samples)]
        hi = means[min(int(0.975 * bootstrap_samples), bootstrap_samples - 1)]
        value = (hi - lo) / 2
    else:
        raise EvalError(f"unknown variance kind {kind!r}")
    return AggregateStat(mean, value, kind, n)


def length_breakdown(predictions: Iterable[PredictionRecord],
                     golds: Sequence[Example],
                     train_set: Sequence[Example],
                     bucket_width: int = 5,
                     axis: str = "output",
                     **match_options) -> list[LengthBucket]:
    """Per-length-bucket train/test counts and accuracy.  Buckets beyond the
    maximum train length are flagged as unseen."""
    if bucket_width < 1:
        raise EvalError("bucket_width must be >= 1")
    if axis not in ("input", "output"):
        raise EvalError(f"axis must be 'input' or 'output', got {axis!r}")

    def length(ex: Example) -> int:
        return len(ex.input if axis == "input" else ex.output)

    matched = _matches(predictions, {ex.id: ex.output for ex in golds}, **match_options)

    def bucket_of(n: int) -> int:
        return (n - 1) // bucket_width

    train_counts: dict[int, int] = {}
    for ex in train_set:
        b = bucket_of(length(ex))
        train_counts[b] = train_counts.get(b, 0) + 1
    test_counts: dict[int, int] = {}
    correct: dict[int, int] = {}
    for ex in golds:
        b = bucket_of(length(ex))
        test_counts[b] = test_counts.get(b, 0) + 1
        if matched.get(ex.id, False):
            correct[b] = correct.get(b, 0) + 1

    max_train_len = max((length(ex) for ex in train_set), default=0)
    buckets = []
    for b in sorted(set(train_counts) | set(test_counts)):
        low, high = b * bucket_width + 1, (b + 1) * bucket_width
        n_test = test_counts.get(b, 0)
        buckets.append(LengthBucket(
            low=low, high=high,
            train_count=train_counts.get(b, 0),
            test_count=n_test,
            accuracy=(correct.get(b, 0) / n_test) if n_test else None,
            unseen_length=low > max_train_len,
        ))
    return buckets


def check_divergence(div: float) -> None:
    """A divergence lies in [0, 1]."""
    if not 0 <= div <= 1:
        raise EvalError(f"divergence {div} outside [0, 1]")


def divergence_curve(points: Iterable[tuple[float, float, str]]) -> str:
    """CSV (divergence,accuracy,label) sorted by divergence, for external
    plotting of accuracy-vs-compound-divergence curves."""
    rows = sorted(points, key=lambda p: (p[0], p[2], p[1]))
    for div, _, _ in rows:
        check_divergence(div)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["divergence", "accuracy", "label"])
    for div, acc, label in rows:
        writer.writerow([f"{div:g}", f"{acc:g}", label])
    return out.getvalue()


def render_results_table(results: Mapping[str, Mapping[str, Optional[AggregateStat]]],
                         splits: Optional[Sequence[str]] = None,
                         bold_margin: float = 0.5) -> str:
    """Markdown table: rows are models, columns are splits, cells are
    mean +/- variance in percentage points.  Missing entries render as '-';
    cells within bold_margin of the column best are bolded; the variance
    kind(s) are footnoted."""
    if splits is None:
        seen: list[str] = []
        for per_model in results.values():
            for s in per_model:
                if s not in seen:
                    seen.append(s)
        splits = seen
    best: dict[str, float] = {}
    for per_model in results.values():
        for s in splits:
            stat = per_model.get(s)
            if stat is not None and (s not in best or stat.mean > best[s]):
                best[s] = stat.mean
    lines = ["| Model | " + " | ".join(splits) + " |",
             "|" + " --- |" * (len(splits) + 1)]
    kinds = []
    for model, per_model in results.items():
        cells = []
        for s in splits:
            stat = per_model.get(s)
            if stat is None:
                cells.append("-")
                continue
            text = f"{stat.mean:.1f}"
            if stat.n > 1:
                text += f" ± {stat.variance_value:.1f}"
            if stat.variance_kind not in kinds:
                kinds.append(stat.variance_kind)
            if stat.mean >= best[s] - bold_margin:
                text = f"**{text}**"
            cells.append(text)
        lines.append(f"| {model} | " + " | ".join(cells) + " |")
    if kinds:
        lines.append("")
        lines.append("Variance reported: " + ", ".join(kinds) + ".")
    return "\n".join(lines) + "\n"
