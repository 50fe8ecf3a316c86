"""Scoring of model predictions: exact match with the curly-brace OOV
relaxation, replica aggregation, length-bucketed breakdowns, divergence
curve data, and results tables."""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .data import Example, PredictionRecord
from .sparql import SparqlParseError, clause_set_equal, parse_sparql

BRACES = ("{", "}")
DEFAULT_OOV_TOKEN = "<unk>"
VARIANCE_KINDS = ("stdev", "ci95", "ci95_bootstrap")  # see aggregate_replicas
LENGTH_AXES = ("input", "output")  # the sequence length_breakdown measures


class EvalError(ValueError):
    """index, when given, is the position of the offending item in the input."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class PredictionError(EvalError):
    """An error about the prediction records, not about an option."""


class UnknownIdError(PredictionError):
    """A prediction for an id that no gold example has."""


@dataclass(frozen=True)
class AggregateStat:
    """Replica accuracies aggregated; `eval score` writes these fields, by
    these names and in this order, after the split and the accuracies."""
    mean: float
    variance: float
    variance_kind: str  # one of VARIANCE_KINDS
    n_replicas: int


@dataclass(frozen=True)
class LengthBucket:
    low: int
    high: int
    train_count: int
    test_count: int
    accuracy: Optional[float]
    unseen_length: bool


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


def _parsed(tokens: Sequence[str]):
    """The query that tokens spell, or None when they do not parse."""
    try:
        return parse_sparql(" ".join(tokens))
    except SparqlParseError:
        return None


def _clause_set_match(prediction: Sequence[str], gold: Sequence[str], gold_query) -> bool:
    """gold_query is the parsed gold, or None when the gold does not parse.
    A prediction equal to a gold that parses matches without a parse."""
    if gold_query is None:
        return False
    if prediction == gold:
        return True
    pred_query = _parsed(prediction)
    return pred_query is not None and clause_set_equal(pred_query, gold_query)


def _matches(replicas: Iterable[Iterable[PredictionRecord]],
             golds: Mapping[str, Sequence[str]],
             relax_oov_braces: bool = False, oov_token: str = DEFAULT_OOV_TOKEN,
             clause_set: bool = False) -> list[dict[str, bool]]:
    """[{id: matched}, ...], one for the predictions of each replica: the
    matcher of score_run, score_replicas and length_breakdown.  With
    clause_set each gold is parsed once for all the replicas that predict
    it, and only one parsed gold is held at a time.  An unknown id, or an
    id repeated within a replica, is an error."""
    predicted = []  # {id: tokens} for each replica
    for predictions in replicas:
        tokens = {}
        for rec in predictions:
            if rec.example_id not in golds:
                raise UnknownIdError(f"prediction for unknown id {rec.example_id!r}")
            if rec.example_id in tokens:
                raise PredictionError(f"multiple predictions for id {rec.example_id!r}")
            tokens[rec.example_id] = rec.tokens
        predicted.append(tokens)
    if not clause_set:
        return [{i: exact_match(t, golds[i], relax_oov_braces, oov_token)
                 for i, t in tokens.items()} for tokens in predicted]
    matched = [{} for _ in predicted]
    for ex_id, gold in golds.items():
        found = [(tokens[ex_id], out) for tokens, out in zip(predicted, matched)
                 if ex_id in tokens]
        if found:
            gold_query = _parsed(gold)
            for prediction, out in found:
                out[ex_id] = _clause_set_match(prediction, gold, gold_query)
    return matched


def _gold_map(golds: Mapping[str, Sequence[str]] | Sequence[Example]) -> Mapping[str, Sequence[str]]:
    if not isinstance(golds, Mapping):
        golds = {ex.id: ex.output for ex in golds}
    if not golds:
        raise EvalError("no gold examples")
    return golds


def _accuracy(matched: dict[str, bool], golds: Mapping[str, Sequence[str]]) -> float:
    return sum(1 for i in golds if matched.get(i, False)) / len(golds)


def score_run(predictions: Iterable[PredictionRecord],
              golds: Mapping[str, Sequence[str]] | Sequence[Example],
              relax_oov_braces: bool = False,
              oov_token: str = DEFAULT_OOV_TOKEN,
              clause_set: bool = False) -> float:
    """Fraction of gold examples matched by the predictions of one replica.
    Missing predictions count as wrong; predictions for unknown ids are an
    error."""
    golds = _gold_map(golds)
    (matched,) = _matches([predictions], golds, relax_oov_braces, oov_token, clause_set)
    return _accuracy(matched, golds)


def score_replicas(predictions: Iterable[PredictionRecord],
                   golds: Mapping[str, Sequence[str]] | Sequence[Example],
                   **options) -> dict[int, float]:
    """Per-replica accuracies, keyed by replica index; options are those
    of score_run.  With clause_set each gold is parsed at most once."""
    by_replica: dict[int, list[PredictionRecord]] = {}
    for rec in predictions:
        by_replica.setdefault(rec.replica, []).append(rec)
    if not by_replica:
        raise PredictionError("no predictions")
    golds = _gold_map(golds)
    replicas = sorted(by_replica)
    matched = _matches([by_replica[rep] for rep in replicas], golds, **options)
    return {rep: _accuracy(m, golds) for rep, m in zip(replicas, matched)}


def aggregate_replicas(accuracies: Sequence[float], kind: str = "stdev",
                       bootstrap_samples: int = 10000,
                       seed: int = 0) -> AggregateStat:
    """Mean and a variance measure over replica accuracies.

    stdev is the sample standard deviation; ci95 the normal-approximation
    half-width 1.96 * stdev / sqrt(n); ci95_bootstrap a percentile bootstrap
    half-width for comparison.  Each is 0 for a single replica.
    """
    if kind not in VARIANCE_KINDS:
        raise EvalError(f"unknown variance kind {kind!r}")
    accuracies = list(accuracies)
    if not accuracies:
        raise EvalError("no replica accuracies")
    mean = sum(accuracies) / len(accuracies)
    n = len(accuracies)
    if n == 1:
        value = 0.0
    elif kind == "stdev":
        value = statistics.stdev(accuracies)
    elif kind == "ci95":
        value = 1.96 * statistics.stdev(accuracies) / math.sqrt(n)
    else:
        rng = random.Random(seed)
        means = sorted(
            sum(rng.choice(accuracies) for _ in range(n)) / n
            for _ in range(bootstrap_samples))
        lo = means[int(0.025 * bootstrap_samples)]
        hi = means[min(int(0.975 * bootstrap_samples), bootstrap_samples - 1)]
        value = (hi - lo) / 2
    return AggregateStat(mean, value, kind, n)


def length_breakdown(predictions: Iterable[PredictionRecord],
                     golds: Sequence[Example],
                     train_set: Sequence[Example],
                     bucket_width: int = 5,
                     axis: str = "output",
                     **match_options) -> list[LengthBucket]:
    """Per-length-bucket train/test counts and accuracy of the predictions
    of one replica.  Buckets beyond the maximum train length are flagged as
    unseen."""
    if bucket_width < 1:
        raise EvalError("bucket_width must be >= 1")
    if axis not in LENGTH_AXES:
        raise EvalError(f"axis must be one of {LENGTH_AXES}, got {axis!r}")

    def length(ex: Example) -> int:
        return len(ex.input if axis == "input" else ex.output)

    predictions = list(predictions)
    replicas = sorted({rec.replica for rec in predictions})
    if len(replicas) > 1:
        raise PredictionError("the length breakdown scores one replica; the predictions "
                              f"hold replicas {', '.join(map(str, replicas))}")
    (matched,) = _matches([predictions], {ex.id: ex.output for ex in golds},
                          **match_options)

    def bucket_of(n: int) -> int:
        return (n - 1) // bucket_width

    train_counts = Counter(bucket_of(length(ex)) for ex in train_set)
    test_counts = Counter(bucket_of(length(ex)) for ex in golds)
    correct = Counter(bucket_of(length(ex)) for ex in golds if matched.get(ex.id, False))

    max_train_len = max((length(ex) for ex in train_set), default=0)
    buckets = []
    for b in sorted(set(train_counts) | set(test_counts)):
        low, high = b * bucket_width + 1, (b + 1) * bucket_width
        n_test = test_counts[b]
        buckets.append(LengthBucket(
            low=low, high=high,
            train_count=train_counts[b],
            test_count=n_test,
            accuracy=(correct[b] / n_test) if n_test else None,
            unseen_length=low > max_train_len,
        ))
    return buckets


def divergence_curve(points: Iterable[tuple[float, float, str]]) -> str:
    """CSV (divergence,accuracy,label) sorted by divergence, for external
    plotting of accuracy-vs-compound-divergence curves.  A divergence or
    an accuracy outside [0, 1] raises EvalError with the point's index."""
    points = list(points)
    for k, (div, acc, _) in enumerate(points):
        for name, value in (("divergence", div), ("accuracy", acc)):
            if not 0 <= value <= 1:
                raise EvalError(f"{name} {value} outside [0, 1]", k)
    rows = sorted(points, key=lambda p: (p[0], p[2], p[1]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["divergence", "accuracy", "label"])
    for div, acc, label in rows:
        writer.writerow([f"{div:g}", f"{acc:g}", label])
    return out.getvalue()


def render_results_table(results: Mapping[str, Mapping[str, Optional[AggregateStat]]]) -> str:
    """Markdown table: rows are models, columns are splits in order of first
    appearance, cells are mean +/- variance in percentage points.  Missing
    entries render as '-'; cells within 0.5 points of the column best are
    bolded; the variance kind(s) are footnoted."""
    splits = list(dict.fromkeys(s for per_model in results.values() for s in per_model))
    best = {s: max((stat.mean for per_model in results.values()
                    if (stat := per_model.get(s)) is not None), default=None)
            for s in splits}
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
            if stat.n_replicas > 1:
                text += f" ± {stat.variance:.1f}"
            if stat.variance_kind not in kinds:
                kinds.append(stat.variance_kind)
            if stat.mean >= best[s] - 0.5:
                text = f"**{text}**"
            cells.append(text)
        lines.append(f"| {model} | " + " | ".join(cells) + " |")
    if kinds:
        lines += ["", "Variance reported: " + ", ".join(kinds) + "."]
    return "\n".join(lines) + "\n"
