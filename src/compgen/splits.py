"""Traditional SCAN train/test splits: random, primitive holdout,
subcommand holdout, template holdout, and length."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from .data import Example, JsonFile
from .scan import HOLDOUT_PRIMITIVES, PRIMITIVES, ScanParseError, parse_command


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    kind: str  # random | primitive_holdout | subcommand_holdout | template_holdout | length | mcd
    parameter: Optional[object] = None
    seed: int = 0
    train_fraction: Optional[float] = None


@dataclass(frozen=True)
class SplitResult:
    spec: SplitSpec
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    stats: dict = field(default_factory=dict)


def save_split(result: SplitResult, path) -> None:
    """The split as the JSON object load_split reads: the spec's fields,
    the ids as "train" and "test", and the stats."""
    doc = {"spec": asdict(result.spec), "train": list(result.train_ids),
           "test": list(result.test_ids), "stats": result.stats}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_split(path) -> SplitResult:
    doc = JsonFile(path)
    spec, train, test, stats = doc.fields(doc.value, {
        "spec": "a JSON object", "train": "a list of strings",
        "test": "a list of strings", "stats": "a JSON object or null"})
    kind, seed, train_fraction = doc.fields(spec, {
        "kind": "a string", "seed": "an integer or null",
        "train_fraction": "a number or null"})
    where: dict[str, str] = {}
    for name, ids in (("train", train), ("test", test)):
        if not ids:  # as split_result words it
            raise doc.error(f"{kind} split leaves no {name} examples", ids)
        for k, i in enumerate(ids):
            if i in where:
                raise doc.error(f"repeated id {i!r} in {name!r}" if where[i] == name
                                else f"id {i!r} in both 'train' and 'test'", parent=ids, index=k)
            where[i] = name
    return SplitResult(SplitSpec(kind, spec.get("parameter"), seed or 0, train_fraction),
                       tuple(train), tuple(test), stats or {})


def split_result(spec: SplitSpec, train_ids: Sequence[str], test_ids: Sequence[str],
                 **stats) -> SplitResult:
    """The record of a split of any kind: stats train_size, test_size, then the kind's own."""
    if not (train_ids and test_ids):
        raise SplitError(f"{spec.kind} split leaves no {'test' if train_ids else 'train'} examples")
    return SplitResult(spec, tuple(train_ids), tuple(test_ids),
                       {"train_size": len(train_ids), "test_size": len(test_ids), **stats})


def _result(spec: SplitSpec, train: list[Example], test: list[Example]) -> SplitResult:
    train_vocab, test_vocab = ({tok for ex in side for tok in ex.input} for side in (train, test))
    return split_result(spec, [ex.id for ex in train], [ex.id for ex in test],
                        test_vocab_missing_from_train=sorted(test_vocab - train_vocab))


def random_partition(n: int, rng: random.Random, train_fraction: float) -> tuple[list, list]:
    """The indices 0..n-1 shuffled by rng and cut into (train, test) at
    round(train_fraction * n), within [1, n - 1] so that neither is empty."""
    if n < 2:
        raise SplitError(f"need at least two examples, got {n}")
    if not 0 < train_fraction < 1:
        raise SplitError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = list(range(n))
    rng.shuffle(order)
    cut = min(max(round(train_fraction * n), 1), n - 1)
    return order[:cut], order[cut:]


def build_random_split(dataset: Sequence[Example], seed: int,
                       train_fraction: float) -> SplitResult:
    train, test = random_partition(len(dataset), random.Random(seed), train_fraction)
    return _result(SplitSpec("random", None, seed, train_fraction),
                   [dataset[i] for i in train], [dataset[i] for i in test])


def _holdout(dataset: Sequence[Example], spec: SplitSpec, held_out) -> SplitResult:
    """Each example to test if held_out(example), else to train."""
    train, test = [], []
    for ex in dataset:
        (test if held_out(ex) else train).append(ex)
    return _result(spec, train, test)


def _contains_any(phrases: list) -> Callable[[tuple[str, ...]], bool]:
    """A test whether tokens hold one of phrases (non-empty tuples of
    tokens) as a contiguous run: at each position whose token starts a
    phrase, the slice there is compared with that phrase."""
    starting: dict[str, list] = {}
    for phrase in phrases:
        starting.setdefault(phrase[0], []).append(phrase)

    def contains(tokens: tuple[str, ...]) -> bool:
        for i, token in enumerate(tokens):
            for phrase in starting.get(token, ()):
                if tokens[i:i + len(phrase)] == phrase:
                    return True
        return False
    return contains


def _phrase_holdout(dataset: Sequence[Example], spec: SplitSpec, phrases: list) -> SplitResult:
    """Test takes every example containing one of phrases; each must parse as a command."""
    for phrase in phrases:
        try:
            parse_command(phrase)
        except ScanParseError as exc:
            raise SplitError(f"{spec.kind} phrase {' '.join(phrase)!r} is not a "
                             f"grammatical command: {exc}") from exc
    contains = _contains_any(phrases)
    return _holdout(dataset, spec, lambda ex: contains(ex.input))


def build_primitive_holdout(dataset: Sequence[Example], primitive: str) -> SplitResult:
    """Train keeps the primitive only as the bare command; every composed use
    goes to test."""
    if primitive not in HOLDOUT_PRIMITIVES:
        raise SplitError(f"unknown primitive {primitive!r}")
    phrase = tuple(primitive.split())
    contains = _contains_any([phrase])
    return _holdout(dataset, SplitSpec("primitive_holdout", primitive),
                    lambda ex: ex.input != phrase and contains(ex.input))


def build_subcommand_holdout(dataset: Sequence[Example], phrase: str) -> SplitResult:
    """Every command containing the phrase as a contiguous subcommand goes
    to test."""
    return _phrase_holdout(dataset, SplitSpec("subcommand_holdout", phrase),
                           [tuple(phrase.split())])


def build_template_holdout(dataset: Sequence[Example], template: str) -> SplitResult:
    """Hold out every command matching the template for any primitive
    binding of the $Primitive placeholder."""
    parts = tuple(template.split())
    if parts.count("$Primitive") != 1:
        raise SplitError(f"template {template!r} must contain exactly one $Primitive")
    return _phrase_holdout(dataset, SplitSpec("template_holdout", template), [
        tuple(prim if t == "$Primitive" else t for t in parts) for prim in PRIMITIVES])


def build_length_split(dataset: Sequence[Example],
                       max_train_output_length: int = 22) -> SplitResult:
    """Examples whose output length is at most the threshold train; the rest
    test.  22 is the canonical SCAN choice."""
    if max_train_output_length < 1:
        raise SplitError("length threshold must be >= 1")
    return _holdout(dataset, SplitSpec("length", max_train_output_length),
                    lambda ex: len(ex.output) > max_train_output_length)
