"""Traditional SCAN train/test splits: random, primitive holdout,
subcommand holdout, template holdout, and length."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .data import Example, JsonFile
from .scan import PRIMITIVES, ScanParseError, parse_command


class SplitError(ValueError):
    pass


HOLDOUT_PRIMITIVES = PRIMITIVES + ("turn left", "turn right")


@dataclass(frozen=True)
class SplitSpec:
    kind: str  # random | primitive_holdout | subcommand_holdout | template_holdout | length | mcd
    parameter: Optional[object] = None
    seed: int = 0
    train_fraction: Optional[float] = None

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "parameter": self.parameter,
                "seed": self.seed, "train_fraction": self.train_fraction}


@dataclass(frozen=True)
class SplitResult:
    spec: SplitSpec
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    stats: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {"spec": self.spec.to_jsonable(), "train": list(self.train_ids),
                "test": list(self.test_ids), "stats": self.stats}


def save_split(result: SplitResult, path) -> None:
    Path(path).write_text(json.dumps(result.to_jsonable(), indent=2) + "\n",
                          encoding="utf-8")


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
        for k, i in enumerate(ids):
            if i in where:
                raise doc.error(f"repeated id {i!r} in {name!r}" if where[i] == name
                                else f"id {i!r} in both 'train' and 'test'", parent=ids, index=k)
            where[i] = name
    return SplitResult(SplitSpec(kind, spec.get("parameter"), seed or 0, train_fraction),
                       tuple(train), tuple(test), stats or {})


def _split_stats(dataset: Sequence[Example], train_ids, test_ids) -> dict:
    by_id = {ex.id: ex for ex in dataset}
    train_vocab = set()
    for i in train_ids:
        train_vocab.update(by_id[i].input)
    test_vocab = set()
    for i in test_ids:
        test_vocab.update(by_id[i].input)
    missing = sorted(test_vocab - train_vocab)
    return {
        "train_size": len(train_ids),
        "test_size": len(test_ids),
        "test_vocab_missing_from_train": missing,
    }


def _result(dataset, spec, train_ids, test_ids) -> SplitResult:
    return SplitResult(spec, tuple(train_ids), tuple(test_ids),
                       _split_stats(dataset, train_ids, test_ids))


def build_random_split(dataset: Sequence[Example], seed: int,
                       train_fraction: float) -> SplitResult:
    if not dataset:
        raise SplitError("empty dataset")
    if not 0 < train_fraction < 1:
        raise SplitError(f"train_fraction must be in (0, 1), got {train_fraction}")
    ids = [ex.id for ex in dataset]
    rng = random.Random(seed)
    rng.shuffle(ids)
    cut = int(round(train_fraction * len(ids)))
    spec = SplitSpec("random", None, seed, train_fraction)
    return _result(dataset, spec, ids[:cut], ids[cut:])


def _contains_phrase(tokens: Sequence[str], phrase: Sequence[str]) -> bool:
    n = len(phrase)
    phrase = tuple(phrase)
    return any(tuple(tokens[i:i + n]) == phrase for i in range(len(tokens) - n + 1))


def build_primitive_holdout(dataset: Sequence[Example], primitive: str) -> SplitResult:
    """Train keeps the primitive only as the bare command; every composed use
    goes to test."""
    if primitive not in HOLDOUT_PRIMITIVES:
        raise SplitError(f"unknown primitive {primitive!r}")
    phrase = tuple(primitive.split())
    train, test = [], []
    for ex in dataset:
        if ex.input == phrase:
            train.append(ex.id)
        elif _contains_phrase(ex.input, phrase):
            test.append(ex.id)
        else:
            train.append(ex.id)
    spec = SplitSpec("primitive_holdout", primitive)
    return _result(dataset, spec, train, test)


def build_subcommand_holdout(dataset: Sequence[Example], phrase: str) -> SplitResult:
    """Every command containing the phrase as a contiguous subcommand goes
    to test."""
    tokens = tuple(phrase.split())
    try:
        parse_command(tokens)
    except ScanParseError as exc:
        raise SplitError(f"phrase {phrase!r} is not a grammatical subcommand: {exc}") from exc
    train, test = [], []
    for ex in dataset:
        (test if _contains_phrase(ex.input, tokens) else train).append(ex.id)
    spec = SplitSpec("subcommand_holdout", phrase)
    return _result(dataset, spec, train, test)


def build_template_holdout(dataset: Sequence[Example], template: str) -> SplitResult:
    """Hold out every command matching the template for any primitive
    binding of the $Primitive placeholder."""
    parts = tuple(template.split())
    if parts.count("$Primitive") != 1:
        raise SplitError(f"template {template!r} must contain exactly one $Primitive")
    instantiations = []
    for prim in PRIMITIVES:
        phrase = tuple(prim if t == "$Primitive" else t for t in parts)
        try:
            parse_command(phrase)
        except ScanParseError as exc:
            raise SplitError(f"template {template!r} instantiates to an "
                             f"ungrammatical phrase {' '.join(phrase)!r}") from exc
        instantiations.append(phrase)
    train, test = [], []
    for ex in dataset:
        if any(_contains_phrase(ex.input, p) for p in instantiations):
            test.append(ex.id)
        else:
            train.append(ex.id)
    spec = SplitSpec("template_holdout", template)
    return _result(dataset, spec, train, test)


def build_length_split(dataset: Sequence[Example],
                       max_train_output_length: int = 22) -> SplitResult:
    """Examples whose output length is at most the threshold train; the rest
    test.  22 is the canonical SCAN choice."""
    if max_train_output_length < 1:
        raise SplitError("length threshold must be >= 1")
    train, test = [], []
    for ex in dataset:
        (train if len(ex.output) <= max_train_output_length else test).append(ex.id)
    if not train:
        raise SplitError("length threshold excludes all examples from train")
    if not test:
        raise SplitError("length threshold leaves no test examples")
    spec = SplitSpec("length", max_train_output_length)
    return _result(dataset, spec, train, test)
