"""Dataset and prediction file I/O, plus input prefixing for models that
assume every output token maps from an input token."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class DerivationTrace:
    """Tree of applied rule ids: the derivation of an example, and for SCAN
    also its command tree."""

    rule: str
    children: tuple["DerivationTrace", ...] = ()

    def to_jsonable(self):
        return [self.rule, [c.to_jsonable() for c in self.children]]

    @classmethod
    def from_jsonable(cls, obj) -> "DerivationTrace":
        rule, children = obj
        return cls(rule, tuple(cls.from_jsonable(c) for c in children))

    def iter_nodes(self) -> Iterator["DerivationTrace"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()


@dataclass(frozen=True)
class Example:
    id: str
    input: tuple[str, ...]
    output: tuple[str, ...]
    derivation: Optional[DerivationTrace] = None
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.input or not self.output:
            raise DataError(f"example {self.id!r} has empty input or output")


@dataclass(frozen=True)
class PredictionRecord:
    example_id: str
    tokens: tuple[str, ...]
    replica: int = 0


def content_id(input_tokens: Sequence[str], output_tokens: Sequence[str]) -> str:
    """Stable id derived from the example content."""
    text = " ".join(input_tokens) + "\t" + " ".join(output_tokens)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _tokens(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(value.split())
    return tuple(value)


def load_dataset(path, format: Optional[str] = None) -> list[Example]:
    """Load Examples from a jsonl or tsv file.

    format defaults from the file suffix.  Missing ids are assigned from a
    content hash; duplicate ids are an error.
    """
    path = Path(path)
    if format is None:
        format = "tsv" if path.suffix in (".tsv", ".txt") else "jsonl"
    if format not in ("jsonl", "tsv"):
        raise DataError(f"unsupported format {format!r}")

    examples = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if format == "tsv":
                    inp_text, out_text = line.split("\t")
                    inp, out = _tokens(inp_text), _tokens(out_text)
                    ex = Example(content_id(inp, out), inp, out)
                else:
                    obj = json.loads(line)
                    inp, out = _tokens(obj["input"]), _tokens(obj["output"])
                    trace = None
                    if obj.get("derivation") is not None:
                        trace = DerivationTrace.from_jsonable(obj["derivation"])
                    ex = Example(
                        id=obj.get("id") or content_id(inp, out),
                        input=inp,
                        output=out,
                        derivation=trace,
                        meta=obj.get("meta", {}),
                    )
            except DataError:
                raise
            except Exception as exc:
                raise DataError(f"{path}:{lineno}: malformed line: {exc}") from exc
            if ex.id in seen:
                raise DataError(f"{path}:{lineno}: duplicate id {ex.id!r}")
            seen.add(ex.id)
            examples.append(ex)
    if not examples:
        raise DataError(f"{path}: no examples")
    return examples


def save_dataset(examples: Iterable[Example], path, format: str = "jsonl") -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            if format == "tsv":
                fh.write(" ".join(ex.input) + "\t" + " ".join(ex.output) + "\n")
            else:
                obj = {"id": ex.id, "input": list(ex.input), "output": list(ex.output)}
                if ex.derivation is not None:
                    obj["derivation"] = ex.derivation.to_jsonable()
                if ex.meta:
                    obj["meta"] = dict(ex.meta)
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def load_predictions(path) -> list[PredictionRecord]:
    """Load prediction records: one JSON object per line with keys
    id, prediction, replica (replica optional, default 0)."""
    path = Path(path)
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                obj = json.loads(line)
                records.append(PredictionRecord(
                    example_id=obj["id"],
                    tokens=_tokens(obj["prediction"]),
                    replica=int(obj.get("replica", 0)),
                ))
            except Exception as exc:
                raise DataError(f"{path}:{lineno}: malformed prediction: {exc}") from exc
    return records


def save_predictions(records: Iterable[PredictionRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {"id": rec.example_id, "prediction": list(rec.tokens),
                   "replica": rec.replica}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


# Default token map for SCAN: command words that map directly to actions.
SCAN_TOKEN_MAP: dict[str, tuple[str, ...]] = {
    "jump": ("JUMP",),
    "walk": ("WALK",),
    "run": ("RUN",),
    "look": ("LOOK",),
    "left": ("LTURN",),
    "right": ("RTURN",),
    "turn": ("LTURN", "RTURN"),
}

_PLACEHOLDER_RE = re.compile(r"^<p\d+>$")


class AlreadyPrefixedError(DataError):
    pass


def count_non_mappable(example: Example, token_map: Optional[Mapping[str, Sequence[str]]] = None,
                       identity: bool = False) -> int:
    """Number of output token occurrences not reachable from any input token.

    A token is reachable if some input token of the example maps to it under
    token_map, or (with identity=True, the CFQ default) literally equals an
    input token.  SPARQL syntactic tokens like SELECT never appear in inputs
    and therefore count as non-mappable under the identity map.
    """
    reachable = set()
    for tok in example.input:
        if identity:
            reachable.add(tok)
        if token_map:
            reachable.update(token_map.get(tok, ()))
    return sum(1 for tok in example.output if tok not in reachable)


def cgps_prefix(example: Example, token_map: Optional[Mapping[str, Sequence[str]]] = None,
                identity: bool = False, prefix_len: Optional[int] = None) -> Example:
    """Prepend placeholder tokens <p0> <p1> ... for non-mappable output tokens.

    prefix_len overrides the per-example count (used for the fixed global
    length variant).  The output tokens are never altered.
    """
    if any(_PLACEHOLDER_RE.match(tok) for tok in example.input):
        raise AlreadyPrefixedError(f"example {example.id!r} is already prefixed")
    n = prefix_len if prefix_len is not None else \
        count_non_mappable(example, token_map, identity)
    if n == 0:
        return example
    placeholders = tuple(f"<p{i}>" for i in range(n))
    return Example(example.id, placeholders + example.input, example.output,
                   example.derivation, example.meta)


def cgps_prefix_dataset(examples: Sequence[Example],
                        token_map: Optional[Mapping[str, Sequence[str]]] = None,
                        identity: bool = False,
                        global_length: bool = False) -> list[Example]:
    """Prefix every example; with global_length every input gets the maximum
    per-example count instead of its own."""
    if global_length:
        n = max(count_non_mappable(ex, token_map, identity) for ex in examples)
        return [cgps_prefix(ex, token_map, identity, prefix_len=n) for ex in examples]
    return [cgps_prefix(ex, token_map, identity) for ex in examples]
