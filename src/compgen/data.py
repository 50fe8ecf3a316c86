"""Dataset and prediction file I/O, plus input prefixing for models that
assume every output token maps from an input token."""

from __future__ import annotations

import bisect
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class DataError(ValueError):
    pass


# The value kinds JsonFile.fields checks; "<kind> or null" also admits a
# null or missing value.
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a JSON object": lambda v: isinstance(v, dict),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
}


class JsonFile:
    """A JSON file, decoded by the C decoder.  An error about its syntax or
    about one of its values names the file and a line: where the value
    starts, or its container when the value is a scalar.  Lines come from a
    second decode that records them, run only when an error is raised."""

    def __init__(self, path):
        self.path = path
        self.text = Path(path).read_text(encoding="utf-8")
        try:
            self.value = json.loads(self.text)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{exc.lineno}: {exc.msg}") from exc

    def fields(self, obj, kinds: Mapping[str, str], parent=None) -> list:
        """obj[key] for each key of kinds, in order.  obj must be a JSON
        object (parent is its container) and each value of the kind named
        in _KINDS."""
        if not isinstance(obj, dict):
            raise self.error("expected a JSON object", obj, parent)
        values = []
        for key, kind in kinds.items():
            nullable = kind.endswith(" or null")
            if key not in obj and not nullable:
                raise self.error(f"missing key {key!r}", obj)
            value = obj.get(key)
            if not (nullable and value is None or _KINDS[kind.removesuffix(" or null")](value)):
                raise self.error(f"{key!r} must be {kind}", value, obj)
            values.append(value)
        return values

    def error(self, message: str, value=None, parent=None, index=None) -> DataError:
        """A DataError located at parent[index] when index is given, else at
        value, or at parent when value is a scalar, or at line 1 when both
        are scalars."""
        node = value if isinstance(value, (dict, list)) else parent
        return DataError(f"{self.path}:{self._line(node, index)}: {message}")

    def _line(self, node, index=None) -> int:
        if not isinstance(node, (dict, list)):
            return 1
        newlines = [m.start() for m in re.finditer("\n", self.text)]
        lines = {}  # id of a container -> its line
        items = {}  # id of a list -> the line of each element

        def line(pos):
            return bisect.bisect_left(newlines, pos) + 1

        def parse_object(s_and_end, *args):
            value, end = json.decoder.JSONObject(s_and_end, *args)
            lines[id(value)] = line(s_and_end[1] - 1)  # [1] is just past the brace
            return value, end

        def parse_array(s_and_end, scan_once):
            starts = []

            def scan(s, start):
                starts.append(start)
                return scan_once(s, start)
            value, end = json.decoder.JSONArray(s_and_end, scan)
            lines[id(value)] = line(s_and_end[1] - 1)
            items[id(value)] = [line(start) for start in starts]
            return value, end

        decoder = json.JSONDecoder()
        decoder.parse_object = parse_object
        decoder.parse_array = parse_array
        decoder.scan_once = json.scanner.py_make_scanner(decoder)
        # Both decodes build the same tree: find node's twin in step.
        pending = [(self.value, decoder.decode(self.text))]
        while pending:
            mine, twin = pending.pop()
            if mine is node:
                return lines[id(twin)] if index is None else items[id(twin)][index]
            if isinstance(mine, dict):
                pending.extend(zip(mine.values(), twin.values()))
            elif isinstance(mine, list):
                pending.extend(zip(mine, twin))
        return 1


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
    if not records:
        raise DataError(f"{path}: no predictions")
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


def load_token_map(path) -> dict[str, tuple[str, ...]]:
    """A JSON object mapping input tokens to lists of output tokens."""
    doc = JsonFile(path)
    doc.fields(doc.value, {})  # an object
    lists = doc.fields(doc.value, dict.fromkeys(doc.value, "a list of strings"))
    return {k: tuple(v) for k, v in zip(doc.value, lists)}


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
