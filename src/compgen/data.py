"""Dataset and prediction file I/O, plus input prefixing for models that
assume every output token maps from an input token.

Line files (jsonl and tsv datasets, prediction files, the text inputs of
the CLI's line commands) are read by read_lines: it skips whitespace-only
lines but counts them, and an error names the file and line.  A JSON
dataset line has "id" (a string or null), "input" and "output" (each a
string or a list of strings), "derivation" (null or a [rule, [subtree,
...]] tree of string rules) and "meta" (a JSON object or null); a
prediction line has "id" (a string), "prediction" (a string or a list of
strings) and "replica" (an integer or null, default 0)."""

from __future__ import annotations

import bisect
import gc
import hashlib
import io
import json
import os
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from sys import intern
from typing import Optional


class DataError(ValueError):
    pass


# json.dumps builds a new encoder per call for any non-default option.
_ENCODER = json.JSONEncoder(ensure_ascii=False)
_TSV_SUFFIXES = (".tsv", ".txt")  # a dataset file with another suffix is jsonl
# Derivation levels (512 nested JSON arrays) and meta levels (nested JSON
# objects and arrays) that a saved example may have: well within what a load reads.
MAX_SAVED_DEPTH = 256


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
        try:
            self.text = Path(path).read_text(encoding="utf-8")
            self.value = json.loads(self.text)
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except RecursionError as exc:
            raise DataError(f"{path}: {exc}") from exc

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
        try:
            return DataError(f"{self.path}:{self._line(node, index)}: {message}")
        except RecursionError:  # nested deeper than the decode that finds lines can go
            return DataError(f"{self.path}: {message}")

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


@dataclass(frozen=True, eq=False, slots=True)
class DerivationTrace:
    """Tree of applied rule ids: the derivation of an example, and for SCAN
    also its command tree."""

    rule: str
    children: tuple["DerivationTrace", ...] = ()
    # Not hashable: a hash of the fields recurses, so a deep trace would
    # overflow the stack, and nothing hashes a trace (_interned_trace finds
    # equal subtrees by rule and child ids).
    __hash__ = None

    def __eq__(self, other):
        """Equal rules and child counts, node pair by node pair in preorder
        from an explicit stack, so that traces of any depth compare; a pair
        that is one object is equal without a walk."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.rule != b.rule or len(a.children) != len(b.children):
                return False
            stack.extend(zip(reversed(a.children), reversed(b.children)))
        return True

    def to_jsonable(self):
        """[rule, [subtree, ...]], a new list per node, for any depth."""
        return _jsonable(self)[0]


def _jsonable(trace: DerivationTrace) -> tuple[list, int]:
    """trace.to_jsonable() and the depth of trace (1 for a leaf).  Each node's
    list fills in order from an explicit stack of (children, list, level)."""
    root = [trace.rule, []]
    stack, depth = [(trace.children, root[1], 2)], 1
    while stack:
        children, out, level = stack.pop()
        if children and level > depth:
            depth = level
        for child in children:
            item = [child.rule, []]
            out.append(item)
            if child.children:
                stack.append((child.children, item[1], level + 1))
    return root, depth


def _nested_deeper_than(value, bound: int) -> bool:
    """Whether the JSON containers of value (dicts, lists and tuples, value
    itself being one) nest more than bound levels; from an explicit stack
    that stops past the bound, so that no depth, nor a cycle, is too deep."""
    stack = [(value, 1)]
    while stack:
        value, level = stack.pop()
        if level > bound:
            return True
        for item in value.values() if isinstance(value, dict) else value:
            if isinstance(item, (dict, list, tuple)):
                stack.append((item, level + 1))
    return False


def _interned_trace(obj, memo: dict) -> DerivationTrace:
    """The trace of obj, built so that equal subtrees are one object: memo
    maps (rule, ids of the interned children) to the node, and a leaf's
    rule to the leaf.  The children are interned first and memo keeps them
    alive, so their ids stay unique; the trees are frozen, so sharing them
    is safe.  A memo hit has a checked rule: a new node's rule goes through
    sys.intern, which rejects one that is not a string."""
    rule, children = obj
    if type(children) is not list:
        raise TypeError("children must be a list")
    kids = tuple([_interned_trace(c, memo) for c in children])
    key = (rule, *map(id, kids)) if kids else rule
    node = memo.get(key)
    if node is None:
        node = memo[key] = DerivationTrace(intern(rule), kids)
    return node


class Meta(Mapping):
    """A read-only JSON object: the meta of an example.  It cannot change,
    so examples share one instance of a value (EMPTY_META is the default).
    It pickles and deep-copies, which types.MappingProxyType does not."""

    __slots__ = ("_items",)

    def __init__(self, items=()):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __repr__(self):
        return f"Meta({self._items!r})"

    def __reduce__(self):
        return Meta, (self._items,)


EMPTY_META = Meta()


@dataclass(frozen=True, slots=True)
class Example:
    """One dataset record.  A meta that is not a Meta is copied into one."""

    id: str
    input: tuple[str, ...]
    output: tuple[str, ...]
    derivation: Optional[DerivationTrace] = None
    # A factory, since dataclasses refuse an unhashable default such as a Meta.
    meta: Mapping[str, object] = field(default_factory=lambda: EMPTY_META)

    def __post_init__(self):
        if not self.input or not self.output:
            raise DataError(f"example {self.id!r} has empty input or output")
        if type(self.meta) is not Meta:
            object.__setattr__(self, "meta", Meta(self.meta))


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    example_id: str
    tokens: tuple[str, ...]
    replica: int = 0


def content_id(input_tokens: Sequence[str], output_tokens: Sequence[str]) -> str:
    """Stable id derived from the example content."""
    text = " ".join(input_tokens) + "\t" + " ".join(output_tokens)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# The keys of a JSON dataset line and of a prediction line, and the kind
# of each value; a key of a kind "... or null" may also be missing.
_TOKENS = "a string or a list of strings"
_EXAMPLE_LINE = {"id": "a string or null", "input": _TOKENS, "output": _TOKENS,
                 "derivation": "a tree [rule, [subtree, ...]] of string rules or null",
                 "meta": "a JSON object or null"}
_PREDICTION_LINE = {"id": "a string", "prediction": _TOKENS, "replica": "an integer or null"}


def _mistyped(line_keys: Mapping[str, str], key: str) -> TypeError:
    return TypeError(f"{key!r} must be {line_keys[key]}")


def _json_object(line: str) -> dict:
    obj = json.loads(line)
    if type(obj) is not dict:
        raise TypeError("expected a JSON object")
    return obj


def _tokens(obj: dict, key: str) -> tuple[str, ...]:
    """obj[key] as interned tokens: a string splits on whitespace; a list
    must hold only strings (sys.intern rejects any other value)."""
    value = obj[key]
    if type(value) is str:
        return tuple(map(intern, value.split()))
    if type(value) is list:
        try:
            return tuple(map(intern, value))
        except TypeError:
            pass
    raise TypeError(f"{key!r} must be {_TOKENS}")


def _undecodable(name, exc: UnicodeDecodeError, lines_before: int = 0) -> DataError:
    """At the line of the first byte not UTF-8.  A text file decodes a chunk
    only once its earlier lines are read: exc.object follows lines_before."""
    line = lines_before + exc.object.count(b"\n", 0, exc.start) + 1
    return DataError(f"{name}:{line}: not valid UTF-8 at byte 0x{exc.object[exc.start]:02x}")


@contextmanager
def collector_paused():
    """Run the body (or, as @collector_paused(), each call) with the cyclic
    collector off, then restore the caller's state.  The toolkit builds only
    acyclic data, which reference counting frees; a full collection pass
    over the growing heap of a dataset would find nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _stdin_text():
    """sys.stdin as strict UTF-8, split at "\n" only as Python splits it,
    whatever the locale's codec and error handler; its byte stream is
    detached afterwards, not closed.  A stdin that has no byte stream (a
    StringIO) is read as it is."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        yield sys.stdin
        return
    text = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    try:
        yield text
    finally:
        text.detach()


def read_lines(path, parse, what: str) -> list:
    """parse(line) for each line not whitespace only of the file at path
    (stdin when path is None).  A byte that is not UTF-8, or a ValueError,
    KeyError (a missing key), TypeError or RecursionError from parse, is a
    DataError naming the file and line; no such line is one saying "no <what>".
    The collector is paused while the lines are read: parse builds no cycles."""
    name = "<stdin>" if path is None else path
    items, lineno = [], 0
    with (collector_paused(),
          _stdin_text() if path is None else open(path, encoding="utf-8") as fh):
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace():
                    items.append(parse(line))
        except UnicodeDecodeError as exc:  # from reading fh: parse gets text
            raise _undecodable(name, exc, lineno) from exc
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            message = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise DataError(f"{name}:{lineno}: {message}") from exc
    if not items:
        raise DataError(f"{name}: no {what}")
    return items


def load_dataset(path) -> list[Example]:
    """Load Examples from a tsv file (suffix .tsv or .txt) or a jsonl file.
    Missing ids are assigned from a content hash; duplicate ids are an
    error.  Tokens and rules are interned (sys.intern), so equal ones are
    one string within a load and across loads, and equal outputs and equal
    derivation subtrees of one load are one shared object.  So are the
    metas of one load whose values are all strings and whose items are
    equal in order: equal values of another type may save differently (1,
    1.0 and true)."""
    tsv = Path(path).suffix in _TSV_SUFFIXES
    seen = set()
    traces: dict = {}  # the memo of _interned_trace, for this load only
    metas: dict = {}  # tuple of items -> the Meta, for all-string metas of this load
    outputs: dict = {}  # output tuple -> the first equal one of this load

    def example(line):
        if tsv:
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError("expected input<TAB>output")
            inp, out = (tuple(map(intern, f.split())) for f in fields)
            ex_id, trace, meta = None, None, EMPTY_META
        else:
            obj = _json_object(line)
            inp, out = _tokens(obj, "input"), _tokens(obj, "output")
            ex_id, trace, meta = obj.get("id"), obj.get("derivation"), obj.get("meta")
            if type(ex_id) is not str and ex_id is not None:
                raise _mistyped(_EXAMPLE_LINE, "id")
            if trace is not None:
                try:
                    trace = _interned_trace(trace, traces)
                except (ValueError, TypeError):
                    raise _mistyped(_EXAMPLE_LINE, "derivation") from None
            if meta is None:
                meta = EMPTY_META
            elif type(meta) is not dict:
                raise _mistyped(_EXAMPLE_LINE, "meta")
            else:  # a meta not shared here is copied into its own Meta by Example
                key = tuple(meta.items())
                try:
                    meta = metas[key]  # only an all-string key is stored, so a hit is one
                except KeyError:
                    if all(type(v) is str for v in meta.values()):
                        meta = metas[key] = Meta(meta)
                except TypeError:  # an unhashable value: a list or an object
                    pass
        out = outputs.setdefault(out, out)
        ex = Example(ex_id or content_id(inp, out), inp, out, trace, meta)
        if ex.id in seen:
            raise DataError(f"duplicate id {ex.id!r}")
        seen.add(ex.id)
        return ex

    return read_lines(path, example, "examples")


def save_dataset(examples: Iterable[Example], path) -> None:
    """Write tsv (input and output only) or jsonl, by suffix as load_dataset
    reads.  An example that load_dataset could not read back is a DataError
    naming it: one with a derivation or a meta deeper than MAX_SAVED_DEPTH
    levels, or otherwise nested too deeply for JSON.  The lines go to
    <path>.partial, which replaces path only once all are written, so an
    error leaves path as it was and no partial file."""
    tsv = Path(path).suffix in _TSV_SUFFIXES
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            for ex in examples:
                if tsv:
                    fh.write(" ".join(ex.input) + "\t" + " ".join(ex.output) + "\n")
                    continue
                obj = {"id": ex.id, "input": ex.input, "output": ex.output}
                if ex.derivation is not None:
                    obj["derivation"], depth = _jsonable(ex.derivation)
                    if depth > MAX_SAVED_DEPTH:
                        raise DataError(f"example {ex.id!r} has a derivation {depth} levels "
                                        f"deep; a saved one may have at most {MAX_SAVED_DEPTH}")
                meta = ex.meta._items  # the encoder only reads it
                if meta:
                    obj["meta"] = meta
                    if _nested_deeper_than(meta, MAX_SAVED_DEPTH):
                        raise DataError(f"example {ex.id!r} has a meta more than "
                                        f"{MAX_SAVED_DEPTH} levels deep; a saved one "
                                        f"may have at most {MAX_SAVED_DEPTH}")
                try:
                    line = _ENCODER.encode(obj)
                except RecursionError:
                    raise DataError(f"example {ex.id!r} is nested too deeply "
                                    "for JSON") from None
                fh.write(line + "\n")
        os.replace(partial, path)
    except BaseException:
        Path(partial).unlink(missing_ok=True)
        raise


def load_predictions(path) -> list[PredictionRecord]:
    """Load prediction records: one JSON object per line with keys id,
    prediction and replica (optional, default 0).  Tokens are interned, as
    load_dataset's are."""

    def record(line):
        obj = _json_object(line)
        ex_id, replica = obj["id"], obj.get("replica")
        if type(ex_id) is not str:
            raise _mistyped(_PREDICTION_LINE, "id")
        if replica is None:
            replica = 0
        elif type(replica) is not int:
            raise _mistyped(_PREDICTION_LINE, "replica")
        return PredictionRecord(ex_id, _tokens(obj, "prediction"), replica)

    return read_lines(path, record, "predictions")


def save_predictions(records: Iterable[PredictionRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {"id": rec.example_id, "prediction": list(rec.tokens),
                   "replica": rec.replica}
            fh.write(_ENCODER.encode(obj) + "\n")


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
