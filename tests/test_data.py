import copy
import gc
import json
import math
import pickle
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgen import data, scan
from oracle_dbca import nodes


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_restores_the_callers_state(enabled):
    """The body runs with the collector off; afterwards it is on if and
    only if it was on before, also when the body raises, and as a decorator."""
    @data.collector_paused()
    def state():
        return gc.isenabled()

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with data.collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            with data.collector_paused():
                raise KeyError("body")
        assert gc.isenabled() is enabled
        assert state() is False and state() is False
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_load_pauses_the_collector_and_restores_the_callers_state(enabled, tmp_path):
    """read_lines parses with the collector off, and a load leaves it as
    it found it, also when it raises a DataError."""
    good, bad = tmp_path / "good.tsv", tmp_path / "bad.jsonl"
    good.write_text("jump\tJUMP\n")
    bad.write_text(json.dumps(PREDICTION_LINE) + "\n[]\n")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert data.read_lines(good, lambda line: gc.isenabled(), "lines") == [False]
        assert gc.isenabled() is enabled
        assert len(data.load_dataset(good)) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(data.DataError, match=":2: expected a JSON object"):
            data.load_predictions(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _examples(source, scan_dataset, tmp_path):
    """Every 500th enumerated example, as enumerated or as loaded from the
    file it saves to."""
    examples = scan_dataset[::500]
    if source == "enumerated":
        return examples
    data.save_dataset(examples, tmp_path / source)
    return data.load_dataset(tmp_path / source)


SOURCES = ["enumerated", "d.jsonl", "d.tsv"]


@pytest.mark.parametrize("source", SOURCES)
def test_records_pickle_and_deep_copy_equal(source, scan_dataset, tmp_path):
    examples = _examples(source, scan_dataset, tmp_path)
    path = tmp_path / "p.jsonl"
    data.save_predictions([data.PredictionRecord(ex.id, ex.output, 2) for ex in examples], path)
    records = [*examples, *(ex.derivation for ex in examples if ex.derivation),
               *data.load_predictions(path), data.EMPTY_META]
    for record in records:
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*copies, copy.deepcopy(record)):
            assert twin == record and type(twin) is type(record)


@pytest.mark.parametrize("source", SOURCES)
def test_metas_are_read_only(source, scan_dataset, tmp_path):
    examples = _examples(source, scan_dataset, tmp_path)
    for meta in (*{id(ex.meta): ex.meta for ex in examples}.values(),
                 data.Example("x", ("a",), ("A",)).meta,
                 data.Example("x", ("a",), ("A",), None, {"source": "scan"}).meta):
        with pytest.raises(TypeError):
            meta["source"] = "changed"
        with pytest.raises(TypeError):
            del meta["source"]
    assert data.Example("x", ("a",), ("A",)).meta is data.EMPTY_META


def test_records_have_no_instance_dict(scan_dataset):
    ex = scan_dataset[0]
    for record in (ex, ex.derivation, ex.meta, data.PredictionRecord("a", ("A",))):
        assert not hasattr(record, "__dict__")


def test_enumerated_and_loaded_examples_share_one_meta(scan_dataset, tmp_path):
    assert {id(ex.meta) for ex in scan_dataset} == {id(scan.SCAN_META)}
    assert scan.SCAN_META == {"source": "scan"}
    path = tmp_path / "d.jsonl"
    data.save_dataset(scan_dataset[::10], path)
    loaded = data.load_dataset(path)
    assert len({id(ex.meta) for ex in loaded}) == 1 and loaded[0].meta == scan.SCAN_META


def test_metas_save_as_loaded_and_only_equal_string_metas_are_shared(tmp_path):
    """Values that Python compares equal (1, 1.0 and true; 0.0 and -0.0),
    or items in another order, save differently, so such metas are not one
    object; two equal all-string metas are."""
    metas = ['{"k": 1}', '{"k": 1.0}', '{"k": true}', '{"k": 0.0}', '{"k": -0.0}',
             '{"k": [1]}', '{"k": {"a": "s"}}', '{"a": "s", "b": "t"}', '{"b": "t", "a": "s"}',
             '{"k": "s"}', '{"k": "s"}']
    text = "".join(f'{{"id": "e{i}", "input": ["x"], "output": ["X"], "meta": {meta}}}\n'
                   for i, meta in enumerate(metas))
    path, saved = tmp_path / "d.jsonl", tmp_path / "saved.jsonl"
    path.write_text(text, encoding="utf-8")
    loaded = data.load_dataset(path)
    data.save_dataset(loaded, saved)
    assert saved.read_bytes() == path.read_bytes()
    assert len({id(ex.meta) for ex in loaded}) == len(metas) - 1
    assert loaded[-1].meta is loaded[-2].meta


@pytest.mark.parametrize("name", ["d.jsonl", "d.tsv"])
def test_equal_outputs_of_one_load_are_one_tuple(scan_dataset, tmp_path, name):
    path = tmp_path / name
    data.save_dataset(scan_dataset[:500], path)
    loaded = data.load_dataset(path)
    assert len({id(ex.output) for ex in loaded}) == len({ex.output for ex in loaded}) < 500
    again = tmp_path / ("again" + path.suffix)
    data.save_dataset(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# Bytes that one SCAN example keeps, measured by tracemalloc: about 520
# enumerated and 570 loaded; 610 loaded before equal outputs of a load were
# one tuple, and 825 and 1,020 before records had slots and equal metas
# were one object.
BYTES_PER_EXAMPLE = 700


def test_bytes_per_scan_example(scan_dataset, tmp_path):
    path = tmp_path / "d.jsonl"
    data.save_dataset(scan_dataset, path)
    for build in (scan.enumerate_dataset, lambda: data.load_dataset(path)):
        gc.collect()
        tracemalloc.start()
        try:
            examples = build()
            size = tracemalloc.get_traced_memory()[0] / len(examples)
        finally:
            tracemalloc.stop()
        del examples
        assert size < BYTES_PER_EXAMPLE


def test_tsv_load(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("jump\tJUMP\njump twice\tJUMP JUMP\n")
    examples = data.load_dataset(path)
    assert examples[0].input == ("jump",)
    assert examples[0].output == ("JUMP",)
    assert examples[1].input == ("jump", "twice")
    assert all(ex.derivation is None for ex in examples)


def test_jsonl_roundtrip_with_trace(tmp_path):
    examples = scan.enumerate_dataset()[:50]
    path = tmp_path / "d.jsonl"
    data.save_dataset(examples, path)
    loaded = data.load_dataset(path)
    assert loaded == examples
    assert loaded[0].derivation is not None
    # canonical files are byte-stable across load/save
    again = tmp_path / "d2.jsonl"
    data.save_dataset(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", ["d.tsv", "d.txt"])
def test_save_dataset_writes_tsv_by_suffix(tmp_path, name):
    examples = scan.enumerate_dataset()[:50]
    path = tmp_path / name
    data.save_dataset(examples, path)
    assert path.read_text().splitlines()[1] == "jump twice\tJUMP JUMP"
    loaded = data.load_dataset(path)
    assert [(ex.input, ex.output) for ex in loaded] == [
        (ex.input, ex.output) for ex in examples]


def test_jsonl_string_tokens(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({"input": "jump twice", "output": "JUMP JUMP"}) + "\n")
    (ex,) = data.load_dataset(path)
    assert ex.input == ("jump", "twice")
    assert ex.id == data.content_id(ex.input, ex.output)
    assert ex.derivation is None


def test_duplicate_ids_error(tmp_path):
    path = tmp_path / "d.jsonl"
    line = json.dumps({"id": "x", "input": ["a"], "output": ["A"]})
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(data.DataError):
        data.load_dataset(path)


def test_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "d.jsonl"
    for bad in ["not json", '{"input": ["a"], "output": ["A"], "derivation": ["r", null]}']:
        path.write_text('{"input": ["a"], "output": ["A"]}\n' + bad + "\n")
        with pytest.raises(data.DataError, match=":2:"):
            data.load_dataset(path)


EXAMPLE_LINE = {"id": "a", "input": ["jump"], "output": ["JUMP"],
                "derivation": ["r", [["s", []]]], "meta": {"k": [1]}}
PREDICTION_LINE = {"id": "a", "prediction": ["JUMP"], "replica": 1}


def _with(line, **values):
    return json.dumps({**line, **values})


# One well-formed JSON line each, with a value of the wrong type or shape.
@pytest.mark.parametrize("load,line,message", [
    (data.load_dataset, _with(EXAMPLE_LINE, input=[1, 2]),
     "'input' must be a string or a list of strings"),
    (data.load_dataset, _with(EXAMPLE_LINE, meta=[1]), "'meta' must be a JSON object or null"),
    (data.load_dataset, _with(EXAMPLE_LINE, input=[]), "example 'a' has empty input or output"),
    (data.load_dataset, _with(EXAMPLE_LINE, id=5), "'id' must be a string or null"),
    (data.load_dataset, _with(EXAMPLE_LINE, derivation=[5, [[None, []]]]),
     "'derivation' must be a tree [rule, [subtree, ...]] of string rules or null"),
    (data.load_dataset, _with(EXAMPLE_LINE, derivation={"r": 0, "": 0}), "'derivation' must"),
    (data.load_dataset, _with(EXAMPLE_LINE, derivation=["r", ""]), "'derivation' must"),
    (data.load_dataset, _with(EXAMPLE_LINE, derivation=["r", [["s", [[5, []]]]]]),
     "'derivation' must"),
    (data.load_dataset, _with(EXAMPLE_LINE, derivation=["r", [["s", [["t", {}]]]]]),
     "'derivation' must"),
    (data.load_dataset, _with(EXAMPLE_LINE, derivation=[["r"], [["s", []]]]),
     "'derivation' must"),
    (data.load_dataset, _with(EXAMPLE_LINE, derivation=[True, [["s", []]]]),
     "'derivation' must"),
    (data.load_dataset, "[1]", "expected a JSON object"),
    (data.load_dataset, _with({}, output=["A"]), "missing key 'input'"),
    (data.load_predictions, _with(PREDICTION_LINE, replica=0.7),
     "'replica' must be an integer or null"),
    (data.load_predictions, _with(PREDICTION_LINE, replica=True),
     "'replica' must be an integer or null"),
    (data.load_predictions, _with(PREDICTION_LINE, id=None), "'id' must be a string"),
    (data.load_predictions, _with(PREDICTION_LINE, prediction={"A": 1}),
     "'prediction' must be a string or a list of strings"),
], ids=["input-ints", "meta-list", "input-empty", "id-int", "rule-int", "derivation-object",
        "children-string", "chain-rule-int", "chain-children-object", "unary-rule-list",
        "unary-rule-bool", "not-an-object", "no-input", "replica-float", "replica-bool",
        "id-null", "prediction-object"])
def test_mistyped_line_names_file_and_line(load, line, message, tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(data.DataError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:1: {message}")


@pytest.mark.parametrize("name,good,bad", [
    ("d.jsonl", _with(EXAMPLE_LINE), _with(EXAMPLE_LINE, id="b", output="")),
    ("d.tsv", "jump\tJUMP", "walk"),
], ids=["jsonl", "tsv"])
def test_whitespace_only_lines_are_skipped_but_counted(name, good, bad, tmp_path):
    path = tmp_path / name
    path.write_text(f" \t\n{good}\n\n  \n")
    assert len(data.load_dataset(path)) == 1
    path.write_text(f"{good}\n \t\n{bad}\n")
    with pytest.raises(data.DataError, match=f"^{path}:3: "):
        data.load_dataset(path)
    path.write_text(" \n\t\n")
    with pytest.raises(data.DataError, match=f"^{path}: no examples$"):
        data.load_dataset(path)


def _json_values():
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=6)


def _positions(value, path=()):
    """The path of every value inside a JSON value, the whole one included."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _positions(item, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _trace_is_typed(trace):
    return (isinstance(trace, data.DerivationTrace) and type(trace.rule) is str
            and type(trace.children) is tuple and all(map(_trace_is_typed, trace.children)))


def _typed(record):
    if isinstance(record, data.PredictionRecord):
        return (type(record.example_id) is str and type(record.replica) is int
                and type(record.tokens) is tuple and all(type(t) is str for t in record.tokens))
    return (type(record.id) is str and type(record.meta) is data.Meta
            and all(type(t) is tuple and t and all(type(x) is str for x in t)
                    for t in (record.input, record.output))
            and (record.derivation is None or _trace_is_typed(record.derivation)))


# (loader, valid line, the path of one value in it)
REPLACEABLE = [(load, line, position)
               for load, line in ((data.load_dataset, EXAMPLE_LINE),
                                  (data.load_predictions, PREDICTION_LINE))
               for position in list(_positions(line))[1:]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REPLACEABLE), _json_values())
def test_any_replaced_value_loads_typed_or_names_its_line(case, new):
    load, line, position = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.jsonl"
        # The first line has its own id, and the same derivation nodes.
        path.write_text(_with(line, id="first") + "\n\n"
                        + json.dumps(_replaced(line, position, new)) + "\n")
        try:
            records = load(path)
        except data.DataError as exc:
            assert str(exc).startswith(f"{path}:3: ")
        else:
            assert len(records) == 2 and all(map(_typed, records))


def test_loaded_traces_share_equal_subtrees(scan_dataset, tmp_path):
    path = tmp_path / "scan.jsonl"
    data.save_dataset(scan_dataset, path)
    loaded = data.load_dataset(path)
    assert len(loaded) == len(scan_dataset)
    assert all(a == b for a, b in zip(loaded, scan_dataset))
    # One object per distinct subtree of the whole file, not per occurrence.
    distinct = {id(node) for ex in loaded for node in nodes(ex.derivation)}
    assert len(distinct) == 41_821
    (ex,) = [ex for ex in loaded if ex.input == ("jump", "and", "jump")]
    (conj,) = ex.derivation.children
    assert conj.rule == "and" and conj.children[0] is conj.children[1]


RULES = st.sampled_from(["a", "b", "c"])


@st.composite
def shared_traces(draw):
    """1-4 traces of rules a-c, 0-3 children a node, built bottom up: a new
    node takes its children from the nodes made before it, so that subtrees
    are shared, and 0-3 one-child nodes may stand on it, so that there are
    unary chains.  Three rules make equal subtrees that are not one object."""
    pool = [data.DerivationTrace(draw(RULES))]
    for _ in range(draw(st.integers(0, 12))):
        kids = tuple(draw(st.lists(st.sampled_from(pool), max_size=3)))
        node = data.DerivationTrace(draw(RULES), kids)
        for _ in range(draw(st.integers(0, 3))):
            node = data.DerivationTrace(draw(RULES), (node,))
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


def reference_jsonable(trace):
    return [trace.rule, [reference_jsonable(child) for child in trace.children]]


def reference_depth(trace):
    return 1 + max(map(reference_depth, trace.children), default=0)


def structure(trace):
    return trace.rule, tuple(map(structure, trace.children))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shared_traces())
def test_traces_of_any_shape_convert_and_load_as_the_recursive_definitions(traces):
    memo, loaded = {}, []
    for trace in traces:
        obj, depth = data._jsonable(trace)
        assert obj == reference_jsonable(trace) and depth == reference_depth(trace)
        loaded.append(data._interned_trace(json.loads(json.dumps(obj)), memo))
        assert loaded[-1] == trace
    # One object per distinct subtree, under the memo key of its rule and child ids.
    by_structure = {}
    for node in (node for trace in loaded for node in nodes(trace)):
        by_structure.setdefault(structure(node), set()).add(id(node))
    assert all(len(ids) == 1 for ids in by_structure.values())
    assert len(memo) == len(by_structure)
    for key, node in memo.items():
        assert key == ((node.rule, *map(id, node.children)) if node.children else node.rule)


def _distinct(strings) -> tuple[int, int]:
    """(distinct objects, distinct values) among strings."""
    strings = list(strings)
    return len({id(s) for s in strings}), len(set(strings))


def test_loaded_tokens_and_rules_are_shared(scan_dataset, tmp_path):
    path = tmp_path / "scan.jsonl"
    data.save_dataset(scan_dataset, path)
    loaded = data.load_dataset(path)
    tokens = [tok for ex in loaded for tok in ex.input + ex.output]
    assert len(tokens) == 451_076
    assert _distinct(tokens) == (19, 19)
    distinct = {id(node): node for ex in loaded for node in nodes(ex.derivation)}
    assert _distinct(node.rule for node in distinct.values()) == (18, 18)
    # A token and a rule that are equal strings are one object.
    (twice,) = {id(tok) for tok in tokens if tok == "twice"}
    assert {id(node.rule) for node in distinct.values() if node.rule == "twice"} == {twice}


def test_a_second_load_shares_tokens_with_the_first(tmp_path):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"input": "zorp quux", "output": ["ZORP", "QUUX"],
                                "derivation": ["zorp_rule", []]}) + "\n")
    pred.write_text(json.dumps({"id": "a", "prediction": "ZORP QUUX"}) + "\n")
    first, again = data.load_dataset(gold)[0], data.load_dataset(gold)[0]
    (record,) = data.load_predictions(pred)
    assert first == again and first is not again
    for a, b, c in zip(first.output, again.output, record.tokens):
        assert a is b is c
    assert all(a is b for a, b in zip(first.input, again.input))
    assert first.derivation is not again.derivation  # each load has its own trace memo
    assert first.derivation.rule is again.derivation.rule


@pytest.mark.parametrize("name, text", [
    ("d.tsv", "jump twice\tJUMP JUMP\nwalk and jump\tWALK JUMP\n"),
    ("d.jsonl", json.dumps({"input": "jump twice", "output": "JUMP JUMP"}) + "\n"
     + json.dumps({"input": "walk and jump", "output": ["WALK", "JUMP"]}) + "\n"),
], ids=["tsv", "string-tokens"])
def test_tokens_are_shared_in_every_format(name, text, tmp_path):
    path = tmp_path / name
    path.write_text(text)
    loaded = data.load_dataset(path)
    tokens = [tok for ex in loaded for tok in ex.input + ex.output]
    assert tokens == ["jump", "twice", "JUMP", "JUMP", "walk", "and", "jump", "WALK", "JUMP"]
    assert _distinct(tokens) == (6, 6)


def test_prediction_tokens_are_shared(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"id": "a", "prediction": ["X", "Y", "X"]}) + "\n"
                    + json.dumps({"id": "b", "prediction": "Y X", "replica": 1}) + "\n")
    records = data.load_predictions(path)
    assert [r.tokens for r in records] == [("X", "Y", "X"), ("Y", "X")]
    assert _distinct(tok for r in records for tok in r.tokens) == (2, 2)


def chain(depth, leaf="leaf"):
    """A DerivationTrace of depth nodes: unary over unary over ... over a leaf."""
    node = data.DerivationTrace(leaf)
    for _ in range(depth - 1):
        node = data.DerivationTrace("unary", (node,))
    return node


def test_a_deep_trace_converts_and_is_a_typed_error_to_save(tmp_path):
    deep = chain(10_000)
    obj, depth = deep.to_jsonable(), 1
    while obj[1]:
        assert obj[0] == "unary" and len(obj[1]) == 1
        obj, depth = obj[1][0], depth + 1
    assert obj == ["leaf", []] and depth == 10_000
    with pytest.raises(TypeError, match="unhashable"):
        hash(deep)
    path = tmp_path / "d.jsonl"
    examples = [data.Example("ok", ("x",), ("X",), chain(3)),
                data.Example("deep", ("x",), ("X",), deep)]
    with pytest.raises(data.DataError, match="^example 'deep' has a derivation 10000 levels deep; "
                       "a saved one may have at most 256$"):
        data.save_dataset(examples, path)


def test_a_derivation_at_the_depth_bound_round_trips(tmp_path):
    bound = data.MAX_SAVED_DEPTH
    path = tmp_path / "d.jsonl"
    examples = [data.Example("ok", ("x",), ("X",), chain(3)),
                data.Example("deepest", ("x",), ("X",), chain(bound))]
    data.save_dataset(examples, path)
    assert data.load_dataset(path) == examples
    path.unlink()
    examples[1] = data.Example("deeper", ("x",), ("X",), chain(bound + 1))
    with pytest.raises(data.DataError, match=f"^example 'deeper' has a derivation {bound + 1} "
                       f"levels deep; a saved one may have at most {bound}$"):
        data.save_dataset(examples, path)
    assert list(tmp_path.iterdir()) == []


def nested_meta(depth):
    """A meta of depth nested JSON containers (depth >= 2): dicts around a list."""
    meta = [1]
    for _ in range(depth - 1):
        meta = {"k": meta, "v": 0}
    return meta


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_meta_holding_nan_or_an_infinity_is_not_saved(value, tmp_path):
    path = tmp_path / "d.jsonl"
    examples = [data.Example("ok", ("x",), ("X",)),
                data.Example("bad", ("x",), ("X",), None, {"k": [1, value]})]
    with pytest.raises(data.DataError, match="^example 'bad' holds NaN or an infinity, "
                       "which JSON does not have$"):
        data.save_dataset(examples, path)
    assert list(tmp_path.iterdir()) == []


def test_a_meta_at_the_depth_bound_round_trips(tmp_path):
    bound = data.MAX_SAVED_DEPTH
    path = tmp_path / "d.jsonl"
    examples = [data.Example("ok", ("x",), ("X",), chain(3), {"source": "scan"}),
                data.Example("deepest", ("x",), ("X",), None, nested_meta(bound))]
    data.save_dataset(examples, path)
    assert data.load_dataset(path) == examples
    path.unlink()
    for meta in (nested_meta(bound + 1), nested_meta(990)):
        examples[1] = data.Example("deeper", ("x",), ("X",), None, meta)
        with pytest.raises(data.DataError, match=f"^example 'deeper' has a meta more than "
                           f"{bound} levels deep; a saved one may have at most {bound}$"):
            data.save_dataset(examples, path)
        assert list(tmp_path.iterdir()) == []


def test_deep_traces_compare_without_recursion():
    a, b, other = chain(10_000), chain(10_000), chain(10_000, leaf="other")
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != chain(9_999) and chain(3) != data.DerivationTrace("unary", (chain(1), chain(1)))
    assert a.__eq__("unary") is NotImplemented and a != "unary"

    def example(trace):
        return data.Example("x", ("x",), ("X",), trace)

    assert example(a) == example(b) and example(a) != example(other)


def test_a_failed_save_leaves_the_old_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("old\n")
    examples = [data.Example("ok", ("x",), ("X",), chain(3)),
                data.Example("deep", ("x",), ("X",), chain(10_000))]
    with pytest.raises(data.DataError, match="^example 'deep' has a derivation 10000 levels deep; "
                       "a saved one may have at most 256$"):
        data.save_dataset(examples, path)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]
    data.save_dataset(examples[:1], path)
    assert data.load_dataset(path) == examples[:1]
    assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]


def test_to_jsonable_matches_the_recursive_form(scan_dataset, tmp_path):
    def recursive(trace):
        return [trace.rule, [recursive(c) for c in trace.children]]

    sample = scan_dataset[::97]
    path = tmp_path / "d.jsonl"
    data.save_dataset(sample, path)
    for ex, loaded in zip(sample, data.load_dataset(path)):
        obj = ex.derivation.to_jsonable()
        assert obj == recursive(ex.derivation)
        assert loaded.derivation == ex.derivation
    (ex,) = [ex for ex in scan_dataset if ex.input == ("jump", "and", "jump")]
    obj = ex.derivation.to_jsonable()
    conj = obj[1][0][1]
    assert conj[0] == conj[1] and conj[0] is not conj[1]  # a new list per node


def test_predictions_roundtrip(tmp_path):
    records = [data.PredictionRecord("a", ("X", "Y"), 0),
               data.PredictionRecord("b", ("Z",), 1)]
    path = tmp_path / "p.jsonl"
    data.save_predictions(records, path)
    assert data.load_predictions(path) == records


def example(inp, out):
    return data.Example(data.content_id(inp, out), tuple(inp), tuple(out))


def test_cgps_prefix_counts_non_mappable():
    ex = example(["who", "directed", "M0"],
                 ["SELECT", "DISTINCT", "?x0", "WHERE", "directed", "M0"])
    out = data.cgps_prefix(ex, identity=True)
    # SELECT DISTINCT ?x0 WHERE are not reachable from the input
    assert out.input[:4] == ("<p0>", "<p1>", "<p2>", "<p3>")
    assert out.input[4:] == ex.input
    assert out.output == ex.output


def test_cgps_prefix_all_mappable_unchanged():
    ex = example(["jump"], ["JUMP"])
    assert data.cgps_prefix(ex, scan.TOKEN_MAP) is ex


def test_cgps_prefix_scan_map():
    ex = example(["jump", "left"], ["LTURN", "JUMP"])
    assert data.cgps_prefix(ex, scan.TOKEN_MAP) is ex


def test_cgps_prefix_idempotence_guard():
    ex = example(["who", "is", "M0"], ["SELECT", "M0"])
    once = data.cgps_prefix(ex, identity=True)
    with pytest.raises(data.AlreadyPrefixedError):
        data.cgps_prefix(once, identity=True)


@pytest.mark.parametrize("token", ["<p1>\n", "<p\u0661>", "<p1> ", "x<p1>", "<p>", "<P1>"])
def test_a_token_that_only_resembles_a_placeholder_is_not_one(token):
    ex = example([token], ["SELECT"])
    out = data.cgps_prefix(ex, identity=True)
    assert out.input == ("<p0>", token)


def test_cgps_prefix_global_length():
    exs = [example(["a"], ["X", "Y"]), example(["b"], ["Z"])]
    out = data.cgps_prefix_dataset(exs, identity=True, global_length=True)
    assert len(out[0].input) == len(out[1].input) == 3


def test_cgps_length_invariant():
    ex = example(["who", "directed", "M0"], ["SELECT", "directed", "M0"])
    n = data.count_non_mappable(ex, identity=True)
    out = data.cgps_prefix(ex, identity=True)
    assert len(out.input) == len(ex.input) + n


@pytest.mark.parametrize("bad_line", [1, 2, 500, 2999])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x28", b"\x80"],
                         ids=["start", "continuation", "lone"])
def test_undecodable_byte_names_its_line(tmp_path, bad_line, bad):
    # Long enough to be decoded in several chunks, with multi-byte characters
    # and CRLF line ends on the way.
    lines = [f"line {i} \u00e9\u00fc {'x' * (i % 37)}".encode() + (b"\r\n" if i % 5 else b"\n")
             for i in range(1, 3001)]
    lines[bad_line - 1] = lines[bad_line - 1][:7] + bad + lines[bad_line - 1][7:]
    path = tmp_path / "f.txt"
    path.write_bytes(b"".join(lines))
    with pytest.raises(data.DataError, match=f"^{path}:{bad_line}: not valid UTF-8 at byte "
                                             f"0x{bad[0]:02x}$"):
        data.read_lines(path, str.split, "lines")
    with pytest.raises(data.DataError, match=f"^{path}:{bad_line}: not valid UTF-8"):
        data.JsonFile(path)


def test_json_file_nested_too_deeply(tmp_path):
    path = tmp_path / "f.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(data.DataError, match=f"^{path}: maximum recursion depth"):
        data.JsonFile(path)
    # Deep enough for the C decoder but not for the decode that finds lines.
    path.write_text("[" * 300 + "]" * 300)
    doc = data.JsonFile(path)
    assert doc.error("x", doc.value).args == (f"{path}: x",)


def test_json_file_errors_name_the_line_of_the_value(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{\n  "a": [\n    1\n  ],\n  "b": {"c": 1}\n}\n')
    doc = data.JsonFile(path)
    assert doc.fields(doc.value, {"z": "a string or null"}) == [None]
    for obj, kinds, message in [
            (doc.value, {"z": "a string"}, ":1: missing key 'z'"),
            (doc.value, {"a": "a list of strings"}, ":2: 'a' must be a list of strings"),
            (doc.value["b"], {"c": "a string"}, ":5: 'c' must be a string"),
            (doc.value["a"][0], {}, ":2: expected a JSON object")]:
        with pytest.raises(data.DataError, match=f"^{path}{message}$"):
            doc.fields(obj, kinds, parent=doc.value["a"])
    assert doc.error("x", parent=doc.value["a"], index=0).args == (f"{path}:3: x",)
    path.write_text('{"a": 1,\n "b": }')
    with pytest.raises(data.DataError, match=f"^{path}:2: Expecting value$"):
        data.JsonFile(path)


def u(*codes: str) -> str:
    """The JSON escapes backslash-u of the given hex codes, as a file holds them."""
    return "".join(chr(92) + "u" + code for code in codes)


# Raw JSON string contents and the lone surrogate escape in each; an
# escaped backslash (two backslashes) does not start an escape.
@pytest.mark.parametrize("raw,lone", [
    ("JUMP " + u("d800"), u("d800")), (u("dc00"), u("dc00")),
    (u("D800", "D800", "DC00"), u("D800")), (u("d83d", "de00") + " " + u("dfff"), u("dfff")),
    (u("dc00", "d800"), u("dc00")), (chr(92) * 2 + u("d800"), u("d800")),
    (u("dbff") + "x", u("dbff"))])
def test_a_lone_surrogate_is_refused_at_its_line(raw, lone, tmp_path):
    lines = tmp_path / "d.jsonl"
    lines.write_text(_with(EXAMPLE_LINE) + '\n{"id": "b", "input": "x", "output": "%s"}\n' % raw)
    message = re.escape(f"{lone} is an unpaired surrogate")
    with pytest.raises(data.DataError, match=rf"^{lines}:2: {message}: line 1 column "):
        data.load_dataset(lines)
    lines.write_text('{"id": "a", "prediction": "%s"}\n' % raw)
    with pytest.raises(data.DataError, match=rf"^{lines}:1: {message}"):
        data.load_predictions(lines)
    doc = tmp_path / "f.json"
    doc.write_text('{"a": 1,\n "b": ["%s"]}' % raw)
    with pytest.raises(data.DataError, match=rf"^{doc}:2: {message}$"):
        data.JsonFile(doc)


@pytest.mark.parametrize("raw,text", [
    (u("d83d", "de00"), "\U0001f600"), (u("D83D", "DE00"), "\U0001f600"),
    ("\U0001f600", "\U0001f600"), (chr(92) * 2 + "ud800", chr(92) + "ud800"),
    (u("d7ff", "e000"), "\ud7ff\ue000"), (u("0064") + "800", "d800")])
def test_a_surrogate_pair_and_escapes_like_one_load(raw, text, tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "input": "x", "output": "%s"}\n' % raw, encoding="utf-8")
    examples = data.load_dataset(path)
    assert examples[0].output == (text,)
    data.save_dataset(examples, path)
    assert data.load_dataset(path) == examples
    path.write_text('["%s"]' % raw, encoding="utf-8")
    assert data.JsonFile(path).value == [text]


def test_writers_leave_the_old_file_when_a_chunk_cannot_be_written(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text("old\n")
    records = [data.PredictionRecord("a", ("X",)), data.PredictionRecord("b", ("\ud800",))]
    with pytest.raises(UnicodeEncodeError):
        data.save_predictions(records, path)
    with pytest.raises(UnicodeEncodeError):
        data.write_file(path, ["new\n", "\udc00"])
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p.jsonl"]
    data.write_file(path, iter(["a", "b\n"]))
    assert path.read_text() == "ab\n"
