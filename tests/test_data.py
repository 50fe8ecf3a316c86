import json

import pytest

from compgen import data, scan


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


def test_loaded_traces_share_equal_subtrees(scan_dataset, tmp_path):
    path = tmp_path / "scan.jsonl"
    data.save_dataset(scan_dataset, path)
    loaded = data.load_dataset(path)
    assert len(loaded) == len(scan_dataset)
    assert all(a == b for a, b in zip(loaded, scan_dataset))
    # One object per distinct subtree of the whole file, not per occurrence.
    nodes = {id(node) for ex in loaded for node in ex.derivation.iter_nodes()}
    assert len(nodes) == 41_821
    (ex,) = [ex for ex in loaded if ex.input == ("jump", "and", "jump")]
    (conj,) = ex.derivation.children
    assert conj.rule == "and" and conj.children[0] is conj.children[1]


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
    assert data.cgps_prefix(ex, data.SCAN_TOKEN_MAP) is ex


def test_cgps_prefix_scan_map():
    ex = example(["jump", "left"], ["LTURN", "JUMP"])
    assert data.cgps_prefix(ex, data.SCAN_TOKEN_MAP) is ex


def test_cgps_prefix_idempotence_guard():
    ex = example(["who", "is", "M0"], ["SELECT", "M0"])
    once = data.cgps_prefix(ex, identity=True)
    with pytest.raises(data.AlreadyPrefixedError):
        data.cgps_prefix(once, identity=True)


def test_cgps_prefix_global_length():
    exs = [example(["a"], ["X", "Y"]), example(["b"], ["Z"])]
    out = data.cgps_prefix_dataset(exs, identity=True, global_length=True)
    assert len(out[0].input) == len(out[1].input) == 3


def test_cgps_length_invariant():
    ex = example(["who", "directed", "M0"], ["SELECT", "directed", "M0"])
    n = data.count_non_mappable(ex, identity=True)
    out = data.cgps_prefix(ex, identity=True)
    assert len(out.input) == len(ex.input) + n


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
