import argparse
import hashlib
import json

import pytest

from compgen import data, dbca, scan, splits
from compgen.cli import build_parser, run


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    # a manageable slice with derivations, saved as jsonl
    path = tmp_path_factory.mktemp("data") / "scan_small.jsonl"
    data.save_dataset(scan.enumerate_dataset()[:300], path)
    return path


def test_scan_generate_and_manifest(tmp_path):
    out = tmp_path / "scan.jsonl"
    assert run(["scan", "generate", "--out", str(out)]) == 0
    examples = data.load_dataset(out)
    assert len(examples) == 20910
    manifest = json.loads((tmp_path / "scan.jsonl.manifest.json").read_text())
    assert manifest["command"] == "scan generate"
    assert str(out) in manifest["outputs"]


def test_scan_generate_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["scan", "generate", "--out", str(a)]) == 0
    assert run(["scan", "generate", "--out", str(b)]) == 0
    content = a.read_bytes()
    assert content == b.read_bytes()
    # Golden: the published dataset file, pinned byte for byte.
    assert len(content) == 8_037_862
    assert hashlib.sha256(content).hexdigest() == (
        "949e0b44926d280d8c32fab60647d2e3408caedc8f77ae52f01e1d84726d6def")


def test_scan_interpret(tmp_path):
    infile = tmp_path / "cmds.txt"
    infile.write_text("turn left twice and jump\nwalk after run\n")
    out = tmp_path / "acts.txt"
    assert run(["scan", "interpret", "--in", str(infile), "--out", str(out)]) == 0
    assert out.read_text() == "LTURN LTURN JUMP\nRUN WALK\n"


def test_scan_interpret_error_names_line(tmp_path, capsys):
    infile = tmp_path / "cmds.txt"
    infile.write_text("jump\n\nwalk frob\n")
    assert run(["scan", "interpret", "--in", str(infile)]) == 2
    assert f"{infile}:3: unknown word 'frob' (at token 1)" in capsys.readouterr().err


def test_split_subcommands(tmp_path, small_dataset):
    out = tmp_path / "split.json"
    assert run(["split", "primitive", "--in", str(small_dataset),
                "--out", str(out), "--primitive", "jump"]) == 0
    obj = json.loads(out.read_text())
    assert obj["spec"]["kind"] == "primitive_holdout"
    assert set(obj["train"]).isdisjoint(obj["test"])


def test_split_random_seeded(tmp_path, small_dataset):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["split", "random", "--in", str(small_dataset),
                    "--out", str(path), "--seed", "3"]) == 0
    assert json.loads(a.read_text())["train"] == json.loads(b.read_text())["train"]


def test_split_mcd_and_dbca_analyze(tmp_path, small_dataset):
    out = tmp_path / "mcd.json"
    assert run(["split", "mcd", "--in", str(small_dataset), "--out", str(out),
                "--seed", "1", "--iterations", "200",
                "--max-atom-div", "0.05"]) == 0
    split = json.loads(out.read_text())
    report = split["stats"]["divergence"]
    assert report["atom_divergence"] <= 0.05
    assert not (tmp_path / "mcd.json.divergence.json").exists()
    analyzed = tmp_path / "report.json"
    assert run(["dbca", "analyze", "--in", str(small_dataset),
                "--split", str(out), "--out", str(analyzed)]) == 0
    measured = json.loads(analyzed.read_text())
    for key in ("atom_divergence", "compound_divergence"):
        assert abs(measured[key] - report[key]) < 1e-9
    # The library call reports what dbca.measure finds for its partition.
    examples = data.load_dataset(small_dataset)
    result, lib_report = dbca.build_mcd_split(
        examples, seed=1, iterations=200, max_atom_divergence=0.05)
    assert [list(result.train_ids), list(result.test_ids)] == [split["train"], split["test"]]
    by_id = {ex.id: ex for ex in examples}
    again = dbca.measure([by_id[i] for i in result.train_ids],
                         [by_id[i] for i in result.test_ids])
    assert abs(lib_report.atom_divergence - again.atom_divergence) < 1e-9
    assert abs(lib_report.compound_divergence - again.compound_divergence) < 1e-9


def test_ir_encode_decode(tmp_path):
    queries = tmp_path / "queries.txt"
    queries.write_text("M0 directed M2 . M1 directed M2 . "
                       "M0 directed M3 . M1 directed M3\n")
    encoded = tmp_path / "encoded.txt"
    assert run(["ir", "encode", "--level", "f2", "--in", str(queries),
                "--out", str(encoded)]) == 0
    assert encoded.read_text() == ("M0 { directed { M2 , M3 } } "
                                   "M1 { directed { M2 , M3 } }\n")
    decoded = tmp_path / "decoded.txt"
    assert run(["ir", "decode", "--level", "f2", "--in", str(encoded),
                "--out", str(decoded)]) == 0
    from compgen import sparql
    assert sparql.clause_set_equal(
        sparql.parse_sparql(decoded.read_text().strip()),
        sparql.parse_sparql(queries.read_text().strip()))


def test_prep_cgps_prefix(tmp_path):
    infile = tmp_path / "d.jsonl"
    infile.write_text(json.dumps({"id": "1", "input": ["who", "is", "M0"],
                                  "output": ["SELECT", "M0"]}) + "\n")
    out = tmp_path / "prefixed.jsonl"
    assert run(["prep", "cgps-prefix", "--in", str(infile), "--out", str(out),
                "--identity"]) == 0
    (ex,) = data.load_dataset(out)
    assert ex.input[0] == "<p0>" and ex.output == ("SELECT", "M0")


def test_eval_score(tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        json.dumps({"id": "1", "input": ["a"], "output": ["A"]}) + "\n" +
        json.dumps({"id": "2", "input": ["b"], "output": ["B"]}) + "\n")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(
        json.dumps({"id": "1", "prediction": ["A"], "replica": 0}) + "\n" +
        json.dumps({"id": "2", "prediction": ["X"], "replica": 0}) + "\n")
    out = tmp_path / "score.json"
    assert run(["eval", "score", "--gold", str(gold), "--pred", str(pred),
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mean"] == 0.5 and report["n_replicas"] == 1


def test_eval_report(tmp_path):
    infile = tmp_path / "results.json"
    infile.write_text(json.dumps({
        "A": {"jump": {"split": "jump", "replica_accuracies": [], "mean": 0.988,
                       "variance": 0.014, "variance_kind": "stdev", "n_replicas": 5}},
        "B": {"jump": None},
    }))
    out = tmp_path / "table.md"
    assert run(["eval", "report", "--in", str(infile), "--out", str(out)]) == 0
    table = out.read_text()
    assert "**98.8 ± 1.4**" in table and "| - |" in table


def test_eval_score_output_feeds_report(tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        json.dumps({"id": "1", "input": ["a"], "output": ["A"]}) + "\n" +
        json.dumps({"id": "2", "input": ["b"], "output": ["B"]}) + "\n")
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(
        json.dumps({"id": i, "prediction": [p], "replica": r}) + "\n"
        for r, i, p in [(0, "1", "A"), (0, "2", "X"), (1, "1", "A"), (1, "2", "B")]))
    score = tmp_path / "score.json"
    assert run(["eval", "score", "--gold", str(gold), "--pred", str(pred),
                "--out", str(score)]) == 0
    results = tmp_path / "results.json"
    results.write_text(json.dumps({"M": {"s": json.loads(score.read_text())}}))
    out = tmp_path / "table.md"
    assert run(["eval", "report", "--in", str(results), "--out", str(out)]) == 0
    assert "| M | **75.0 ± 35.4** |" in out.read_text()


def test_eval_report_missing_key(tmp_path, capsys):
    infile = tmp_path / "results.json"
    infile.write_text('{"A": {\n  "jump": {"mean": 0.5, "variance": 0.1}\n}}\n')
    assert run(["eval", "report", "--in", str(infile), "--out",
                str(tmp_path / "t.md")]) == 2
    assert f"{infile}:2: missing key 'variance_kind'" in capsys.readouterr().err


def test_eval_curve(tmp_path):
    infile = tmp_path / "points.json"
    infile.write_text(json.dumps([
        {"divergence": 0.5, "accuracy": 0.1, "label": "mcd"},
        {"divergence": 0.1, "accuracy": 0.9, "label": "random"}]))
    out = tmp_path / "curve.csv"
    assert run(["eval", "curve", "--in", str(infile), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "divergence,accuracy,label" and lines[1].startswith("0.1")


def test_eval_curve_missing_key(tmp_path, capsys):
    infile = tmp_path / "points.json"
    infile.write_text('[\n  {"divergence": 0.5, "accuracy": 0.1},\n  {"divergence": 0.1}\n]\n')
    assert run(["eval", "curve", "--in", str(infile)]) == 2
    assert f"{infile}:3: missing key 'accuracy'" in capsys.readouterr().err


def test_error_exit_code(tmp_path):
    assert run(["split", "primitive", "--in", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "o.json"), "--primitive", "jump"]) == 2


@pytest.mark.parametrize("option,value", [("--atom-alpha", "0"), ("--compound-alpha", "1"),
                                          ("--compound-alpha", "1.5")])
def test_split_mcd_alpha_out_of_range(option, value, tmp_path, small_dataset, capsys):
    out = tmp_path / "mcd.json"
    assert run(["split", "mcd", "--in", str(small_dataset), "--out", str(out),
                "--iterations", "10", option, value]) == 2
    assert capsys.readouterr().err.startswith(f"compgen: error: alpha must be in (0, 1), got {value}")
    assert not out.exists()


def test_env_seed_override(tmp_path, small_dataset, monkeypatch):
    monkeypatch.setenv("COMPGEN_SEED", "17")
    from compgen.cli import build_parser
    args = build_parser().parse_args(["split", "random",
                                      "--in", str(small_dataset),
                                      "--out", str(tmp_path / "o.json")])
    assert args.seed == 17


def test_env_seed_not_an_integer(tmp_path, small_dataset, monkeypatch, capsys):
    monkeypatch.setenv("COMPGEN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        run(["split", "random", "--in", str(small_dataset), "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "COMPGEN_SEED" in capsys.readouterr().err
    # An explicit --seed, or a subcommand without one, does not read it.
    assert run(["split", "random", "--in", str(small_dataset),
                "--out", str(tmp_path / "r.json"), "--seed", "3"]) == 0
    assert run(["split", "primitive", "--in", str(small_dataset),
                "--out", str(tmp_path / "p.json"), "--primitive", "jump"]) == 0


def test_eval_prediction_errors_name_file(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "1", "input": ["a"], "output": ["A"]}) + "\n")
    rows = [json.dumps({"id": "1", "prediction": [tok], "replica": r})
            for r, tok in enumerate(["A", "X"])]
    for name, lines in (("ax.jsonl", rows), ("xa.jsonl", rows[::-1])):
        pred = tmp_path / name
        pred.write_text("\n".join(lines) + "\n")
        assert run(["eval", "length-breakdown", "--gold", str(gold), "--pred", str(pred),
                    "--train", str(gold)]) == 2
        assert f"{pred}: multiple predictions for id '1'" in capsys.readouterr().err
    pred.write_text(json.dumps({"id": "9", "prediction": ["A"]}) + "\n")
    assert run(["eval", "score", "--gold", str(gold), "--pred", str(pred)]) == 2
    assert f"{pred}: prediction for unknown id '9'" in capsys.readouterr().err


# Every leaf subcommand, enumerated from the parser, with valid arguments
# ({name} is a file of the cli_inputs fixture) except --out.
VALID_ARGS = {
    "scan generate": [],
    "scan interpret": ["--in", "{cmds}"],
    "split random": ["--in", "{dataset}", "--seed", "3", "--train-fraction", "0.7"],
    "split primitive": ["--in", "{dataset}", "--primitive", "jump"],
    "split subcommand": ["--in", "{dataset}", "--phrase", "jump twice"],
    "split template": ["--in", "{dataset}", "--template", "$Primitive twice"],
    "split length": ["--in", "{dataset}", "--max-length", "20"],
    "split mcd": ["--in", "{dataset}", "--seed", "2", "--iterations", "50",
                  "--max-atom-div", "0.5", "--target", "0.3"],
    "dbca analyze": ["--in", "{dataset}", "--split", "{split}", "--atom-alpha", "0.4"],
    "ir encode": ["--level", "f3", "--in", "{queries}"],
    "ir decode": ["--level", "f1", "--in", "{encoded}"],
    "prep cgps-prefix": ["--in", "{dataset}", "--token-map", "{token_map}", "--identity"],
    "eval score": ["--gold", "{gold}", "--pred", "{pred}", "--clause-set",
                   "--variance", "ci95", "--split-name", "s"],
    "eval report": ["--in", "{results}"],
    "eval length-breakdown": ["--gold", "{gold}", "--pred", "{pred}", "--train", "{train}",
                              "--axis", "input"],
    "eval curve": ["--in", "{points}"],
}
PATH_OPTIONS = {"infile", "split", "gold", "pred", "train", "out"}
# Options naming an input file; --token-map names one unless it is 'scan'.
INPUT_OPTIONS = {"infile": "--in", "split": "--split", "gold": "--gold",
                 "pred": "--pred", "train": "--train", "token_map": "--token-map"}


def leaf_parsers(parser, words=()):
    """(command words, parser) of every leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
        return
    for name, sub in subs[0].choices.items():
        yield from leaf_parsers(sub, words + (name,))


LEAVES = dict(leaf_parsers(build_parser()))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory, small_dataset):
    d = tmp_path_factory.mktemp("inputs")
    examples = data.load_dataset(small_dataset)
    gold, train = examples[:40], examples[40:]
    files = {"dataset": small_dataset, "gold": d / "gold.jsonl",
             "train": d / "train.jsonl", "pred": d / "pred.jsonl",
             "split": d / "split.json", "cmds": d / "cmds.txt",
             "queries": d / "queries.txt", "encoded": d / "encoded.txt",
             "token_map": d / "token_map.json", "results": d / "results.json",
             "points": d / "points.json"}
    data.save_dataset(gold, files["gold"])
    data.save_dataset(train, files["train"])
    data.save_predictions([data.PredictionRecord(ex.id, ex.output) for ex in gold],
                          files["pred"])
    splits.save_split(splits.build_length_split(examples), files["split"])
    files["cmds"].write_text("jump twice\nwalk left\n")
    files["queries"].write_text("M0 a M1 . M1 b M2\n")
    files["encoded"].write_text("M0 { a M1 . b M2 }\n")
    files["token_map"].write_text(json.dumps({"jump": ["JUMP"]}))
    files["results"].write_text(json.dumps({"A": {"s": {
        "mean": 0.5, "variance": 0.1, "variance_kind": "stdev", "n_replicas": 2}}}))
    files["points"].write_text(json.dumps([{"divergence": 0.5, "accuracy": 0.1}]))
    return {k: str(v) for k, v in files.items()}


def leaf_argv(name, files, **replace):
    """argv of a leaf with its valid arguments, the inputs named in replace
    (by option) swapped for the given paths."""
    args = [a.format(**files) for a in VALID_ARGS[name]]
    for option, path in replace.items():
        args[args.index(option) + 1] = str(path)
    return name.split() + args


def test_every_leaf_has_valid_args():
    assert set(LEAVES) == set(VALID_ARGS)


@pytest.mark.parametrize("name", sorted(VALID_ARGS))
def test_manifest_config_is_the_non_path_options(name, cli_inputs, tmp_path):
    out = tmp_path / "out"
    argv = leaf_argv(name, cli_inputs) + ["--out", str(out)]
    assert run(argv) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    args = build_parser().parse_args(argv)
    options = [a.dest for a in LEAVES[name]._actions if a.dest != "help"]
    # The valid arguments give --token-map a file, so it is a path here.
    paths = PATH_OPTIONS | {"token_map"}
    assert manifest["command"] == name
    assert manifest["config"] == {k: getattr(args, k) for k in options if k not in paths}
    assert set(manifest["inputs"]) == {getattr(args, k) for k in options
                                       if k in paths - {"out"}}
    assert set(manifest["outputs"]) == {str(out)}


def test_manifest_keeps_the_builtin_token_map_in_config(small_dataset, tmp_path):
    out = tmp_path / "out.jsonl"
    assert run(["prep", "cgps-prefix", "--in", str(small_dataset), "--token-map", "scan",
                "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
    assert manifest["config"]["token_map"] == "scan"
    assert set(manifest["inputs"]) == {str(small_dataset)}
    assert set(manifest["outputs"]) == {str(out)}


BAD_INPUTS = [(name, INPUT_OPTIONS[a.dest]) for name, p in sorted(LEAVES.items())
              for a in p._actions if a.dest in INPUT_OPTIONS]


@pytest.mark.parametrize("name,option", BAD_INPUTS)
@pytest.mark.parametrize("case", ["missing", "empty", "malformed"])
def test_bad_input_file_exits_2_naming_it(name, option, case, cli_inputs, tmp_path, capsys):
    bad = tmp_path / "bad.in"
    if case != "missing":
        bad.write_text("" if case == "empty" else "{ x\n")
    argv = leaf_argv(name, cli_inputs, **{option: bad}) + ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("compgen: error:") and "Traceback" not in err
    assert (f"{bad}:1: " if case == "malformed" else str(bad)) in err


@pytest.mark.parametrize("name,option,content,message", [
    ("dbca analyze", "--split", '{"spec": {"kind": "length"},\n "train": []}',
     ":1: missing key 'test'"),
    ("dbca analyze", "--split", '{"spec": {"kind": "length"},\n "train": [1], "test": []}',
     ":2: 'train' must be a list of strings"),
    ("dbca analyze", "--split", '{"spec": {"seed": 1},\n "train": [], "test": []}',
     ":1: missing key 'kind'"),
    ("dbca analyze", "--split", "not json", ":1: Expecting value"),
    ("prep cgps-prefix", "--token-map", '{"jump": 3}', ":1: 'jump' must be a list of strings"),
    ("prep cgps-prefix", "--token-map", '["jump"]', ":1: expected a JSON object"),
    ("eval curve", "--in", '[\n {"divergence": "x", "accuracy": 0.1}\n]',
     ":2: 'divergence' must be a number"),
    ("eval curve", "--in", '[{"divergence": true, "accuracy": 0.1}]',
     ":1: 'divergence' must be a number"),
    ("eval curve", "--in", '[{"divergence": 0.1, "accuracy": 0.1, "label": 3}]',
     ":1: 'label' must be a string or null"),
    ("eval report", "--in", '{"A": {\n "s": {"mean": "0.5", "variance": 0.1, '
     '"variance_kind": "stdev", "n_replicas": 2}}}', ":2: 'mean' must be a number"),
    ("eval report", "--in", '{"A":\n [1]}', ":2: expected a JSON object"),
    ("dbca analyze", "--split", "null", ":1: expected a JSON object"),
    ("prep cgps-prefix", "--token-map", "null", ":1: expected a JSON object"),
    ("eval report", "--in", "null", ":1: expected a JSON object"),
    ("eval report", "--in", '{"a": null}', ":1: expected a JSON object"),
    ("eval curve", "--in", '{"label": null}', ":1: expected a JSON list of points"),
    ("eval curve", "--in", '[{"divergence": 0.5, "accuracy": 0.1},\n {"divergence": 2, '
     '"accuracy": 0.5}]', ":2: divergence 2 outside [0, 1]"),
    ("dbca analyze", "--split", '{"spec": {"kind": "length"}, "train": ["a"],\n '
     '"test": ["b", "a"]}', ":2: id 'a' in both 'train' and 'test'"),
    ("dbca analyze", "--split", '{"spec": {"kind": "length"},\n "train": ["a", "b", "a"], '
     '"test": []}', ":2: repeated id 'a' in 'train'"),
    # One id a line, as split files are written: the line is the id's own.
    ("dbca analyze", "--split", '{"spec": {"kind": "length"},\n "train": [\n  "a",\n  "b"\n ],'
     '\n "test": [\n  "c",\n  "a"\n ]\n}', ":8: id 'a' in both 'train' and 'test'"),
    ("dbca analyze", "--split", '{"spec": {"kind": "length"},\n "train": [\n  "a",\n  "b",\n'
     '  "a"\n ],\n "test": []\n}', ":5: repeated id 'a' in 'train'"),
])
def test_json_input_types_checked(name, option, content, message, cli_inputs, tmp_path,
                                  capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    argv = leaf_argv(name, cli_inputs, **{option: bad}) + ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("compgen: error:") and f"{bad}{message}" in err
