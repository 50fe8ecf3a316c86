import argparse
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_scan_generate_tsv_feeds_split_length(tmp_path):
    out = tmp_path / "scan.tsv"
    assert run(["scan", "generate", "--out", str(out)]) == 0
    content = out.read_bytes()
    # Golden: the TSV form of the published dataset, pinned byte for byte.
    assert len(content) == 2_520_412
    assert hashlib.sha256(content).hexdigest() == (
        "af1656ebee2655b9f12068337f4124420481564e39995be5612aef6a1ff386ee")
    manifest = json.loads((tmp_path / "scan.tsv.manifest.json").read_text())
    assert manifest["config"] == {}
    split = tmp_path / "split.json"
    assert run(["split", "length", "--in", str(out), "--out", str(split)]) == 0
    assert len(json.loads(split.read_text())["train"]) == 16990


def test_split_random_needs_two_examples(tmp_path, small_dataset, capsys):
    one = tmp_path / "one.jsonl"
    one.write_text(small_dataset.read_text().splitlines()[0] + "\n")
    assert run(["split", "random", "--in", str(one), "--out", str(tmp_path / "s.json")]) == 2
    assert "need at least two examples" in capsys.readouterr().err


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


def test_line_commands_read_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("jump\n \t\nwalk twice\n"))
    assert run(["scan", "interpret"]) == 0
    assert capsys.readouterr().out == "JUMP\nWALK WALK\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("M0 { a M1 }\n\nM0 {\n"))
    assert run(["ir", "decode", "--level", "f1"]) == 2
    assert capsys.readouterr().err.startswith("compgen: error: <stdin>:3: ")
    monkeypatch.setattr("sys.stdin", io.StringIO(" \n"))
    assert run(["ir", "encode", "--level", "f1"]) == 2
    assert capsys.readouterr().err == "compgen: error: <stdin>: no lines\n"


def test_stdin_is_strict_utf8_under_the_c_locale():
    # Under the C locale Python reads stdin with surrogateescape; the line
    # commands read its bytes as UTF-8 instead, as they read --in files.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUTF8", "PYTHONIOENCODING", "LANG", "LC_CTYPE")}
    env.update(LC_ALL="C", PYTHONPATH=str(Path(data.__file__).resolve().parents[1]))

    def cli(args, stdin):
        return subprocess.run([sys.executable, "-m", "compgen.cli", *args], env=env,
                              input=stdin, capture_output=True)

    proc = cli(["ir", "encode", "--level", "f1"], b"M0 a M\xff1\n")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"compgen: error: <stdin>:1: not valid UTF-8 at byte 0xff\n"
    # Past the first chunk of a stream the line is still counted from the start.
    proc = cli(["scan", "interpret"], b"jump\n" * 5000 + b"walk \xc3\n")
    assert proc.stderr == b"compgen: error: <stdin>:5001: not valid UTF-8 at byte 0xc3\n"
    # Lines end at "\n" only: a lone "\r" stays inside its line.
    proc = cli(["scan", "interpret"], b"jump\r\nwalk twice\n")
    assert (proc.returncode, proc.stdout) == (0, b"JUMP\nWALK WALK\n")
    proc = cli(["scan", "interpret"], b"jump\rjump\nwalk frob\n")
    assert proc.stderr.startswith(b"compgen: error: <stdin>:1: ")


def test_reading_stdin_leaves_it_open(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO("jump\nwalk twice\n".encode()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(["scan", "interpret"]) == 0
    assert capsys.readouterr().out == "JUMP\nWALK WALK\n"
    assert not stdin.closed and not stdin.buffer.closed


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
    # Both count through one divergence path: equal bit for bit.
    measured = json.loads(analyzed.read_text())
    for key in ("atom_divergence", "compound_divergence"):
        assert measured[key] == report[key]
    # The library call reports what dbca.measure finds for its partition.
    examples = data.load_dataset(small_dataset)
    result, lib_report = dbca.build_mcd_split(
        examples, seed=1, iterations=200, max_atom_divergence=0.05)
    assert [list(result.train_ids), list(result.test_ids)] == [split["train"], split["test"]]
    by_id = {ex.id: ex for ex in examples}
    again = dbca.measure([by_id[i] for i in result.train_ids],
                         [by_id[i] for i in result.test_ids])
    assert lib_report == again


def test_ir_encode_drops_a_repeated_triple_silently(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("M0 a M1 . M0 a M1\n"))
    assert run(["ir", "encode", "--level", "f1"]) == 0
    assert capsys.readouterr() == ("M0 { a M1 }\n", "")


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


def test_option_errors_do_not_name_the_prediction_file(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "1", "input": ["a"], "output": ["A"]}) + "\n")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "1", "prediction": ["A"]}) + "\n")
    assert run(["eval", "length-breakdown", "--gold", str(gold), "--pred", str(pred),
                "--train", str(gold), "--bucket-width", "0"]) == 2
    assert capsys.readouterr().err == "compgen: error: bucket_width must be >= 1\n"


# Each a well-formed JSON line with a value of the wrong type, for a
# dataset (prep cgps-prefix) or a prediction file (eval score).
@pytest.mark.parametrize("option,line,message", [
    ("--in", {"id": "a", "input": [1, 2], "output": ["A"]},
     "'input' must be a string or a list of strings"),
    ("--in", {"id": "a", "input": ["a"], "output": ["A"], "meta": [1]},
     "'meta' must be a JSON object or null"),
    ("--in", {"id": "a", "input": [], "output": ["A"]}, "example 'a' has empty input or output"),
    ("--in", {"id": 5, "input": ["a"], "output": ["A"]}, "'id' must be a string or null"),
    ("--in", {"id": "a", "input": ["a"], "output": ["A"], "derivation": [5, [[None, []]]]},
     "'derivation' must be"),
    ("--pred", {"id": "a", "prediction": ["A"], "replica": 0.7},
     "'replica' must be an integer or null"),
    ("--pred", {"id": "a", "prediction": ["A"], "replica": True},
     "'replica' must be an integer or null"),
])
def test_mistyped_line_exits_2_naming_its_line(option, line, message, tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "a", "input": ["a"], "output": ["A"]}) + "\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n" + json.dumps(line) + "\n")
    argv = (["prep", "cgps-prefix", "--in", str(bad), "--identity", "--out",
             str(tmp_path / "out.jsonl")] if option == "--in" else
            ["eval", "score", "--gold", str(gold), "--pred", str(bad)])
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"compgen: error: {bad}:2: {message}")


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
@pytest.mark.parametrize("case", ["missing", "empty", "malformed", "mistyped",
                                  "undecodable", "deep"])
def test_bad_input_file_exits_2_naming_it(name, option, case, cli_inputs, tmp_path, capsys):
    bad = tmp_path / "bad.in"
    if case != "missing":
        # mistyped: well-formed JSON, of the wrong types for a dataset or
        # a prediction line.
        bad.write_bytes({"empty": b"", "malformed": b"{ x\n", "mistyped": json.dumps(
            {"id": 5, "input": [1], "output": [2], "prediction": [3], "replica": 0.5}).encode(),
            "undecodable": b"{\n\"a\xff\": 1}\n",
            "deep": b"[" * 200_000 + b"]" * 200_000}[case])
    argv = leaf_argv(name, cli_inputs, **{option: bad}) + ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("compgen: error:") and "Traceback" not in err
    where = {"malformed": ":1: ", "mistyped": ":1: ", "undecodable": ":2: not valid UTF-8"}
    assert f"{bad}{where.get(case, '')}" in err


def test_a_trace_too_deep_to_write_exits_2_naming_its_example(monkeypatch, tmp_path, capsys):
    deep = data.DerivationTrace("leaf")
    for _ in range(9_999):
        deep = data.DerivationTrace("unary", (deep,))
    monkeypatch.setattr(scan, "enumerate_dataset",
                        lambda: [data.Example("deep", ("x",), ("X",), deep)])
    assert run(["scan", "generate", "--out", str(tmp_path / "d.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == "compgen: error: example 'deep' is nested too deeply for JSON\n"


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
    ("eval curve", "--in", '[{"divergence": 0.5, "accuracy": 7},\n {"divergence": 0.2, '
     '"accuracy": -1, "label": "x"}]', ":1: accuracy 7 outside [0, 1]"),
    ("eval curve", "--in", '[{"divergence": 0.5, "accuracy": 0.7},\n {"divergence": 0.2, '
     '"accuracy": -1, "label": "x"}]', ":2: accuracy -1 outside [0, 1]"),
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


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(enabled, small_dataset, tmp_path):
    """Each subcommand runs with the cyclic collector paused; afterwards
    the caller's state is back, on success and on exit 2."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(["split", "length", "--in", str(small_dataset),
                    "--out", str(tmp_path / "s.json")]) == 0
        assert gc.isenabled() is enabled
        assert run(["split", "length", "--in", str(tmp_path / "missing.jsonl"),
                    "--out", str(tmp_path / "s.json")]) == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _pipeline_argvs(examples, d):
    """argv of dbca analyze, prep cgps-prefix and eval score on examples,
    with their inputs written to the directory d."""
    ds, split, pred = d / "ds.jsonl", d / "split.json", d / "pred.jsonl"
    data.save_dataset(examples, ds)
    splits.save_split(splits.build_random_split(examples, 1, 0.8), split)
    data.save_predictions([data.PredictionRecord(ex.id, ex.output, r)
                           for r in range(3) for ex in examples], pred)
    return [["dbca", "analyze", "--in", str(ds), "--split", str(split),
             "--out", str(d / "div.json")],
            ["prep", "cgps-prefix", "--in", str(ds), "--token-map", "scan",
             "--out", str(d / "prefixed.jsonl")],
            ["eval", "score", "--gold", str(ds), "--pred", str(pred),
             "--out", str(d / "score.json")]]


def test_subcommands_leave_no_data_proportional_cycles(scan_dataset, tmp_path):
    """Pausing the collector is safe only while a subcommand's garbage
    holds no reference cycles that grow with its input: the cycles left
    behind (argparse's parser) must not depend on the data size."""
    small, large = tmp_path / "small", tmp_path / "large"
    small.mkdir()
    large.mkdir()
    sized = [_pipeline_argvs(scan_dataset[:50], small),
             _pipeline_argvs(scan_dataset[::20], large)]
    was = gc.isenabled()
    gc.disable()
    try:
        found = []
        for argvs in [sized[0]] + sized:  # the first pass warms up imports
            counts = []
            for argv in argvs:
                gc.collect()
                assert run(argv) == 0
                counts.append(gc.collect())
            found.append(counts)
    finally:
        if was:
            gc.enable()
    assert found[1] == found[2]
