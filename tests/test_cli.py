import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compgen import cli, data, dbca, evaluation, scan, splits
from compgen.cli import build_parser, run
from test_scan import SCAN_TOKEN_MAP


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


@pytest.mark.parametrize("commands,argv,side", [
    (3, ["primitive", "--primitive", "look"], "test"),
    (3, ["subcommand", "--phrase", "walk twice"], "test"),
    (3, ["template", "--template", "$Primitive around right"], "test"),
    (2, ["primitive", "--primitive", "jump"], "train"),
])
def test_one_sided_split_exits_2_and_writes_nothing(commands, argv, side, tmp_path,
                                                    scan_dataset, capsys):
    # Of `jump`, `jump twice` and `jump thrice` (the last `commands` of
    # them), nothing matches a look, walk or around rule, and jump's bare
    # command, which train keeps, is not among the last two.
    by_input = {" ".join(ex.input): ex for ex in scan_dataset}
    dataset = tmp_path / "jump.jsonl"
    data.save_dataset([by_input[c] for c in ("jump", "jump twice", "jump thrice")[-commands:]],
                      dataset)
    out = tmp_path / "split.json"
    assert run(["split", *argv, "--in", str(dataset), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"compgen: error: {argv[0]}_holdout split leaves no {side} examples\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jump.jsonl"]


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


@pytest.mark.parametrize("global_length", [[], ["--global-length"]])
def test_builtin_token_map_writes_what_the_literal_map_writes(global_length, scan_dataset,
                                                              tmp_path):
    # Commands paired with the actions of other commands, so that most
    # examples get a prefix and each map's reach shows in the bytes.
    pairs = zip(scan_dataset[::97], scan_dataset[40::97])
    infile = tmp_path / "mixed.tsv"
    infile.write_text("".join(f"{' '.join(a.input)}\t{' '.join(b.output)}\n" for a, b in pairs))
    literal = tmp_path / "scan_map.json"
    literal.write_text(json.dumps(SCAN_TOKEN_MAP))
    outputs = {}
    for token_map in ("scan", str(literal)):
        out = tmp_path / f"prefixed_{len(outputs)}.jsonl"
        assert run(["prep", "cgps-prefix", "--in", str(infile), "--token-map", token_map,
                    "--out", str(out)] + global_length) == 0
        outputs[token_map] = out.read_bytes()
    assert outputs["scan"] == outputs[str(literal)]
    assert any(ex.input[0] == "<p0>" for ex in data.load_dataset(tmp_path / "prefixed_0.jsonl"))


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
    # The keys after split and accuracies are AggregateStat's fields, which
    # `eval report` reads back.
    stat_keys = [f.name for f in dataclasses.fields(evaluation.AggregateStat)]
    assert list(report) == ["split", "replica_accuracies", *stat_keys]
    assert list(cli._CELL) == stat_keys


def test_eval_score_relaxes_braces_to_the_oov_token(tmp_path):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "1", "input": ["q"],
                                "output": ["SELECT", "{", "?x0", "}"]}) + "\n")
    unk, oov = tmp_path / "unk.jsonl", tmp_path / "oov.jsonl"
    for path, token in ((unk, "<unk>"), (oov, "OOV")):
        path.write_text(json.dumps({"id": "1", "prediction": ["SELECT", token, "?x0", token]})
                        + "\n")

    def mean(pred, *flags):
        out = tmp_path / "score.json"
        assert run(["eval", "score", "--gold", str(gold), "--pred", str(pred), *flags,
                    "--out", str(out)]) == 0
        return json.loads(out.read_text())["mean"]

    assert mean(unk) == 0.0
    assert mean(unk, "--relax-braces") == 1.0
    assert mean(oov, "--relax-braces") == 0.0
    assert mean(unk, "--relax-braces", "--oov-token", "OOV") == 0.0
    assert mean(oov, "--relax-braces", "--oov-token", "OOV") == 1.0
    assert mean(oov, "--oov-token", "OOV") == 0.0


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


@pytest.mark.parametrize("option,value,message", [
    ("--max-atom-div", "nan", "max atom divergence must be in [0, 1], got nan"),
    ("--max-atom-div", "-0.1", "max atom divergence must be in [0, 1], got -0.1"),
    ("--max-atom-div", "1.5", "max atom divergence must be in [0, 1], got 1.5"),
    ("--iterations", "-1", "iterations must be >= 0, got -1"),
    ("--target", "nan", "target compound divergence must be in [0, 1]"),
    ("--target", "1.5", "target compound divergence must be in [0, 1]"),
    # The ends of the ranges pass the check: bound 0 fails only in the search.
    ("--max-atom-div", "0", "could not reach atom divergence <= 0.0 (got 0.0003)"),
    ("--max-atom-div", "1.0", None),
    ("--iterations", "0", None),
])
def test_split_mcd_target_bound_and_patience_ranges(option, value, message, tmp_path,
                                                    small_dataset, capsys):
    out = tmp_path / "mcd.json"
    code = run(["split", "mcd", "--in", str(small_dataset), "--out", str(out),
                "--iterations", "10", option, value])
    if message is None:
        assert code == 0
        assert json.loads(out.read_text())["spec"]["kind"] == "mcd"
    else:
        assert code == 2
        assert capsys.readouterr().err == f"compgen: error: {message}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["dbca analyze", "split mcd", "prep twice"])
def test_an_error_about_a_loaded_example_names_its_file(case, tmp_path, capsys):
    tsv = tmp_path / "d.tsv"
    tsv.write_text("jump\tJUMP\nwalk twice\tWALK WALK\nrun left\tRTURN RUN\n")
    split, out = tmp_path / "split.json", tmp_path / "out.jsonl"
    assert run(["split", "random", "--in", str(tsv), "--out", str(split)]) == 0
    first = tmp_path / "prefixed.jsonl"
    assert run(["prep", "cgps-prefix", "--in", str(tsv), "--identity", "--out", str(first)]) == 0
    capsys.readouterr()
    infile, argv, message = {
        "dbca analyze": (tsv, ["dbca", "analyze", "--split", str(split)],
                         "has no derivation trace"),
        "split mcd": (tsv, ["split", "mcd", "--iterations", "10"], "has no derivation trace"),
        "prep twice": (first, ["prep", "cgps-prefix", "--identity"], "is already prefixed"),
    }[case]
    assert run(argv + ["--in", str(infile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"compgen: error: {infile}: example '") and err.endswith(f"{message}\n")
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
    rows = [json.dumps({"id": "1", "prediction": [tok]}) for tok in ["A", "X"]]
    for name, lines in (("ax.jsonl", rows), ("xa.jsonl", rows[::-1])):
        pred = tmp_path / name
        pred.write_text("\n".join(lines) + "\n")
        assert run(["eval", "length-breakdown", "--gold", str(gold), "--pred", str(pred),
                    "--train", str(gold)]) == 2
        assert f"{pred}: multiple predictions for id '1'" in capsys.readouterr().err
    pred.write_text(json.dumps({"id": "9", "prediction": ["A"]}) + "\n")
    assert run(["eval", "score", "--gold", str(gold), "--pred", str(pred)]) == 2
    assert f"{pred}: prediction for unknown id '9'" in capsys.readouterr().err


def test_length_breakdown_of_several_replicas_names_them(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "e0", "input": ["a"], "output": ["A"]}) + "\n")
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps({"id": "e0", "prediction": ["A"], "replica": r}) + "\n"
                            for r in (0, 2, 1)))
    out = tmp_path / "lengths.csv"
    assert run(["eval", "length-breakdown", "--gold", str(gold), "--pred", str(pred),
                "--train", str(gold), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"compgen: error: {pred}: the length breakdown scores "
                                       "one replica; the predictions hold replicas 0, 1, 2\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.jsonl", "pred.jsonl"]


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
    ("--in", {"id": "a", "input": ["a"], "output": ["A"], "meta": {"x": math.nan}},
     "NaN is not JSON"),
    ("--pred", {"id": "a", "prediction": ["A"], "replica": -math.inf}, "-Infinity is not JSON"),
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


def test_manifest_hashes_an_input_as_read_when_the_run_writes_over_it(scan_dataset, tmp_path):
    path = tmp_path / "x.jsonl"
    data.save_dataset(scan_dataset[:3], path)
    read = hashlib.sha256(path.read_bytes()).hexdigest()
    assert read.startswith("a4c6")
    assert run(["prep", "cgps-prefix", "--in", str(path), "--out", str(path),
                "--identity"]) == 0
    written = hashlib.sha256(path.read_bytes()).hexdigest()
    assert written != read
    manifest = json.loads((tmp_path / "x.jsonl.manifest.json").read_text())
    assert (manifest["inputs"], manifest["outputs"]) == ({str(path): read}, {str(path): written})


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
    assert err == ("compgen: error: example 'deep' has a derivation 10000 levels deep; "
                   "a saved one may have at most 256\n")


def test_a_trace_at_the_depth_bound_round_trips_through_the_cli(monkeypatch, tmp_path, capsys):
    deep = data.DerivationTrace("leaf")
    for _ in range(data.MAX_SAVED_DEPTH - 1):
        deep = data.DerivationTrace("unary", (deep,))
    example = data.Example("deep", ("x",), ("X",), deep)
    monkeypatch.setattr(scan, "enumerate_dataset", lambda: [example])
    saved, prefixed = tmp_path / "d.jsonl", tmp_path / "p.jsonl"
    assert run(["scan", "generate", "--out", str(saved)]) == 0
    assert run(["prep", "cgps-prefix", "--in", str(saved), "--identity",
                "--out", str(prefixed)]) == 0
    assert data.load_dataset(saved) == [example]
    (loaded,) = data.load_dataset(prefixed)
    assert loaded.input == ("<p0>", "x") and loaded.derivation == deep
    deeper = data.Example("deeper", ("x",), ("X",), data.DerivationTrace("unary", (deep,)))
    monkeypatch.setattr(scan, "enumerate_dataset", lambda: [deeper])
    assert run(["scan", "generate", "--out", str(tmp_path / "e.jsonl")]) == 2
    assert capsys.readouterr().err == (
        f"compgen: error: example 'deeper' has a derivation {data.MAX_SAVED_DEPTH + 1} "
        f"levels deep; a saved one may have at most {data.MAX_SAVED_DEPTH}\n")
    assert not (tmp_path / "e.jsonl").exists()


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
    ("eval report", "--in", '{"A": {\n "s": {"mean": 0.5, "variance": Infinity, '
     '"variance_kind": "stdev", "n_replicas": 2}}}', ":2: 'variance' must be a number"),
    ("eval curve", "--in", '[{"divergence": 0.5, "accuracy": 0.1},\n {"divergence": NaN, '
     '"accuracy": 0.5}]', ":2: 'divergence' must be a number"),
    ("dbca analyze", "--split", '{"spec":\n {"kind": "random", "train_fraction": -Infinity},'
     ' "train": ["a"], "test": ["b"]}', ":2: 'train_fraction' must be a number or null"),
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


def test_eval_report_refuses_a_nan_cell(tmp_path, capsys):
    # A NaN mean printed as nan, and max() of its column, which took the
    # NaN that came first, left the other model's 50.0 without bold.
    cell = {"variance": 0.0, "variance_kind": "stdev", "n_replicas": 1}
    infile, out = tmp_path / "results.json", tmp_path / "table.md"
    infile.write_text(json.dumps({"A": {"s": {"mean": math.nan, **cell}},
                                  "B": {"s": {"mean": 0.5, **cell}}}, indent=1))
    assert run(["eval", "report", "--in", str(infile), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"compgen: error: {infile}:3: 'mean' must be a number\n"
    assert not out.exists()
    infile.write_text(json.dumps({"A": {"s": {"mean": 0.25, **cell}},
                                  "B": {"s": {"mean": 0.5, **cell}}}))
    assert run(["eval", "report", "--in", str(infile), "--out", str(out)]) == 0
    assert "| A | 25.0 |\n| B | **50.0** |" in out.read_text()


@pytest.mark.parametrize("train,test,side", [
    ([], ["a", "b", "c", "d", "e"], "train"), (["a", "b"], [], "test"), ([], [], "train")])
def test_dbca_analyze_refuses_a_one_sided_split(train, test, side, cli_inputs, tmp_path,
                                               capsys):
    split, out = tmp_path / "split.json", tmp_path / "out.json"
    split.write_text('{"spec": {"kind": "released"},\n'
                     f' "train": {json.dumps(train)},\n "test": {json.dumps(test)}\n}}\n')
    assert run(["dbca", "analyze", "--in", cli_inputs["dataset"], "--split", str(split),
                "--out", str(out)]) == 2
    line = 2 if side == "train" else 3
    assert capsys.readouterr().err == (
        f"compgen: error: {split}:{line}: released split leaves no {side} examples\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["split.json"]


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


def _strict_json(path):
    """The value of a JSON file, refusing the NaN and Infinity that
    json.dumps writes for non-finite floats but JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


def _stage(*argv):
    """Whether cli.run(argv) exits 0; the only other outcome allowed is
    exit 2 with one `compgen: error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(list(argv))
    message = err.getvalue()
    assert (code, message) == (0, "") or (
        code == 2 and message.startswith("compgen: error: ") and message.count("\n") == 1), (
        argv, code, message)
    return code == 0


# A float option's value, where None leaves the option out: inside (0, 1),
# or one of the ends or values out of range.  Alphas and targets out of
# range have tests of their own.
_INSIDE = st.none() | st.floats(0.01, 0.99)
_FLOAT = _INSIDE | st.sampled_from([0.0, 1.0, -0.1, 1.5, math.nan, math.inf, -math.inf])
_SPLIT_OPTIONS = {  # split kind -> strategy of its options
    "random": st.fixed_dictionaries({"seed": st.integers(0, 9), "train-fraction": _FLOAT}),
    "primitive": st.fixed_dictionaries(
        {"primitive": st.sampled_from(scan.HOLDOUT_PRIMITIVES + ("turn", "dax"))}),
    "subcommand": st.fixed_dictionaries({"phrase": st.sampled_from(
        ["jump", "walk twice", "turn left", "look around right", "run and", ""])}),
    "template": st.fixed_dictionaries({"template": st.sampled_from(
        ["$Primitive around right", "$Primitive twice", "$Primitive", "turn $Primitive",
         "$Primitive and $Primitive", "around right"])}),
    "length": st.fixed_dictionaries({"max-length": st.integers(-1, 40)}),
    "mcd": st.fixed_dictionaries({
        "seed": st.integers(0, 9), "train-fraction": _FLOAT, "target": _INSIDE,
        "max-atom-div": _FLOAT, "iterations": st.integers(-1, 60),
        "atom-alpha": _INSIDE, "compound-alpha": _INSIDE}),
}


# Options that pass every check, with a NaN atom bound for split mcd: the
# search then accepts no swap and writes NaN, which is not JSON, unless
# build_mcd_split refuses the bound.
_NAN_BOUND = {"random": {"seed": 0, "train-fraction": None}, "primitive": {"primitive": "jump"},
              "subcommand": {"phrase": "walk twice"},
              "template": {"template": "$Primitive around right"}, "length": {"max-length": 22},
              "mcd": {"seed": 0, "train-fraction": None, "target": None, "max-atom-div": math.nan,
                      "iterations": 20, "atom-alpha": None, "compound-alpha": None}}


@settings(max_examples=25, deadline=None)
@example(indices=list(range(0, 20910, 105)), options=_NAN_BOUND, alphas=(0.5, 0.1),
         prep_flags=set(), variance="stdev", bucket_width=5, axis="output")
@given(indices=st.lists(st.integers(0, 20909), min_size=1, max_size=200, unique=True),
       options=st.fixed_dictionaries(_SPLIT_OPTIONS),
       alphas=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
       prep_flags=st.sets(st.sampled_from(["--identity", "--global-length"])),
       variance=st.sampled_from(evaluation.VARIANCE_KINDS),
       bucket_width=st.integers(1, 10), axis=st.sampled_from(evaluation.LENGTH_AXES))
def test_each_stage_accepts_what_the_stage_before_writes(
        scan_dataset, indices, options, alphas, prep_flags, variance, bucket_width, axis):
    # Every split kind of a random SCAN subset with random options.  Each
    # split written must hold examples on both sides; it then goes through
    # dbca analyze, and its test side through prep cgps-prefix, eval score
    # and eval length-breakdown.  Every JSON file written must be strict JSON.
    examples = [scan_dataset[i] for i in indices]
    by_id = {ex.id: ex for ex in examples}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        dataset = work / "data.jsonl"
        data.save_dataset(examples, dataset)
        for kind, values in options.items():
            split = work / f"split_{kind}.json"
            argv = [f"--{k}={v}" for k, v in values.items() if v is not None]
            if not _stage("split", kind, "--in", str(dataset), "--out", str(split), *argv):
                continue
            ids = _strict_json(split)
            assert _stage("dbca", "analyze", "--in", str(dataset), "--split", str(split),
                          f"--atom-alpha={alphas[0]}", f"--compound-alpha={alphas[1]}",
                          "--out", str(work / f"dbca_{kind}.json"))
            assert ids["train"] and ids["test"], (kind, argv)
            train, test, prefixed, pred = (work / f"{kind}_{name}.jsonl" for name in
                                           ("train", "test", "prefixed", "pred"))
            data.save_dataset([by_id[i] for i in ids["train"]], train)
            data.save_dataset([by_id[i] for i in ids["test"]], test)
            assert _stage("prep", "cgps-prefix", "--in", str(test), "--token-map", "scan",
                          *sorted(prep_flags), "--out", str(prefixed))
            # Every other prediction is its gold's actions reversed.
            data.save_predictions([data.PredictionRecord(ex.id, ex.output if k % 2 else
                                                         ex.output[::-1])
                                   for k, ex in enumerate(data.load_dataset(prefixed))], pred)
            assert _stage("eval", "score", "--gold", str(prefixed), "--pred", str(pred),
                          "--variance", variance, "--out", str(work / f"score_{kind}.json"))
            assert _stage("eval", "length-breakdown", "--gold", str(prefixed),
                          "--pred", str(pred), "--train", str(train),
                          "--bucket-width", str(bucket_width), "--axis", axis,
                          "--out", str(work / f"breakdown_{kind}.csv"))
        for path in work.glob("*.json"):
            _strict_json(path)
