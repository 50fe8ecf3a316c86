import hashlib
import json

import pytest

from compgen import data, scan
from compgen.cli import run


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
    report = json.loads((tmp_path / "mcd.json.divergence.json").read_text())
    assert report["atom_divergence"] <= 0.05
    analyzed = tmp_path / "report.json"
    assert run(["dbca", "analyze", "--in", str(small_dataset),
                "--split", str(out), "--out", str(analyzed)]) == 0
    measured = json.loads(analyzed.read_text())
    assert abs(measured["compound_divergence"]
               - report["compound_divergence"]) < 1e-9


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
