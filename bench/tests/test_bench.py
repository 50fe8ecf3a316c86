"""Tests of the benchmark's own code: generators, span arithmetic, checks.

    python3 -m pytest bench/tests -q
"""

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from compgen import data, evaluation, sparql  # noqa: E402


# Generators ---------------------------------------------------------------

def test_scan_oracle_is_the_canonical_dataset():
    from compgen import scan

    got = [(ex.id, ex.input, ex.output) for ex in gen.scan_oracle()]
    want = [(ex.id, ex.input, ex.output) for ex in scan.enumerate_dataset()]
    assert got == want


def test_generators_are_deterministic_per_seed():
    test = [ex for ex in gen.scan_oracle() if len(ex.output) > gen.LENGTH_THRESHOLD][:300]
    assert gen.scan_predictions(test, 3, 2) == gen.scan_predictions(test, 3, 2)
    assert gen.scan_predictions(test, 3, 2) != gen.scan_predictions(test, 4, 2)
    assert gen.cfq_queries(3, 200) == gen.cfq_queries(3, 200)
    assert gen.cfq_queries(3, 200) != gen.cfq_queries(4, 200)
    queries = gen.cfq_queries(3, 200)
    for level in gen.LEVELS:
        irs = [gen.ir_text(q, level) for q in queries]
        assert gen.ir_predictions(queries, irs, 3, level) == \
            gen.ir_predictions(queries, irs, 3, level)
    assert gen.expected_splits(gen.scan_oracle(), 3) == gen.expected_splits(gen.scan_oracle(), 3)


def test_cfq_queries_have_the_stated_shape():
    queries = gen.cfq_queries(5, 2000)
    assert all(2 <= len(q.triples) <= 14 for q in queries)
    assert {q.form for q in queries} == set(gen.FORMS)
    filtered = sum(bool(q.constraints) for q in queries) / len(queries)
    assert 0.25 < filtered < 0.35


def test_ir_ground_truth_agrees_with_the_program():
    queries = gen.cfq_queries(6, 400)
    golds = [data.Example(q.id, q.input_tokens(), tuple(q.text().split())) for q in queries]
    for level in gen.LEVELS:
        irs = [gen.ir_text(q, level) for q in queries]
        for q, ir in zip(queries, irs):
            assert sparql.serialize_ir(sparql.ir_encode(sparql.parse_sparql(q.text()), level)) == ir
        for (qid, text, ok), gold in zip(gen.ir_predictions(queries, irs, 6, level), golds):
            try:
                decoded = sparql.serialize_sparql(sparql.ir_decode(text, level)).split()
            except sparql.IrDecodeError:
                decoded = None
            got = decoded is not None and evaluation.score_run(
                [data.PredictionRecord(qid, tuple(decoded))], [gold], clause_set=True) == 1.0
            assert got == ok, (level, text)


# Span arithmetic ------------------------------------------------------------

def _spans(rows):
    """rows: (name, start, end, parent index)."""
    names = sorted({r[0] for r in rows})
    return tracing.Spans(names, [names.index(r[0]) for r in rows], [r[1] for r in rows],
                         [r[2] for r in rows], [r[3] for r in rows], {})


def test_self_time_subtracts_direct_children_only():
    spans = _spans([("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                    ("b", 5.0, 9.0, 0), ("c", 6.0, 7.0, 2), ("root", 11.0, 12.0, -1)])
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert tracing.roots(spans) == [0, 0, 0, 0, 4]
    summary = tracing.summarize(spans)
    assert summary["all"]["root"] == (2, 11.0, 4.0)
    assert summary["by_root"]["root"]["c"] == (1, 1.0, 1.0)


def test_tracer_wraps_functions_and_from_imports():
    lower = types.ModuleType("pkg.lower")
    upper = types.ModuleType("pkg.upper")
    exec("def leaf(n):\n    return n if n <= 0 else leaf(n - 1)\n"
         "def _private():\n    return 1\n", lower.__dict__)
    lower.leaf.__module__ = lower._private.__module__ = "pkg.lower"
    upper.leaf = lower.leaf  # as `from .lower import leaf` binds it
    exec("def top():\n    return leaf(3) + leaf(0)\n", upper.__dict__)
    upper.top.__module__ = "pkg.upper"
    top = upper.top

    tracer = tracing.Tracer()
    tracer.install([lower, upper])
    assert upper.top() == 0 and lower._private() == 1
    spans = tracer.take()
    tracer.uninstall()
    names = [spans.names[n] for n in spans.name]
    # The recursion inside leaf stays in one span; _private is not traced.
    assert names == ["upper.top", "lower.leaf", "lower.leaf"]
    assert list(spans.parent) == [-1, 0, 0]
    assert upper.top is top and upper.leaf is lower.leaf


def test_stage_medians_sum_the_median_of_each_stage():
    samples = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 4.0}, {"a": 5.0}]
    assert workloads.stage_medians(samples) == 3.0 + 2.5
    assert workloads.stage_medians([]) == 0


# Checks ---------------------------------------------------------------------

def test_generated_dataset_check_rejects_a_wrong_hash(tmp_path):
    path = tmp_path / "scan.jsonl"
    path.write_bytes(b"x" * checks.SCAN_JSONL_BYTES)
    assert checks.check_generated(path)


def test_text_split_and_prefix_checks_reject_one_change(tmp_path):
    examples = gen.scan_oracle()[:50]
    text = "".join(" ".join(ex.output) + "\n" for ex in examples)
    (tmp_path / "a.txt").write_text(text)
    assert checks.check_text("interpret", tmp_path / "a.txt", text) == []
    (tmp_path / "a.txt").write_text(text.replace("JUMP", "WALK", 1))
    assert checks.check_text("interpret", tmp_path / "a.txt", text)

    train, test = [ex.id for ex in examples[:40]], [ex.id for ex in examples[40:]]
    (tmp_path / "s.json").write_text(json.dumps({"train": train, "test": test}))
    assert checks.check_split("k", tmp_path / "s.json", train, test) == []
    (tmp_path / "s.json").write_text(json.dumps({"train": train[1:], "test": test + train[:1]}))
    assert checks.check_split("k", tmp_path / "s.json", train, test)

    inputs = [ex.input for ex in examples]
    rows = [{"id": ex.id, "input": list(ex.input)} for ex in examples]
    (tmp_path / "p.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert checks.check_prefixed(tmp_path / "p.jsonl", inputs) == []
    rows[7]["input"] = ["<p0>"] + rows[7]["input"]
    (tmp_path / "p.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert checks.check_prefixed(tmp_path / "p.jsonl", inputs)


def test_divergence_check_rejects_a_moved_value(tmp_path):
    atom, comp = checks.PINNED_DIVERGENCE["length"]
    obj = {"train_size": 3, "test_size": 2, "atom_divergence": atom, "compound_divergence": comp}
    (tmp_path / "d.json").write_text(json.dumps(obj))
    assert checks.check_divergence("length", tmp_path / "d.json", 3, 2, (atom, comp)) == []
    obj["compound_divergence"] = comp + 1e-6
    (tmp_path / "d.json").write_text(json.dumps(obj))
    assert checks.check_divergence("length", tmp_path / "d.json", 3, 2, (atom, comp))


def test_score_checks_catch_one_flipped_prediction(tmp_path):
    test = [ex for ex in gen.scan_oracle() if len(ex.output) > gen.LENGTH_THRESHOLD]
    train = [ex for ex in gen.scan_oracle() if len(ex.output) <= gen.LENGTH_THRESHOLD]
    preds = gen.scan_predictions(test, 1, 2)
    golds = [data.Example(ex.id, ex.input, ex.output) for ex in test]
    records = [data.PredictionRecord(i, p, r) for i, p, r, _ in preds]
    expected = [sum(ok for _, _, r, ok in preds if r == rep) / len(test) for rep in range(2)]

    def score_file(recs):
        accs = evaluation.score_replicas(recs, golds)
        (tmp_path / "score.json").write_text(json.dumps(
            {"replica_accuracies": list(accs.values()), "mean": sum(accs.values()) / 2}))
        return tmp_path / "score.json"

    assert checks.check_score(score_file(records), expected) == []
    flip = next(k for k, (_, _, r, ok) in enumerate(preds) if r == 0 and ok)
    doctored = list(records)
    doctored[flip] = data.PredictionRecord(records[flip].example_id, ("JUMP",), 0)
    assert checks.check_score(score_file(doctored), expected)

    def breakdown_csv(recs):
        lines = ["low,high,train_count,test_count,accuracy,unseen_length"] + [
            f"{b.low},{b.high},{b.train_count},{b.test_count},"
            f"{'' if b.accuracy is None else format(b.accuracy, 'g')},{int(b.unseen_length)}"
            for b in evaluation.length_breakdown(recs[:len(test)], golds, train, 5)]
        (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
        return tmp_path / "b.csv"

    rows = workloads._breakdown(test, train, {i for i, _, r, ok in preds if r == 0 and ok}, 5)
    assert checks.check_breakdown(breakdown_csv(records), rows) == []
    assert checks.check_breakdown(breakdown_csv(doctored), rows)


def test_mcd_check():
    ids = [str(i) for i in range(10)]
    ok = dict(atom_divergence=0.019, compound_divergence=0.0605, target=0.06,
              atom_bound=0.02, tolerance=0.001)
    assert checks.check_mcd(ids, ids[:8], ids[8:], **ok) == []
    assert checks.check_mcd(ids, ids[:8], ids[7:], **ok)
    assert checks.check_mcd(ids, ids[:7], ids[8:], **ok)
    assert checks.check_mcd(ids, ids[:8], ids[8:], **(ok | {"atom_divergence": 0.021}))
    assert checks.check_mcd(ids, ids[:8], ids[8:], **(ok | {"compound_divergence": 0.0589}))


def test_encoder_and_accuracy_checks():
    queries = gen.cfq_queries(2, 50)
    for level in gen.LEVELS:
        ref = [gen.ir_text(q, level) for q in queries]
        assert checks.check_encoded(level, ref, ref) == []
        q = queries[0]
        dropped = gen.ir_write(q, gen.ir_groups(q.triples[1:], level), level)
        assert checks.check_encoded(level, [dropped] + ref[1:], ref)
        assert checks.check_encoded(level, ref[1:], ref)
    assert checks.check_accuracy("f1", {0: 0.5}, 0.5) == []
    assert checks.check_accuracy("f1", {0: 0.5 - 1 / 20000}, 0.5)


def test_cfq_workload_catches_a_flipped_prediction(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CFQ_QUERIES", 300)
    wl = workloads.CfqIr(tmp_path, 9, tracing.Tracer())
    wl.setup()
    out = wl.op(0, 1)
    assert all(not found for _, found in wl.check(0, out))
    path = tmp_path / "cfq_pred_f2.jsonl"
    lines = path.read_text().splitlines()
    gold = {q.id: gen.ir_text(q, "f2") for q in wl.queries}
    rows = [json.loads(line) for line in lines]
    k = next(k for k, row in enumerate(rows) if " ".join(row["prediction"]) == gold[row["id"]])
    rows[k]["prediction"] = rows[k]["prediction"][:-1]  # a correct prediction truncated
    lines[k] = json.dumps(rows[k])
    path.write_text("\n".join(lines) + "\n")
    found = dict(wl.check(0, wl.op(0, 1)))
    assert found["ir score f2"] and not found["ir score f1"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_compgen_from_outside_the_checkout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cfq_ir", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
