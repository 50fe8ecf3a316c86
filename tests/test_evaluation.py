import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compgen import evaluation, sparql
from compgen.data import Example, PredictionRecord


def ex(id_, inp, out):
    return Example(id_, tuple(inp.split()), tuple(out.split()))


def test_exact_match_basic():
    assert evaluation.exact_match(["A", "B"], ["A", "B"])
    assert not evaluation.exact_match(["A"], ["A", "B"])
    assert not evaluation.exact_match(["A", "C"], ["A", "B"])


def test_brace_relaxation_positions():
    gold = "SELECT { ?x0 }".split()
    ok = "SELECT <unk> ?x0 <unk>".split()
    assert evaluation.exact_match(ok, gold, relax_oov_braces=True)
    assert not evaluation.exact_match(ok, gold)
    wrong = "SELECT { <unk> }".split()
    assert not evaluation.exact_match(wrong, gold, relax_oov_braces=True)


def test_custom_oov_token():
    gold = ["{", "a", "}"]
    pred = ["OOV", "a", "OOV"]
    assert evaluation.exact_match(pred, gold, relax_oov_braces=True,
                                  oov_token="OOV")
    assert not evaluation.exact_match(pred, gold, relax_oov_braces=True)


@given(st.lists(st.sampled_from(["a", "b", "{", "}"]), min_size=1, max_size=10),
       st.lists(st.sampled_from(["a", "b", "{", "}", "<unk>"]), min_size=1,
                max_size=10))
def test_relaxation_only_adds_matches(gold, pred):
    if evaluation.exact_match(pred, gold):
        assert evaluation.exact_match(pred, gold, relax_oov_braces=True)


def test_score_run_fractions():
    golds = [ex("1", "a", "A"), ex("2", "b", "B"), ex("3", "c", "C"),
             ex("4", "d", "D")]
    preds = [PredictionRecord("1", ("A",)), PredictionRecord("2", ("B",)),
             PredictionRecord("3", ("C",)), PredictionRecord("4", ("X",))]
    assert evaluation.score_run(preds, golds) == 0.75
    assert evaluation.score_run(preds[:2], golds) == 0.5  # missing count wrong
    assert evaluation.score_run([], golds) == 0.0


def test_score_run_permutation_invariant():
    golds = [ex(str(i), "a", "A") for i in range(10)]
    preds = [PredictionRecord(str(i), ("A",) if i % 2 else ("B",))
             for i in range(10)]
    shuffled = list(preds)
    random.Random(0).shuffle(shuffled)
    assert evaluation.score_run(preds, golds) == evaluation.score_run(shuffled, golds)


def test_score_run_unknown_id():
    with pytest.raises(evaluation.EvalError):
        evaluation.score_run([PredictionRecord("zzz", ("A",))],
                             [ex("1", "a", "A")])


def test_score_replicas():
    golds = [ex("1", "a", "A"), ex("2", "b", "B")]
    preds = [PredictionRecord("1", ("A",), 0), PredictionRecord("2", ("B",), 0),
             PredictionRecord("1", ("A",), 1), PredictionRecord("2", ("X",), 1)]
    assert evaluation.score_replicas(preds, golds) == {0: 1.0, 1: 0.5}


def test_clause_set_scoring():
    gold = "M0 a M1 . M2 b M3".split()
    pred = "M2 b M3 . M0 a M1".split()
    golds = {"1": gold}
    assert evaluation.score_run([PredictionRecord("1", tuple(pred))], golds,
                                clause_set=True) == 1.0
    assert evaluation.score_run([PredictionRecord("1", tuple(pred))], golds) == 0.0
    broken = PredictionRecord("1", ("M0", "a"))
    assert evaluation.score_run([broken], golds, clause_set=True) == 0.0
    # The projected terms are part of the query.
    golds = {"1": "SELECT DISTINCT ?x0 WHERE { ?x0 a M1 . ?x1 b M2 }".split()}
    for pred, score in (("SELECT DISTINCT ?x0 WHERE { ?x1 b M2 . ?x0 a M1 }", 1.0),
                        ("SELECT DISTINCT ?x1 WHERE { ?x0 a M1 . ?x1 b M2 }", 0.0)):
        assert evaluation.score_run([PredictionRecord("1", tuple(pred.split()))], golds,
                                    clause_set=True) == score


def test_clause_set_replicas_parse_each_gold_once(monkeypatch):
    query = "SELECT DISTINCT ?x0 WHERE {{ ?x0 a M{0} . ?x0 b M{1} }}"
    swapped = "SELECT DISTINCT ?x0 WHERE {{ ?x0 b M{1} . ?x0 a M{0} }}"
    golds = {str(i): query.format(i, i + 1).split() for i in range(4)}
    golds["bad"] = "SELECT WHERE {".split()  # matches nothing: it does not parse
    preds = [PredictionRecord("bad", ("SELECT",), 0)]
    for rep in range(5):  # clauses swapped, or a prediction that does not parse
        preds += [PredictionRecord(i, tuple(swapped.format(int(i), int(i) + 1).split()
                                            if rep == 0 or (rep + int(i)) % 3 else ("SELECT",)), rep)
                  for i in golds if i != "bad"]
    expected = {rep: evaluation.score_run([p for p in preds if p.replica == rep], golds,
                                          clause_set=True) for rep in range(5)}
    assert expected == {0: 0.8, 1: 0.6, 2: 0.6, 3: 0.4, 4: 0.6}
    parsed = []

    def parse_sparql(text):
        parsed.append(text)
        return sparql.parse_sparql(text)
    monkeypatch.setattr(evaluation, "parse_sparql", parse_sparql)
    assert evaluation.score_replicas(preds, golds, clause_set=True) == expected
    gold_texts = [" ".join(gold) for gold in golds.values()]
    assert sorted(t for t in parsed if t in gold_texts) == sorted(gold_texts)


def test_aggregate_constant_replicas():
    agg = evaluation.aggregate_replicas([0.5, 0.5, 0.5], "ci95")
    assert agg.mean == 0.5 and agg.variance == 0.0


def test_aggregate_stdev_hand_value():
    agg = evaluation.aggregate_replicas([0.0, 1.0], "stdev")
    assert agg.mean == 0.5
    assert abs(agg.variance - 0.7071067811865476) < 1e-12


def test_aggregate_ci95_formula():
    accs = [0.2, 0.4, 0.6, 0.8]
    agg = evaluation.aggregate_replicas(accs, "ci95")
    import statistics
    assert abs(agg.variance
               - 1.96 * statistics.stdev(accs) / math.sqrt(4)) < 1e-12


def test_aggregate_single_replica_flagged():
    agg = evaluation.aggregate_replicas([0.7], "stdev")
    assert agg.n_replicas == 1 and agg.variance == 0.0 and agg.mean == 0.7


def test_aggregate_bootstrap_reasonable():
    agg = evaluation.aggregate_replicas([0.0, 1.0, 0.5, 0.5], "ci95_bootstrap",
                                        bootstrap_samples=2000, seed=1)
    assert 0.0 < agg.variance < 1.0


def test_aggregate_mean_in_hull():
    accs = [0.1, 0.9, 0.4]
    agg = evaluation.aggregate_replicas(accs)
    assert min(accs) <= agg.mean <= max(accs)


def test_aggregate_empty():
    with pytest.raises(evaluation.EvalError):
        evaluation.aggregate_replicas([])


@pytest.mark.parametrize("accs", [[0.5], [0.5, 0.7]])
def test_aggregate_unknown_kind(accs):
    with pytest.raises(evaluation.EvalError, match="unknown variance kind 'bogus'"):
        evaluation.aggregate_replicas(accs, "bogus")


def _length_fixture():
    train = [ex(f"t{i}", "a " * (i + 1), "A " * (i + 1)) for i in range(10)]
    golds = [ex("g1", "a", "A A A"), ex("g2", "b", "A A A A A A A"),
             ex("g3", "c", "A " * 30)]
    preds = [PredictionRecord("g1", ("A", "A", "A")),
             PredictionRecord("g2", ("X",)),
             PredictionRecord("g3", tuple(["A"] * 30))]
    return preds, golds, train


def test_length_breakdown_buckets():
    preds, golds, train = _length_fixture()
    buckets = evaluation.length_breakdown(preds, golds, train, bucket_width=5)
    by_low = {b.low: b for b in buckets}
    assert by_low[1].accuracy == 1.0 and by_low[1].test_count == 1
    assert by_low[6].accuracy == 0.0
    assert by_low[26].unseen_length  # beyond the max train length of 10
    assert not by_low[1].unseen_length


def test_length_breakdown_single_bucket():
    golds = [ex("g", "a", "A A A A A")]
    preds = [PredictionRecord("g", ("A",) * 5)]
    buckets = evaluation.length_breakdown(preds, golds, golds, bucket_width=5)
    assert len(buckets) == 1 and buckets[0].accuracy == 1.0


def test_length_breakdown_weighted_average_consistency():
    preds, golds, train = _length_fixture()
    buckets = evaluation.length_breakdown(preds, golds, train, bucket_width=5)
    overall = evaluation.score_run(preds, golds)
    weighted = sum(b.accuracy * b.test_count for b in buckets
                   if b.test_count) / sum(b.test_count for b in buckets)
    assert math.isclose(weighted, overall, abs_tol=1e-12)


def test_length_breakdown_clause_set():
    gold = ex("g", "q", "M0 a M1 . M2 b M3")
    pred = PredictionRecord("g", tuple("M2 b M3 . M0 a M1".split()))
    (bucket,) = evaluation.length_breakdown([pred], [gold], [gold], bucket_width=10,
                                            clause_set=True)
    assert bucket.accuracy == 1.0
    (bucket,) = evaluation.length_breakdown([pred], [gold], [gold], bucket_width=10)
    assert bucket.accuracy == 0.0


def test_length_breakdown_repeated_id():
    gold = ex("g", "a", "A")
    right, wrong = PredictionRecord("g", ("A",), 0), PredictionRecord("g", ("X",), 0)
    for preds in ([right, wrong], [wrong, right]):
        with pytest.raises(evaluation.EvalError, match="multiple predictions for id 'g'"):
            evaluation.length_breakdown(preds, [gold], [gold])


def test_length_breakdown_scores_one_replica():
    golds = [ex("g", "a", "A"), ex("h", "b", "B")]
    preds = [PredictionRecord("g", ("A",), 3), PredictionRecord("h", ("B",), 1),
             PredictionRecord("g", ("A",), 1)]
    for records in (preds, iter(preds), preds[:2]):
        with pytest.raises(evaluation.PredictionError, match="^the length breakdown scores "
                           "one replica; the predictions hold replicas 1, 3$"):
            evaluation.length_breakdown(records, golds, golds)
    (bucket,) = evaluation.length_breakdown(iter(preds[1:]), golds, golds)
    assert bucket.accuracy == 1.0


def test_divergence_curve_sorted_and_labeled():
    csv_text = evaluation.divergence_curve([
        (0.5, 0.2, "mcd"), (0.1, 0.9, "random"), (0.5, 0.3, "template")])
    lines = csv_text.strip().splitlines()
    assert lines[0] == "divergence,accuracy,label"
    assert lines[1].startswith("0.1,")
    assert len(lines) == 4  # duplicate divergences both retained


def test_divergence_curve_range_check():
    with pytest.raises(evaluation.EvalError):
        evaluation.divergence_curve([(1.5, 0.2, "x")])
    # The index is the point's position in the input, not in sorted order.
    with pytest.raises(evaluation.EvalError) as info:
        evaluation.divergence_curve([(0.9, 0.2, "a"), (-0.1, 0.2, "b"), (0.5, 0.3, "c")])
    assert info.value.index == 1
    # The accuracy is checked too.
    with pytest.raises(evaluation.EvalError, match=r"^accuracy 7 outside \[0, 1\]$") as info:
        evaluation.divergence_curve([(0.5, 7, ""), (0.2, -1, "x")])
    assert info.value.index == 0
    with pytest.raises(evaluation.EvalError, match="accuracy -1 outside") as info:
        evaluation.divergence_curve([(0.5, 0.7, ""), (0.2, -1, "x")])
    assert info.value.index == 1


def stat(mean, var=None, kind="stdev", n=5):
    return evaluation.AggregateStat(mean, var if var is not None else 0.0,
                                    kind, n)


def test_render_table_conventions():
    table = evaluation.render_results_table({
        "ModelA": {"Add jump": stat(98.8, 1.4), "Length": stat(20.3, 1.1)},
        "ModelB": {"Add jump": stat(98.5, 0.2), "Length": None},
    })
    lines = table.splitlines()
    assert lines[0] == "| Model | Add jump | Length |"
    assert "| - |" in lines[3]            # missing cell convention
    assert "**98.8 ± 1.4**" in lines[2]   # best is bold
    assert "**98.5 ± 0.2**" in lines[3]   # within 0.5 of best is bold too
    assert "stdev" in table


def test_render_table_single_cell():
    table = evaluation.render_results_table({"M": {"s": stat(50.0, 1.0)}})
    assert "| M |" in table and "**50.0 ± 1.0**" in table
