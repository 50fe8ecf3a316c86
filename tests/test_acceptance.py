"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The MCD criterion runs the greedy splitter twice on the full
dataset and takes a few minutes.
"""

import math
import random
import time

import pytest

from compgen import data, dbca, evaluation, scan, sparql, splits
from compgen.data import PredictionRecord
from oracle_dbca import divergence
from oracle_scan import rewrite
from test_sparql_ir import PAPER_CLAUSES, PAPER_F1, PAPER_F2, random_query


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_scan_semantics():
    ast = scan.parse_command("turn left twice and jump")
    start = time.perf_counter()
    actions = scan.interpret(ast)
    elapsed = time.perf_counter() - start
    assert " ".join(actions) == "LTURN LTURN JUMP"
    assert elapsed < 0.001
    _ok(1, "interpret('turn left twice and jump') == LTURN LTURN JUMP "
           f"in {elapsed * 1e6:.0f}us")


def test_criterion_2_oracle_equivalence(scan_dataset):
    start = time.perf_counter()
    mismatches = sum(1 for ex in scan_dataset if rewrite(ex.input) != ex.output)
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60
    _ok(2, f"term-rewriting oracle matches interpret() on all "
           f"{len(scan_dataset)} commands in {elapsed:.1f}s")


def test_criterion_3_split_correctness(scan_dataset):
    by_id = {ex.id: ex for ex in scan_dataset}

    result = splits.build_primitive_holdout(scan_dataset, "jump")
    violations = 0
    for i in result.train_ids:
        inp = by_id[i].input
        if "jump" in inp and inp != ("jump",):
            violations += 1
    for i in result.test_ids:
        inp = by_id[i].input
        if "jump" not in inp or inp == ("jump",):
            violations += 1
    assert violations == 0

    phrase = ("jump", "around", "right")
    result = splits.build_subcommand_holdout(scan_dataset, "jump around right")
    contains = lambda t: any(t[i:i + 3] == phrase for i in range(len(t) - 2))
    assert all(contains(by_id[i].input) for i in result.test_ids)
    assert not any(contains(by_id[i].input) for i in result.train_ids)

    result = splits.build_template_holdout(scan_dataset, "$Primitive around right")
    phrases = [(p, "around", "right") for p in scan.PRIMITIVES]
    matches = lambda t: any(
        t[i:i + 3] == ph for ph in phrases for i in range(len(t) - 2))
    assert all(matches(by_id[i].input) for i in result.test_ids)
    assert not any(matches(by_id[i].input) for i in result.train_ids)
    _ok(3, "primitive/subcommand/template holdouts partition correctly "
           "(exhaustive scan, zero violations)")


def test_criterion_4_divergence_math():
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randint(1, 10)
        weights = [rng.uniform(0.01, 1.0) for _ in range(n)]
        total = sum(weights)
        p = {f"k{i}": w / total for i, w in enumerate(weights)}
        q = {f"j{i}": v for i, (_, v) in enumerate(p.items())}
        alpha = rng.uniform(0.05, 0.95)
        assert divergence(p, p, alpha) <= 1e-12
        assert divergence(p, q, alpha) == 1.0
    hand = divergence({"a": 1.0}, {"a": 0.5, "b": 0.5}, 0.5)
    assert abs(hand - (1 - math.sqrt(0.5))) < 1e-9
    _ok(4, "divergence(P,P)=0 and disjoint=1 for 1000 random distributions; "
           "1-sqrt(0.5) case within 1e-9")


@pytest.fixture(scope="module")
def mcd_runs(scan_dataset):
    kwargs = dict(seed=1, max_atom_divergence=0.02, iterations=4000,
                  max_proposals=250000)
    start = time.perf_counter()
    first = dbca.build_mcd_split(scan_dataset, **kwargs)
    second = dbca.build_mcd_split(scan_dataset, **kwargs)
    elapsed = time.perf_counter() - start
    return first, second, elapsed


def test_criterion_5_mcd_construction(scan_dataset, mcd_runs):
    (result, report), (result2, report2), elapsed = mcd_runs
    rand = splits.build_random_split(scan_dataset, seed=1, train_fraction=0.8)
    by_id = {ex.id: ex for ex in scan_dataset}
    rand_report = dbca.measure([by_id[i] for i in rand.train_ids],
                               [by_id[i] for i in rand.test_ids])
    assert report.atom_divergence <= 0.02
    assert report.compound_divergence >= 3 * rand_report.compound_divergence
    assert elapsed < 600
    assert result.train_ids == result2.train_ids
    assert result.test_ids == result2.test_ids
    _ok(5, f"MCD split: atom div {report.atom_divergence:.4f} <= 0.02, "
           f"compound div {report.compound_divergence:.3f} >= 3x random "
           f"({rand_report.compound_divergence:.4f}); deterministic; "
           f"two runs in {elapsed:.0f}s")


def test_criterion_6_ir_worked_example():
    query = sparql.parse_sparql(PAPER_CLAUSES)
    f1 = sparql.serialize_ir(sparql.ir_encode(query, "f1"))
    f2 = sparql.serialize_ir(sparql.ir_encode(query, "f2"))
    assert f1 == PAPER_F1
    assert f2 == PAPER_F2
    for level, text in (("f1", f1), ("f2", f2)):
        decoded = sparql.ir_decode(text, level)
        assert set(decoded.triples) == set(query.triples)
        assert len(decoded.triples) == 4
    _ok(6, "worked-example f1/f2 strings reproduced byte-for-byte and "
           "decoded back to the original 4 triples")


def test_criterion_7_ir_round_trip():
    rng = random.Random(7)
    queries = [random_query(rng) for _ in range(10000)]
    for level in sparql.IR_LEVELS:
        for q in queries:
            text = sparql.serialize_ir(sparql.ir_encode(q, level))
            assert sparql.clause_set_equal(sparql.ir_decode(text, level), q)
    for q in queries[:2000]:
        triples = list(q.triples)
        rng.shuffle(triples)
        permuted = sparql.SparqlQuery(q.form, q.header, tuple(triples),
                                      q.constraints)
        assert (sparql.serialize_ir(sparql.ir_encode(permuted, "f3"))
                == sparql.serialize_ir(sparql.ir_encode(q, "f3")))
    _ok(7, "10000 random clause sets round trip at f1/f2/f3; "
           "f3 invariant under clause permutation")


def test_criterion_8_evaluation_protocol():
    rng = random.Random(8)
    false_accepts = 0
    for _ in range(1000):
        gold = []
        for _ in range(rng.randint(3, 12)):
            gold.append(rng.choice(["SELECT", "?x0", "M0", "a", "{", "}"]))
        non_brace = [i for i, t in enumerate(gold) if t not in ("{", "}")]
        if not non_brace:
            continue
        pred = list(gold)
        pred[rng.choice(non_brace)] = "<unk>"
        if evaluation.exact_match(pred, gold, relax_oov_braces=True):
            false_accepts += 1
    assert false_accepts == 0
    # OOV at brace positions is accepted
    gold = ["SELECT", "{", "?x0", "}"]
    assert evaluation.exact_match(["SELECT", "<unk>", "?x0", "<unk>"], gold,
                                  relax_oov_braces=True)
    agg = evaluation.aggregate_replicas([0.42] * 5, "ci95")
    assert agg.variance_value == 0.0
    table = evaluation.render_results_table({
        "A": {"s1": evaluation.AggregateStat(98.8, 1.4, "stdev", 5),
              "s2": None},
        "B": {"s1": evaluation.AggregateStat(98.5, 0.2, "stdev", 5),
              "s2": evaluation.AggregateStat(10.0, 0.1, "stdev", 5)},
    })
    assert "| - |" in table
    assert "**98.8 ± 1.4**" in table and "**98.5 ± 0.2**" in table
    assert "**10.0" in table
    _ok(8, "brace relaxation has zero false accepts over 1000 mutations; "
           "constant-replica CI is zero-width; table conventions hold")


def test_criterion_9_end_to_end_copy_model(scan_dataset, mcd_runs):
    by_id = {ex.id: ex for ex in scan_dataset}
    (mcd_result, _), _, _ = mcd_runs
    split_results = [
        splits.build_random_split(scan_dataset, 0, 0.8),
        splits.build_primitive_holdout(scan_dataset, "jump"),
        splits.build_subcommand_holdout(scan_dataset, "jump around right"),
        splits.build_template_holdout(scan_dataset, "$Primitive around right"),
        splits.build_length_split(scan_dataset, 22),
        mcd_result,
    ]
    for result in split_results:
        golds = [by_id[i] for i in result.test_ids]
        preds = [PredictionRecord(ex.id, ex.output) for ex in golds]
        assert evaluation.score_run(preds, golds) == 1.0

    rng = random.Random(9)
    queries = [random_query(rng) for _ in range(300)]
    for level in sparql.IR_LEVELS:
        golds = {}
        preds = []
        for i, q in enumerate(queries):
            gold_tokens = tuple(sparql.serialize_sparql(q).split())
            golds[str(i)] = gold_tokens
            # the copy model: gold passed through encode -> decode
            ir_text = sparql.serialize_ir(sparql.ir_encode(q, level))
            decoded = sparql.ir_decode(ir_text, level)
            preds.append(PredictionRecord(
                str(i), tuple(sparql.serialize_sparql(decoded).split())))
        assert evaluation.score_run(preds, golds, clause_set=True) == 1.0
    _ok(9, "copy model scores 1.0 on every split and IR level")
