import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgen import data, dbca, scan, splits
from oracle_dbca import divergence, nodes


def trace_of(command):
    return scan.parse_command(command)


def test_extract_atoms_single_chain():
    atoms = dbca.extract_atoms(trace_of("jump"))
    assert atoms == Counter({"root": 1, "prim_jump": 1})


def test_extract_atoms_repeat():
    atoms = dbca.extract_atoms(trace_of("jump twice"))
    assert atoms["prim_jump"] == 1 and atoms["twice"] == 1


def test_atoms_additive_over_union(scan_dataset):
    sample = scan_dataset[:40]
    total = Counter()
    for ex in sample:
        total += dbca.extract_atoms(ex.derivation)
    left = Counter()
    for ex in sample[:17]:
        left += dbca.extract_atoms(ex.derivation)
    right = Counter()
    for ex in sample[17:]:
        right += dbca.extract_atoms(ex.derivation)
    assert left + right == total


def test_extract_compounds_pairs_and_triples():
    compounds = dbca.extract_compounds(trace_of("jump twice and walk"))
    assert compounds["and(twice)"] == 1
    assert compounds["and(prim_walk)"] == 1
    assert compounds["twice(prim_jump)"] == 1
    assert compounds["and(twice,prim_walk)"] == 1


def test_compounds_local():
    a = dbca.extract_compounds(trace_of("jump around left"))
    b = dbca.extract_compounds(trace_of("jump around left"))
    assert a == b


def reference_atoms(trace):
    """extract_atoms by its recursive definition."""
    return Counter(node.rule for node in nodes(trace))


def reference_compounds(trace):
    """extract_compounds by its recursive definition."""
    compounds = Counter()
    for node in nodes(trace):
        for child in node.children:
            compounds[f"{node.rule}({child.rule})"] += 1
        if len(node.children) == 2:
            left, right = node.children
            compounds[f"{node.rule}({left.rule},{right.rule})"] += 1
    return compounds


@pytest.fixture(scope="module")
def loaded_dataset(scan_dataset, tmp_path_factory):
    """The full set after a jsonl round trip: equal subtrees are shared."""
    path = tmp_path_factory.mktemp("dbca") / "scan.jsonl"
    data.save_dataset(scan_dataset, path)
    return data.load_dataset(path)


@pytest.mark.parametrize("which", ["enumerated", "loaded"])
def test_extraction_keeps_the_recursive_key_order(scan_dataset, loaded_dataset, which):
    # _id_rows numbers keys in first-seen order, and the search's float sums
    # follow that numbering: the order matters, not only the counts.
    examples = scan_dataset if which == "enumerated" else loaded_dataset
    for ex in examples:
        assert list(dbca.extract_atoms(ex.derivation).items()) == \
            list(reference_atoms(ex.derivation).items())
        assert list(dbca.extract_compounds(ex.derivation).items()) == \
            list(reference_compounds(ex.derivation).items())
    atom_rows, compound_rows = dbca._example_rows(examples)
    assert atom_rows == dbca._id_rows(dbca.extract_atoms(ex.derivation) for ex in examples)
    assert compound_rows == dbca._id_rows(
        dbca.extract_compounds(ex.derivation) for ex in examples)


def reference_measure(train, test):
    """measure with each side summed from the reference Counters."""
    atoms, compounds = (Counter(), Counter()), (Counter(), Counter())
    for side, examples in enumerate((train, test)):
        for ex in examples:
            atoms[side].update(reference_atoms(ex.derivation))
            compounds[side].update(reference_compounds(ex.derivation))
    return dbca._report(dbca._id_rows(atoms), dbca._id_rows(compounds), [0], [1],
                        dbca.DEFAULT_ATOM_ALPHA, dbca.DEFAULT_COMPOUND_ALPHA,
                        len(train), len(test))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_measure_equals_the_reference_sums(scan_dataset, seed):
    train, test = splits.random_partition(len(scan_dataset), random.Random(seed), 0.8)
    train, test = [scan_dataset[i] for i in train], [scan_dataset[i] for i in test]
    assert dbca.measure(train, test) == reference_measure(train, test)


def chain(depth, rule="unary"):
    """A DerivationTrace of depth nodes: rule over rule over ... over a leaf."""
    node = data.DerivationTrace("leaf")
    for _ in range(depth - 1):
        node = data.DerivationTrace(rule, (node,))
    return node


def test_extraction_and_measure_of_a_deep_trace():
    deep = chain(10_000)
    assert dbca.extract_atoms(deep) == Counter({"unary": 9_999, "leaf": 1})
    assert dbca.extract_compounds(deep) == Counter({"unary(unary)": 9_998, "unary(leaf)": 1})
    examples = [data.Example(str(depth), ("x",), ("X",), chain(depth, rule))
                for depth, rule in ((10_000, "unary"), (5_000, "unary"), (3, "other"))]
    atoms = [Counter(unary=9_999, leaf=1), Counter(unary=4_999, leaf=2, other=2)]
    compounds = [Counter({"unary(unary)": 9_998, "unary(leaf)": 1}),
                 Counter({"unary(unary)": 4_998, "unary(leaf)": 1,
                          "other(other)": 1, "other(leaf)": 1})]
    expected = dbca._report(dbca._id_rows(atoms), dbca._id_rows(compounds), [0], [1],
                            dbca.DEFAULT_ATOM_ALPHA, dbca.DEFAULT_COMPOUND_ALPHA, 1, 2)
    assert dbca.measure(examples[:1], examples[1:]) == expected


def test_measure_duplication_invariant(scan_dataset):
    # Doubling every count leaves the formula unchanged; c^a and d^(1-a)
    # round differently, so the values agree to a few ulps, not bit for bit.
    train, test = scan_dataset[:10], scan_dataset[10:16]
    once, twice = dbca.measure(train, test), dbca.measure(train + train, test + test)
    assert math.isclose(twice.atom_divergence, once.atom_divergence, abs_tol=1e-12)
    assert math.isclose(twice.compound_divergence, once.compound_divergence, abs_tol=1e-12)


def test_measure_requires_trace(scan_dataset):
    from compgen.data import Example
    with pytest.raises(dbca.DbcaError):
        dbca.measure(scan_dataset[:2], [Example("x", ("a",), ("A",))])


def test_measure_empty_sides(scan_dataset):
    empty = dbca.measure([], [])
    assert (empty.atom_divergence, empty.compound_divergence) == (0.0, 0.0)
    for train, test in ((scan_dataset[:5], []), ([], scan_dataset[:5])):
        one = dbca.measure(train, test)
        assert (one.atom_divergence, one.compound_divergence) == (1.0, 1.0)


def test_divergence_hand_computed():
    p = {"a": 1.0}
    q = {"a": 0.5, "b": 0.5}
    assert abs(divergence(p, q, 0.5) - (1 - math.sqrt(0.5))) < 1e-9


def test_divergence_identity_and_disjoint():
    p = {"a": 0.25, "b": 0.75}
    assert divergence(p, p, 0.3) == 0.0
    assert divergence(p, {"c": 1.0}, 0.5) == 1.0


def test_divergence_rejects_unnormalized():
    with pytest.raises(dbca.DbcaError):
        divergence({"a": 2.0}, {"a": 1.0}, 0.5)
    with pytest.raises(dbca.DbcaError):
        divergence({"a": 1.0}, {"a": 1.0}, 1.5)


@st.composite
def distributions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=n, max_size=n))
    total = sum(weights)
    return {f"k{i}": w / total for i, w in enumerate(weights)}


@settings(max_examples=200)
@given(distributions(), st.floats(min_value=0.05, max_value=0.95))
def test_divergence_self_zero_property(dist, alpha):
    assert divergence(dist, dist, alpha) <= 1e-9


@settings(max_examples=100)
@given(distributions(), distributions(), st.floats(min_value=0.05, max_value=0.95))
def test_divergence_relabel_invariant(p, q, alpha):
    relabel = {k: f"r_{k}" for k in set(p) | set(q)}
    p2 = {relabel[k]: v for k, v in p.items()}
    q2 = {relabel[k]: v for k, v in q.items()}
    assert math.isclose(divergence(p, q, alpha), divergence(p2, q2, alpha), abs_tol=1e-12)


# dbca.measure of the SCAN holdouts, (atom, compound) divergence, as pinned
# by the benchmark's checks (bench/checks.py PINNED_DIVERGENCE).
PINNED_DIVERGENCE = [
    (lambda ds: splits.build_primitive_holdout(ds, "jump"),
     (0.09481244080073459, 0.15585297973734813)),
    (lambda ds: splits.build_template_holdout(ds, "$Primitive around right"),
     (0.05818199719396777, 0.1754722423116074)),
    (lambda ds: splits.build_length_split(ds, 22),
     (0.03897150452591358, 0.0485118000717355)),
]


@pytest.mark.parametrize("build,expected", PINNED_DIVERGENCE)
def test_measure_of_the_holdouts_is_pinned(scan_dataset, build, expected):
    result = build(scan_dataset)
    by_id = {ex.id: ex for ex in scan_dataset}
    report = dbca.measure([by_id[i] for i in result.train_ids],
                          [by_id[i] for i in result.test_ids])
    assert abs(report.atom_divergence - expected[0]) < 1e-9
    assert abs(report.compound_divergence - expected[1]) < 1e-9


def _small_sample(scan_dataset, n=400, seed=3):
    rng = random.Random(seed)
    return rng.sample(scan_dataset, n)


def test_incremental_divergence_matches_divergence(scan_dataset):
    sample = _small_sample(scan_dataset)
    rng = random.Random(11)
    order = list(range(len(sample)))
    rng.shuffle(order)
    train_idx, test_idx = order[:320], order[320:]
    for extract, alpha in ((dbca.extract_atoms, dbca.DEFAULT_ATOM_ALPHA),
                           (dbca.extract_compounds, dbca.DEFAULT_COMPOUND_ALPHA)):
        rows = dbca._id_rows(extract(ex.derivation) for ex in sample)
        state = dbca._Divergence(rows, train_idx, test_idx, alpha)
        train, test = list(train_idx), list(test_idx)
        for _ in range(300):
            ti, si = rng.randrange(len(train)), rng.randrange(len(test))
            state.propose(train[ti], test[si])
            state.commit()
            train[ti], test[si] = test[si], train[ti]
        p, q = (sum((extract(sample[i].derivation) for i in side), Counter())
                for side in (train, test))
        expected = divergence({k: v / p.total() for k, v in p.items()},
                              {k: v / q.total() for k, v in q.items()}, alpha)
        assert abs(state.value() - expected) < 1e-9


def test_incremental_proposal_leaves_state_unchanged(scan_dataset):
    sample = _small_sample(scan_dataset)
    rows = dbca._id_rows(dbca.extract_compounds(ex.derivation) for ex in sample)
    state = dbca._Divergence(rows, range(300), range(300, 400), 0.1)
    before = (list(state.train), list(state.test), state.chernoff_sum, state.value())
    state.propose(0, 399)
    assert (list(state.train), list(state.test), state.chernoff_sum,
            state.value()) == before


# The MCD split below, as computed before the search state became integer:
# sha256 of the JSON text of [train_ids, test_ids].
MCD_SAMPLE_SHA256 = "3d7d4702a4904866efd40a334bffd205cced10bbea836d4b54d0b18a7804a353"
MCD_SAMPLE_SCRIPT = """
import json, random
from compgen import dbca, scan
sample = random.Random(3).sample(scan.enumerate_dataset(), 400)
result, _ = dbca.build_mcd_split(sample, seed=5, iterations=300, max_proposals=5000)
print(json.dumps([list(result.train_ids), list(result.test_ids)]))
"""


def test_mcd_output_independent_of_hash_seed():
    src = str(Path(dbca.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", MCD_SAMPLE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == MCD_SAMPLE_SHA256


def test_mcd_deterministic(scan_dataset):
    sample = _small_sample(scan_dataset)
    a = dbca.build_mcd_split(sample, seed=5, iterations=300, max_proposals=5000)
    b = dbca.build_mcd_split(sample, seed=5, iterations=300, max_proposals=5000)
    assert a[0].train_ids == b[0].train_ids
    assert a[1] == b[1]


@pytest.mark.parametrize("seed,fraction", [(1, 0.8), (7, 0.8), (123, 0.8), (2, 0.5), (3, 0.1)])
def test_mcd_without_search_is_the_random_split(scan_dataset, seed, fraction):
    """The MCD search starts from split random's partition, by construction."""
    sample = _small_sample(scan_dataset)
    for examples in (sample, sample[:3]):
        rand = splits.build_random_split(examples, seed, fraction)
        mcd, _ = dbca.build_mcd_split(examples, seed=seed, train_fraction=fraction,
                                      iterations=0, max_atom_divergence=1.0)
        assert set(mcd.train_ids) == set(rand.train_ids)
        assert set(mcd.test_ids) == set(rand.test_ids)


def test_mcd_target_zero_stays_near_random(scan_dataset):
    sample = _small_sample(scan_dataset)
    by_id = {ex.id: ex for ex in sample}
    rand = splits.build_random_split(sample, seed=5, train_fraction=0.8)
    rand_rep = dbca.measure([by_id[i] for i in rand.train_ids],
                            [by_id[i] for i in rand.test_ids])
    _, rep = dbca.build_mcd_split(sample, target_compound_divergence=0.0,
                                  seed=5, iterations=300, max_proposals=5000)
    assert abs(rep.compound_divergence - rand_rep.compound_divergence) < 0.05


def test_mcd_increases_divergence_with_atom_bound(scan_dataset):
    sample = _small_sample(scan_dataset)
    result, rep = dbca.build_mcd_split(sample, seed=5, iterations=500,
                                       max_proposals=20000,
                                       max_atom_divergence=0.05)
    assert rep.atom_divergence <= 0.05
    assert rep.compound_divergence > 0.05
    assert set(result.train_ids).isdisjoint(result.test_ids)
    assert len(result.train_ids) + len(result.test_ids) == len(sample)


def test_mcd_local_optimality_single_swaps(scan_dataset):
    # After convergence no single train/test swap should still improve the
    # objective within the atom bound.
    sample = _small_sample(scan_dataset, n=60, seed=9)
    result, rep = dbca.build_mcd_split(
        sample, seed=2, iterations=8000, max_proposals=400000,
        max_atom_divergence=0.1)
    by_id = {ex.id: ex for ex in sample}
    train = [by_id[i] for i in result.train_ids]
    test = [by_id[i] for i in result.test_ids]
    best = rep.compound_divergence
    improvements = 0
    for i in range(len(train)):
        for j in range(len(test)):
            new_train = train[:i] + [test[j]] + train[i + 1:]
            new_test = test[:j] + [train[i]] + test[j + 1:]
            cand = dbca.measure(new_train, new_test)
            if (cand.atom_divergence <= 0.1
                    and cand.compound_divergence > best + 1e-9):
                improvements += 1
    assert improvements == 0


def test_mcd_requires_traces():
    from compgen.data import Example
    with pytest.raises(dbca.DbcaError):
        dbca.build_mcd_split([Example("x", ("a",), ("A",)),
                              Example("y", ("b",), ("B",))])
