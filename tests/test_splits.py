import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgen import splits


def by_input(dataset):
    return {" ".join(ex.input): ex.id for ex in dataset}


def test_random_split_sizes_and_determinism(scan_dataset):
    a = splits.build_random_split(scan_dataset, seed=7, train_fraction=0.8)
    b = splits.build_random_split(scan_dataset, seed=7, train_fraction=0.8)
    assert len(a.train_ids) == round(0.8 * len(scan_dataset))
    assert a.train_ids == b.train_ids and a.test_ids == b.test_ids
    assert set(a.train_ids).isdisjoint(a.test_ids)
    c = splits.build_random_split(scan_dataset, seed=8, train_fraction=0.8)
    assert c.train_ids != a.train_ids


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_random_split_bad_fraction(scan_dataset, fraction):
    with pytest.raises(splits.SplitError):
        splits.build_random_split(scan_dataset, 0, fraction)


def test_random_split_empty_dataset():
    with pytest.raises(splits.SplitError):
        splits.build_random_split([], 0, 0.8)


def test_random_split_of_one_example(scan_dataset):
    with pytest.raises(splits.SplitError, match="at least two examples"):
        splits.build_random_split(scan_dataset[:1], 0, 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("fraction", [0.1, 0.9])
def test_random_split_of_few_examples_has_two_sides(scan_dataset, n, fraction):
    for seed in range(5):
        result = splits.build_random_split(scan_dataset[:n], seed, fraction)
        assert result.train_ids and result.test_ids
        assert sorted(result.train_ids + result.test_ids) == sorted(
            ex.id for ex in scan_dataset[:n])


def test_random_partition_cuts_the_shuffled_indices():
    rng = random.Random(4)
    order = list(range(10))
    random.Random(4).shuffle(order)
    assert splits.random_partition(10, rng, 0.75) == (order[:8], order[8:])


def test_primitive_holdout_jump(scan_dataset):
    result = splits.build_primitive_holdout(scan_dataset, "jump")
    ids = by_input(scan_dataset)
    train, test = set(result.train_ids), set(result.test_ids)
    assert ids["jump"] in train
    assert ids["jump twice"] in test
    assert ids["walk twice"] in train
    by_id = {ex.id: ex for ex in scan_dataset}
    assert all("jump" in by_id[i].input for i in test)
    assert all("jump" not in by_id[i].input or by_id[i].input == ("jump",)
               for i in train)


def test_primitive_holdout_turn_left(scan_dataset):
    result = splits.build_primitive_holdout(scan_dataset, "turn left")
    ids = by_input(scan_dataset)
    train, test = set(result.train_ids), set(result.test_ids)
    assert ids["turn left"] in train
    assert ids["turn left twice"] in test
    # 'turn opposite left' uses a different rule, not the turn-left primitive
    assert ids["turn opposite left"] in train


def test_primitive_holdout_unknown(scan_dataset):
    with pytest.raises(splits.SplitError):
        splits.build_primitive_holdout(scan_dataset, "sprint")


def test_subcommand_holdout(scan_dataset):
    result = splits.build_subcommand_holdout(scan_dataset, "jump around right")
    ids = by_input(scan_dataset)
    train, test = set(result.train_ids), set(result.test_ids)
    assert ids["jump around right twice"] in test
    assert ids["walk around right"] in train
    assert ids["jump around left"] in train


def test_subcommand_holdout_ungrammatical(scan_dataset):
    with pytest.raises(splits.SplitError):
        splits.build_subcommand_holdout(scan_dataset, "around jump right")


@pytest.mark.parametrize("template", [
    "$Primitive around right", "$Primitive opposite right", "$Primitive right"])
def test_template_holdout_nonempty(scan_dataset, template):
    result = splits.build_template_holdout(scan_dataset, template)
    assert result.test_ids and result.train_ids


def test_template_holdout_membership(scan_dataset):
    result = splits.build_template_holdout(scan_dataset, "$Primitive around right")
    ids = by_input(scan_dataset)
    test = set(result.test_ids)
    assert ids["jump around right"] in test
    assert ids["walk around right"] in test
    assert ids["turn around right"] not in test
    assert ids["jump around left"] not in test


def test_template_holdout_sizes(scan_dataset):
    result = splits.build_template_holdout(scan_dataset, "$Primitive around right")
    assert (len(result.train_ids), len(result.test_ids)) == (16290, 4620)
    # The sizes README gives, as an unconfirmed recollection, for the split of
    # Loula et al. 2018 (arXiv:1807.07545): every command with "turn left" dropped.
    kept = [ex for ex in scan_dataset if not window_contains(ex.input, [("turn", "left")])]
    result = splits.build_template_holdout(kept, "$Primitive around right")
    assert (len(result.train_ids), len(result.test_ids)) == (15225, 4476)


def window_contains(tokens, phrases):
    return any(tuple(tokens[i:i + len(p)]) == p for p in phrases
               for i in range(len(tokens) - len(p) + 1))


# Tokens as a jsonl list may hold spaces or be empty; phrases come from split().
_TOKEN = st.sampled_from(["jump", "around", "right", "", "jump around", "right ", " "])
_PHRASE = st.lists(st.sampled_from(["jump", "around", "right"]), min_size=1, max_size=3)


@settings(max_examples=300)
@given(st.lists(_TOKEN, max_size=6), st.lists(_PHRASE, min_size=1, max_size=3))
def test_phrase_matching_is_window_matching(tokens, phrases):
    phrases = [tuple(p) for p in phrases]
    assert splits._contains_any(phrases)(tuple(tokens)) == window_contains(tokens, phrases)


def test_template_holdout_malformed(scan_dataset):
    with pytest.raises(splits.SplitError):
        splits.build_template_holdout(scan_dataset, "around right")
    with pytest.raises(splits.SplitError):
        splits.build_template_holdout(scan_dataset, "$Primitive $Primitive")


def test_length_split(scan_dataset):
    result = splits.build_length_split(scan_dataset, 22)
    by_id = {ex.id: ex for ex in scan_dataset}
    assert all(len(by_id[i].output) <= 22 for i in result.train_ids)
    assert all(len(by_id[i].output) > 22 for i in result.test_ids)


def test_length_split_degenerate(scan_dataset):
    max_len = max(len(ex.output) for ex in scan_dataset)
    with pytest.raises(splits.SplitError, match="^length split leaves no test examples$"):
        splits.build_length_split(scan_dataset, max_len)
    long_only = [ex for ex in scan_dataset if len(ex.output) > 5]
    with pytest.raises(splits.SplitError, match="^length split leaves no train examples$"):
        splits.build_length_split(long_only, 5)
    with pytest.raises(splits.SplitError):
        splits.build_length_split(scan_dataset, 0)


@pytest.mark.parametrize("train,test,side", [
    ([], ["a"], "train"), (["a"], [], "test"), ([], [], "train")])
def test_split_result_refuses_an_empty_side(train, test, side):
    with pytest.raises(splits.SplitError, match=f"^mcd split leaves no {side} examples$"):
        splits.split_result(splits.SplitSpec("mcd"), train, test, divergence={})


@pytest.mark.parametrize("build", [
    lambda ds: splits.build_primitive_holdout(ds, "jump"),
    lambda ds: splits.build_subcommand_holdout(ds, "jump around right"),
    lambda ds: splits.build_template_holdout(ds, "$Primitive around right"),
    lambda ds: splits.build_length_split(ds, 22),
])
def test_partition_and_fairness(scan_dataset, build):
    result = build(scan_dataset)
    train, test = set(result.train_ids), set(result.test_ids)
    assert train.isdisjoint(test)
    assert train | test == {ex.id for ex in scan_dataset}
    # fairness floor: every test-side input token occurs somewhere in train
    assert result.stats["test_vocab_missing_from_train"] == []


# Split sizes published by Lake & Baroni 2018 (arXiv:1711.00350); the
# "turn left" train size is the rest of the 20,910 commands.
@pytest.mark.parametrize("build,sizes", [
    (lambda ds: splits.build_primitive_holdout(ds, "jump"), (13204, 7706)),
    (lambda ds: splits.build_primitive_holdout(ds, "turn left"), (19702, 1208)),
    (lambda ds: splits.build_length_split(ds, 22), (16990, 3920)),
])
def test_published_split_sizes(scan_dataset, build, sizes):
    result = build(scan_dataset)
    assert (len(result.train_ids), len(result.test_ids)) == sizes


def test_split_json_roundtrip(tmp_path, scan_dataset):
    result = splits.build_subcommand_holdout(scan_dataset, "jump around right")
    path = tmp_path / "split.json"
    splits.save_split(result, path)
    loaded = splits.load_split(path)
    assert loaded.train_ids == result.train_ids
    assert loaded.test_ids == result.test_ids
    assert loaded.spec == result.spec
