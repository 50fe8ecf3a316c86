import gc

import pytest

from compgen import data, scan
from compgen.data import DerivationTrace as T
from oracle_scan import rewrite


# The SCAN token map and holdout primitives as literals, written out before
# scan read them from its leaf rules: the oracle of the derived tables.
SCAN_TOKEN_MAP = {
    "jump": ("JUMP",),
    "walk": ("WALK",),
    "run": ("RUN",),
    "look": ("LOOK",),
    "left": ("LTURN",),
    "right": ("RTURN",),
    "turn": ("LTURN", "RTURN"),
}
HOLDOUT_PRIMITIVES = ("jump", "walk", "run", "look", "turn left", "turn right")


def test_tables_read_from_the_leaf_rules():
    assert scan.TOKEN_MAP == SCAN_TOKEN_MAP
    assert scan.HOLDOUT_PRIMITIVES == HOLDOUT_PRIMITIVES


def actions(command):
    return " ".join(scan.interpret(scan.parse_command(command)))


def test_single_primitive():
    tree = scan.parse_command("jump")
    assert tree == T(scan.ROOT_RULE, (T("prim_jump"),))
    assert actions("jump") == "JUMP"


def test_repeat_and_conjunction_shape(scan_dataset):
    root = scan.parse_command("jump twice and walk")
    (tree,) = root.children
    assert tree.rule == "and"
    assert tree.children[0] == T("twice", (T("prim_jump"),))
    assert tree.children[1] == T("prim_walk")
    (ex,) = [ex for ex in scan_dataset if ex.derivation == root]
    assert ex.input == ("jump", "twice", "and", "walk")


def test_paper_example():
    assert actions("turn left twice and jump") == "LTURN LTURN JUMP"


@pytest.mark.parametrize("command,expected", [
    ("walk after run", "RUN WALK"),
    ("jump around right", "RTURN JUMP RTURN JUMP RTURN JUMP RTURN JUMP"),
    ("turn around left", "LTURN LTURN LTURN LTURN"),
    ("jump opposite left", "LTURN LTURN JUMP"),
    ("turn opposite right", "RTURN RTURN"),
    ("look thrice", "LOOK LOOK LOOK"),
    ("run left", "LTURN RUN"),
])
def test_semantics(command, expected):
    assert actions(command) == expected
    assert " ".join(rewrite(command)) == expected


# command -> index of the first token no grammatical command can continue
# (the token count when the input ends early)
PARSE_ERRORS = {
    "jump and": 2,
    "and jump": 0,
    "turn": 1,
    "jump twice twice": 2,
    "jump blah": 1,
    "jump around": 2,
    "jump left right": 2,
    "jump and walk after run": 3,
    "": 0,
}


@pytest.mark.parametrize("command", list(PARSE_ERRORS))
def test_parse_errors(command):
    with pytest.raises(scan.ScanParseError) as err:
        scan.parse_command(command)
    assert err.value.position == PARSE_ERRORS[command]


def test_parse_error_position():
    with pytest.raises(scan.ScanParseError) as err:
        scan.parse_command("jump frobnicate")
    assert err.value.position == 1


def test_enumeration_count_and_consistency():
    dataset = scan.enumerate_dataset()
    # Golden: matches the published corpus size.
    assert len(dataset) == 20910
    assert len({ex.id for ex in dataset}) == len(dataset)
    # Equal action sequences are one tuple.
    assert len({id(ex.output) for ex in dataset}) == len({ex.output for ex in dataset}) == 9228
    # The recursive interpreter is the reference for the composed actions.
    for ex in dataset:
        ast = scan.parse_command(ex.input)
        assert ast == ex.derivation
        assert scan.interpret(ast) == ex.output


def test_enumeration_deterministic():
    a = scan.enumerate_dataset()
    b = scan.enumerate_dataset()
    assert [ex.id for ex in a] == [ex.id for ex in b]


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_restores_the_collector_and_leaves_no_cycles(enabled):
    """Enumeration runs with the cyclic collector paused, which is safe
    only because the examples hold no reference cycles."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        gc.collect()
        dataset = scan.enumerate_dataset()
        assert gc.isenabled() is enabled
        del dataset
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


def test_no_nested_conjunction(scan_dataset):
    for ex in scan_dataset:
        (command,) = ex.derivation.children
        for child in command.children:
            for node in [child, *child.children]:
                assert node.rule not in ("and", "after")


def test_every_command_parses_back(scan_dataset):
    # An example's input is the surface of its derivation.
    for ex in scan_dataset:
        assert scan.parse_command(ex.input) == ex.derivation


def test_trace_replay(scan_dataset, tmp_path):
    commands = ["jump", "turn around left thrice after walk right",
                "look opposite right twice and run"]
    by_input = {ex.input: ex for ex in scan_dataset}
    examples = [by_input[tuple(command.split())] for command in commands]
    path = tmp_path / "d.jsonl"
    data.save_dataset(examples, path)
    for command, ex, loaded in zip(commands, examples, data.load_dataset(path)):
        trace = scan.parse_command(command)
        assert ex.derivation == trace  # the surface of trace is command
        assert loaded.derivation == trace
        assert trace.rule == scan.ROOT_RULE


def test_oracle_equivalence_sample():
    for ex in scan.enumerate_dataset()[::53]:
        assert rewrite(ex.input) == ex.output
