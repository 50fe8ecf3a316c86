import pytest

from compgen import scan
from compgen.data import DerivationTrace as T
from oracle_scan import rewrite


def actions(command):
    return " ".join(scan.interpret(scan.parse_command(command)))


def test_single_primitive():
    tree = scan.parse_command("jump")
    assert tree == T(scan.ROOT_RULE, (T("prim_jump"),))
    assert actions("jump") == "JUMP"


def test_repeat_and_conjunction_shape():
    (tree,) = scan.parse_command("jump twice and walk").children
    assert tree.rule == "and"
    assert tree.children[0] == T("twice", (T("prim_jump"),))
    assert tree.children[1] == T("prim_walk")
    assert scan.serialize(tree) == "jump twice and walk"


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
    for ex in dataset[::97]:
        ast = scan.parse_command(ex.input)
        assert ast == ex.derivation
        assert scan.interpret(ast) == ex.output
        assert tuple(scan.serialize(ast).split()) == ex.input


def test_enumeration_deterministic():
    a = scan.enumerate_dataset()
    b = scan.enumerate_dataset()
    assert [ex.id for ex in a] == [ex.id for ex in b]


def test_no_nested_conjunction():
    for tree in scan.iter_commands():
        (command,) = tree.children
        for child in command.children:
            for node in [child, *child.children]:
                assert node.rule not in ("and", "after")


def test_every_command_parses_back():
    for tree in scan.iter_commands():
        assert scan.parse_command(scan.serialize(tree)) == tree


def test_trace_replay():
    for command in ["jump", "turn around left thrice after walk right",
                    "look opposite right twice and run"]:
        trace = scan.parse_command(command)
        assert T.from_jsonable(trace.to_jsonable()) == trace
        assert scan.serialize(trace) == command
        assert trace.rule == scan.ROOT_RULE


def test_oracle_equivalence_sample():
    for ex in scan.enumerate_dataset()[::53]:
        assert rewrite(ex.input) == ex.output
