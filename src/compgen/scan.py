"""SCAN command grammar: parsing, interpretation, and exhaustive enumeration.

Every rule is written once, in ``RULES``; ``GRAMMAR`` says which rules build
each category and fixes the canonical enumeration order.  The CGPS token map
and the holdout primitives are read from the leaf rules.  The categories are
C (command), S (conjunct), V (verb phrase), W (the verb slot under
opposite/around) and U (primitive).

A command tree is its derivation trace: a ``DerivationTrace`` whose nodes are
rule ids, under a root rule so that even a bare primitive yields one
parent-child compound.  A bare ``turn`` under opposite/around contributes no
action of its own, so ``turn around left`` is 4 x LTURN.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .data import DerivationTrace, Example, Meta, collector_paused, content_id

ROOT_RULE = "root"
SCAN_META = Meta({"source": "scan"})  # the meta of every enumerated example

# rule id -> (surface template, action template).  An integer in a template
# stands for the tokens (surface) or actions (action) of that child.
RULES = {
    "prim_jump": (("jump",), ("JUMP",)),
    "prim_walk": (("walk",), ("WALK",)),
    "prim_run": (("run",), ("RUN",)),
    "prim_look": (("look",), ("LOOK",)),
    "turn": (("turn",), ()),
    "turn_left": (("turn", "left"), ("LTURN",)),
    "turn_right": (("turn", "right"), ("RTURN",)),
    "dir_left": ((0, "left"), ("LTURN", 0)),
    "dir_right": ((0, "right"), ("RTURN", 0)),
    "opp_left": ((0, "opposite", "left"), ("LTURN", "LTURN", 0)),
    "opp_right": ((0, "opposite", "right"), ("RTURN", "RTURN", 0)),
    "around_left": ((0, "around", "left"), ("LTURN", 0) * 4),
    "around_right": ((0, "around", "right"), ("RTURN", 0) * 4),
    "twice": ((0, "twice"), (0, 0)),
    "thrice": ((0, "thrice"), (0, 0, 0)),
    "and": ((0, "and", 1), (0, 1)),
    "after": ((0, "after", 1), (1, 0)),
    ROOT_RULE: ((0,), (0,)),
}

# category -> alternatives (child categories, rule ids).  Within an
# alternative the children vary slowest, then the rule; the rule None passes
# its single child through.
GRAMMAR = {
    "U": [((), ("prim_jump", "prim_walk", "prim_run", "prim_look"))],
    "W": [(("U",), (None,)), ((), ("turn",))],
    "V": [(("U",), (None,)), ((), ("turn_left", "turn_right")),
          (("U",), ("dir_left", "dir_right")), (("W",), ("opp_left", "opp_right")),
          (("W",), ("around_left", "around_right"))],
    "S": [(("V",), (None, "twice", "thrice"))],
    "C": [(("S",), (None,)), (("S", "S"), ("and",)), (("S", "S"), ("after",))],
    ROOT_RULE: [(("C",), (ROOT_RULE,))],
}

PRIMITIVES = tuple(RULES[rule][0][0] for rule in GRAMMAR["U"][0][1])
VOCABULARY = frozenset(word for surface, _ in RULES.values()
                       for word in surface if isinstance(word, str))
# The leaf rules, (surface, actions) of each rule with no child slot in its surface.
_LEAVES = [(surface, actions) for surface, actions in RULES.values()
           if all(isinstance(word, str) for word in surface)]
# The CGPS token map: each word of a leaf rule -> every action of the leaf
# rules that contain it.
TOKEN_MAP = {word: tuple(dict.fromkeys(action for surface, actions in _LEAVES
                                       if word in surface for action in actions))
             for surface, _ in _LEAVES for word in surface}
# The phrases a primitive holdout may hold out: each leaf that writes an action.
HOLDOUT_PRIMITIVES = tuple(" ".join(surface) for surface, actions in _LEAVES if actions)


class ScanParseError(ValueError):
    """Raised when a token sequence is not a grammatical SCAN command."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token {position})")
        self.position = position


def _fill(template, parts) -> tuple:
    """The template, each integer i replaced by parts[i]; (0,) is parts[0] itself."""
    if template == (0,):
        return parts[0]
    out = []
    for item in template:
        if isinstance(item, int):
            out.extend(parts[item])
        else:
            out.append(item)
    return tuple(out)


def interpret(tree: DerivationTrace) -> tuple[str, ...]:
    """Map a command tree to its action token sequence."""
    return _fill(RULES[tree.rule][1], [interpret(c) for c in tree.children])


def _derive(category: str) -> Iterator[tuple]:
    """Each derivation of category in canonical order, as (tree, surface,
    actions): each sequence is filled once, from its children's."""
    for child_categories, rules in GRAMMAR[category]:
        # One child category is read as it is made: product would list it first.
        products = (zip(_derive(*child_categories)) if len(child_categories) == 1
                    else itertools.product(*map(_derive, child_categories)))
        for children in products:
            trees, surfaces, actions = zip(*children) if children else ((), (), ())
            for rule in rules:
                yield children[0] if rule is None else (
                    DerivationTrace(rule, trees), _fill(RULES[rule][0], surfaces),
                    _fill(RULES[rule][1], actions))


# A command is one conjunct, or two joined by a conjunction word.
_CONJUNCTS = {surface: tree for tree, surface, _ in _derive("S")}
_CONJUNCT_PREFIXES = {key[:n] for key in _CONJUNCTS for n in range(1, len(key) + 1)}
_JOINS = {RULES[rule][0][1]: rule
          for child_categories, rules in GRAMMAR["C"] if len(child_categories) == 2
          for rule in rules}


def parse_command(tokens: Sequence[str] | str) -> DerivationTrace:
    """Parse a SCAN command; raises ScanParseError for malformed input."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    tokens = tuple(tokens)
    for i, word in enumerate(tokens):
        if word in _JOINS:
            left, right = _CONJUNCTS.get(tokens[:i]), _CONJUNCTS.get(tokens[i + 1:])
            if left is not None and right is not None:
                return DerivationTrace(ROOT_RULE, (DerivationTrace(_JOINS[word], (left, right)),))
            break
    else:
        tree = _CONJUNCTS.get(tokens)
        if tree is not None:
            return DerivationTrace(ROOT_RULE, (tree,))
    raise _parse_error(tokens)


def _parse_error(tokens: tuple[str, ...]) -> ScanParseError:
    """Error at the first token that no grammatical command can continue,
    or at the token count if the input ends early."""
    start, joined = 0, False
    for i, word in enumerate(tokens):
        if tokens[start:i + 1] in _CONJUNCT_PREFIXES:
            continue
        if word in _JOINS and not joined and tokens[start:i] in _CONJUNCTS:
            start, joined = i + 1, True
            continue
        what = "unexpected word" if word in VOCABULARY else "unknown word"
        return ScanParseError(f"{what} {word!r}", i)
    return ScanParseError("unexpected end of input" if tokens else "empty command",
                          len(tokens))


@collector_paused()
def enumerate_dataset() -> list[Example]:
    """Exhaustively instantiate the grammar into Examples with traces, with
    the cyclic collector paused: the examples are acyclic.  Equal action
    sequences (9,228 distinct of 20,910) are one tuple, and every example
    has the one SCAN_META, to save memory."""
    outputs = {}
    return [Example(id=content_id(inp, out), input=inp, output=outputs.setdefault(out, out),
                    derivation=tree, meta=SCAN_META)
            for tree, inp, out in _derive(ROOT_RULE)]
