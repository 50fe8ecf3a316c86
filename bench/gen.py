"""Seeded input generators with recorded ground truth.

Everything here is written without importing compgen, so the expected value
of every check is known without calling the program under test:

* ``scan_oracle`` enumerates the SCAN grammar and interprets it directly.
* ``scan_predictions`` makes model-like SCAN predictions and records which
  ones are exact matches.
* ``cfq_queries`` makes CFQ-style SPARQL queries; ``ir_text`` writes their
  f1/f2/f3 forms; ``ir_predictions`` makes IR model outputs and records
  which ones denote the gold clause set.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

PRIMS = {"jump": "JUMP", "walk": "WALK", "run": "RUN", "look": "LOOK"}
DIRS = {"left": "LTURN", "right": "RTURN"}
ACTIONS = tuple(PRIMS.values()) + tuple(DIRS.values())
LENGTH_THRESHOLD = 22
HOLDOUT_PRIMITIVE = "jump"
HOLDOUT_TEMPLATE = "$Primitive around right"


@dataclass(frozen=True)
class ScanExample:
    id: str
    input: tuple
    output: tuple


def content_id(inp, out) -> str:
    text = " ".join(inp) + "\t" + " ".join(out)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _verb_phrases():
    """(tokens, actions) for every verb phrase, in grammar declaration order."""
    for p, act in PRIMS.items():
        yield (p,), (act,)
    for d, turn in DIRS.items():
        yield ("turn", d), (turn,)
    for p, act in PRIMS.items():
        for d, turn in DIRS.items():
            yield (p, d), (turn, act)
    for verb in tuple(PRIMS) + ("turn",):
        for d, turn in DIRS.items():
            yield (verb, "opposite", d), (turn, turn) + ((PRIMS[verb],) if verb in PRIMS else ())
    for verb in tuple(PRIMS) + ("turn",):
        for d, turn in DIRS.items():
            yield (verb, "around", d), ((turn,) + ((PRIMS[verb],) if verb in PRIMS else ())) * 4


def scan_oracle() -> list:
    """All 20,910 SCAN commands in canonical order, with their actions."""
    conjuncts = []
    for tokens, actions in _verb_phrases():
        conjuncts.append((tokens, actions))
        conjuncts.append((tokens + ("twice",), actions * 2))
        conjuncts.append((tokens + ("thrice",), actions * 3))
    pairs = list(conjuncts)
    for conj in ("and", "after"):
        for left, lact in conjuncts:
            for right, ract in conjuncts:
                acts = lact + ract if conj == "and" else ract + lact
                pairs.append((left + (conj,) + right, acts))
    return [ScanExample(content_id(i, o), i, o) for i, o in pairs]


def _contains(tokens, phrase) -> bool:
    n = len(phrase)
    return any(tokens[i:i + n] == phrase for i in range(len(tokens) - n + 1))


def expected_splits(examples, random_seed: int, train_fraction: float = 0.8) -> dict:
    """Expected (train ids, test ids) of the four holdout splits the suite builds."""
    ids = [ex.id for ex in examples]
    shuffled = list(ids)
    random.Random(random_seed).shuffle(shuffled)
    cut = int(round(train_fraction * len(shuffled)))
    out = {"random": (shuffled[:cut], shuffled[cut:])}

    def by(pred):
        return ([ex.id for ex in examples if not pred(ex)],
                [ex.id for ex in examples if pred(ex)])

    prim = (HOLDOUT_PRIMITIVE,)
    out["primitive"] = by(lambda ex: ex.input != prim and _contains(ex.input, prim))
    phrases = [tuple(p if t == "$Primitive" else t for t in HOLDOUT_TEMPLATE.split())
               for p in PRIMS]
    out["template"] = by(lambda ex: any(_contains(ex.input, ph) for ph in phrases))
    out["length"] = by(lambda ex: len(ex.output) > LENGTH_THRESHOLD)
    return out


def scan_prediction(gold: tuple, rng: random.Random, p_correct: float) -> tuple:
    """One model-like prediction: the gold sequence, or one of the errors a
    seq2seq model makes on long SCAN outputs."""
    if rng.random() < p_correct:
        return gold
    kind = rng.randrange(4)
    if kind == 0:  # stops at a length seen in training
        return gold[:rng.randint(1, min(LENGTH_THRESHOLD, len(gold) - 1))]
    i = rng.randrange(len(gold))
    if kind == 1:  # wrong action at one position
        return gold[:i] + (rng.choice([a for a in ACTIONS if a != gold[i]]),) + gold[i + 1:]
    if kind == 2:  # one action dropped
        return gold[:i] + gold[i + 1:]
    return gold[:i] + (gold[i],) + gold[i:]  # one action repeated


def scan_predictions(test_examples, seed: int, replicas: int) -> list:
    """(example id, prediction, replica, is_correct) rows; each replica has
    its own accuracy level."""
    rng = random.Random(f"scan-predictions-{seed}")
    rows = []
    for rep in range(replicas):
        p_correct = rng.uniform(0.05, 0.35)
        for ex in test_examples:
            pred = scan_prediction(ex.output, rng, p_correct)
            rows.append((ex.id, pred, rep, pred == ex.output))
    return rows


# CFQ-style SPARQL ---------------------------------------------------------

ENTITIES = tuple(f"M{i}" for i in range(10))
VARIABLES = tuple(f"?x{i}" for i in range(6))
RELATIONS = (
    "ns:film.film.directed_by", "ns:film.film.written_by",
    "ns:film.film.edited_by", "ns:film.film.produced_by",
    "ns:film.film.starring.actor", "ns:film.film.prequel",
    "ns:film.film.sequel", "ns:film.film.costume_design_by",
    "ns:film.film.cinematography", "ns:film.director.film",
    "ns:film.actor.film.film", "ns:film.producer.film",
    "ns:film.editor.film", "ns:film.writer.film",
    "ns:people.person.gender", "ns:people.person.nationality",
    "ns:people.person.spouse_s.spouse", "ns:people.person.sibling_s.sibling",
    "ns:people.person.parents", "ns:people.person.children",
    "ns:organization.organization.founders",
    "ns:business.employer.employees.person",
)
FORMS = ("select_distinct", "select_count", "ask", "bare")
LEVELS = ("f1", "f2", "f3")


@dataclass(frozen=True)
class CfqQuery:
    id: str
    form: str
    header: tuple
    triples: tuple  # ((s, r, o), ...), distinct, in clause order
    constraints: tuple  # ((token, ...), ...)

    def text(self) -> str:
        body = " . ".join([" ".join(t) for t in self.triples]
                          + [" ".join(c) for c in self.constraints])
        return body if self.form == "bare" else " ".join(self.header) + " { " + body + " }"

    def input_tokens(self) -> tuple:
        """A question-like input naming the entities of the query."""
        names = []
        for s, _, o in self.triples:
            for x in (s, o):
                if x in ENTITIES and x not in names:
                    names.append(x)
        return ("question", self.form) + tuple(names)


def cfq_query(rng: random.Random, qid: str) -> CfqQuery:
    form = rng.choice(FORMS)
    header = {"select_distinct": ("SELECT", "DISTINCT", "?x0", "WHERE"),
              "select_count": ("SELECT", "count(*)", "WHERE"),
              "ask": ("ASK", "WHERE"), "bare": ()}[form]
    n = rng.randint(2, 14)
    nodes = VARIABLES + ENTITIES
    triples = []
    while len(triples) < n:
        s = rng.choice(VARIABLES) if rng.random() < 0.7 else rng.choice(ENTITIES)
        t = (s, rng.choice(RELATIONS), rng.choice(nodes))
        if t not in triples:
            triples.append(t)
    constraints = ()
    if rng.random() < 0.3:
        var = rng.choice(sorted({s for s, _, _ in triples if s in VARIABLES} or {"?x0"}))
        constraints = (("FILTER", "(", var, "!=", rng.choice(ENTITIES), ")"),)
    return CfqQuery(qid, form, header, tuple(triples), constraints)


def cfq_queries(seed: int, n: int) -> list:
    rng = random.Random(f"cfq-queries-{seed}")
    return [cfq_query(rng, f"q{seed}-{i:06d}") for i in range(n)]


def ir_groups(triples, level: str) -> list:
    """[(subject, [(relation, [objects])])] as the IR level groups them."""
    groups: dict = {}
    if level == "f1":
        for s, r, o in triples:
            groups.setdefault(s, []).append((r, [o]))
        return list(groups.items())
    for s, r, o in triples:
        groups.setdefault(s, {}).setdefault(r, []).append(o)
    if level == "f2":
        return [(s, list(by_rel.items())) for s, by_rel in groups.items()]
    return sorted((s, sorted((r, sorted(os)) for r, os in by_rel.items()))
                  for s, by_rel in groups.items())


def ir_write(query: CfqQuery, groups, level: str) -> str:
    parts = []
    for s, entries in groups:
        if level == "f1":
            inner = " . ".join(f"{r} {o}" for r, os in entries for o in os)
        else:
            inner = " . ".join(f"{r} {{ " + " , ".join(os) + " }" for r, os in entries)
        parts.append(f"{s} {{ {inner} }}")
    body = " ".join(parts) + "".join(" . " + " ".join(c) for c in query.constraints)
    return body if query.form == "bare" else " ".join(query.header) + " { " + body + " }"


def ir_text(query: CfqQuery, level: str) -> str:
    return ir_write(query, ir_groups(query.triples, level), level)


def ir_prediction(query: CfqQuery, level: str, gold_ir: str, rng: random.Random) -> tuple:
    """(IR text, is_correct): a correct, clause-permuted, token-substituted or
    truncated model output for the query, whose IR at this level is gold_ir."""
    kind = rng.choices(("correct", "permuted", "substituted", "truncated"),
                       (0.55, 0.15, 0.15, 0.15))[0]
    if kind == "correct":
        return gold_ir, True
    if kind == "permuted":
        triples = list(query.triples)
        rng.shuffle(triples)
        return ir_write(query, ir_groups(triples, level), level), True
    if kind == "truncated":
        tokens = gold_ir.split()
        return " ".join(tokens[:rng.randrange(1, len(tokens))]), False
    groups = ir_groups(query.triples, level)
    gi = rng.randrange(len(groups))
    s, entries = groups[gi]
    ei = rng.randrange(len(entries))
    r, objs = entries[ei]
    slot = rng.randrange(3)
    if slot == 0:
        s = rng.choice([x for x in VARIABLES + ENTITIES if x != s])
    elif slot == 1:
        r = rng.choice([x for x in RELATIONS if x != r])
    else:
        oi = rng.randrange(len(objs))
        objs = objs[:oi] + [rng.choice([x for x in VARIABLES + ENTITIES
                                        if x != objs[oi]])] + objs[oi + 1:]
    entries = entries[:ei] + [(r, objs)] + entries[ei + 1:]
    groups = groups[:gi] + [(s, entries)] + groups[gi + 1:]
    predicted = {(gs, gr, o) for gs, es in groups for gr, os in es for o in os}
    # A new subject may already head another group; the text then repeats
    # that subject, and the ground truth is the clause set as written.
    return ir_write(query, groups, level), predicted == set(query.triples)


def ir_predictions(queries, gold_irs: list, seed: int, level: str) -> list:
    """(query id, IR text, is_correct) for every query at one level."""
    rng = random.Random(f"ir-predictions-{seed}-{level}")
    return [(q.id,) + ir_prediction(q, level, ir, rng) for q, ir in zip(queries, gold_irs)]
