import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compgen import sparql

PAPER_CLAUSES = "M0 directed M2 . M1 directed M2 . M0 directed M3 . M1 directed M3"
PAPER_F1 = "M0 { directed M2 . directed M3 } M1 { directed M2 . directed M3 }"
PAPER_F2 = "M0 { directed { M2 , M3 } } M1 { directed { M2 , M3 } }"


def encode_text(text, level):
    return sparql.serialize_ir(sparql.ir_encode(sparql.parse_sparql(text), level))


def test_parse_bare_body():
    q = sparql.parse_sparql(PAPER_CLAUSES)
    assert q.form == "bare"
    assert len(q.triples) == 4
    assert q.triples[0] == ("M0", "directed", "M2")


def test_parse_full_query_forms():
    q = sparql.parse_sparql(
        "SELECT DISTINCT ?x0 WHERE { ?x0 ns:film.director.film M0 }")
    assert q.form == "select_distinct"
    q = sparql.parse_sparql("SELECT count(*) WHERE { M0 ns:a.b M1 }")
    assert q.form == "select_count"
    q = sparql.parse_sparql("ASK WHERE { M0 ns:a.b M1 }")
    assert q.form == "ask"
    q = sparql.parse_sparql("select distinct ?x0 M1 where { ?x0 a M1 }")
    assert (q.form, q.header) == ("select_distinct", ("select", "distinct", "?x0", "M1", "where"))
    assert sparql.parse_sparql("Select Count(*) Where { M0 a M1 }").form == "select_count"
    assert sparql.parse_sparql("ask where { M0 a M1 }").form == "ask"


@pytest.mark.parametrize("header", [
    "SELECT DISTINCT } , . WHERE",   # IR punctuation as projected terms
    "SELECT DISTINCT WHERE",         # no projected term
    "SELECT DISTINCT ?x0 distinct WHERE",
    "SELECT ?x0 WHERE",
    "SELECT count(*) ?x0 WHERE",
    "ASK ?x0 WHERE",
    "SELECT COUNT WHERE",
])
def test_header_outside_the_grammar_is_rejected(header):
    with pytest.raises(sparql.SparqlParseError):
        sparql.parse_sparql(f"{header} {{ M0 a M1 }}")
    with pytest.raises(sparql.IrDecodeError):
        sparql.ir_decode(f"{header} {{ M0 {{ a {{ M1 }} }} }}", "f2")


def test_parse_drops_duplicate_triples():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = sparql.parse_sparql("M0 a M1 . M0 a M1 . M0 b M1")
    assert q.triples == (("M0", "a", "M1"), ("M0", "b", "M1"))


def test_parse_errors():
    with pytest.raises(sparql.SparqlParseError):
        sparql.parse_sparql("SELECT DISTINCT ?x0 WHERE { }")
    with pytest.raises(sparql.SparqlParseError):
        sparql.parse_sparql("M0 a M1 extra . M0 b M1")
    with pytest.raises(sparql.SparqlParseError):
        sparql.parse_sparql("INSERT WHERE { M0 a M1 }")
    with pytest.raises(sparql.SparqlParseError):
        sparql.parse_sparql("")


def test_constraints_preserved():
    q = sparql.parse_sparql("?x0 a M0 . FILTER ( ?x0 != M1 ) . ?x0 b M1")
    assert q.constraints == (("FILTER", "(", "?x0", "!=", "M1", ")"),)
    assert len(q.triples) == 2


def test_worked_example_f1_f2():
    assert encode_text(PAPER_CLAUSES, "f1") == PAPER_F1
    assert encode_text(PAPER_CLAUSES, "f2") == PAPER_F2


def test_worked_example_inverts():
    gold = sparql.parse_sparql(PAPER_CLAUSES)
    for level, text in [("f1", PAPER_F1), ("f2", PAPER_F2)]:
        assert sparql.clause_set_equal(sparql.ir_decode(text, level), gold)


def test_single_clause_degenerate():
    assert encode_text("s r o", "f2") == "s { r { o } }"
    assert encode_text("s r o", "f3") == "s { r { o } }"
    assert encode_text("s r o", "f1") == "s { r o }"


@pytest.mark.parametrize("bad", [
    "M0 { directed { M2 }",
    "M0 { directed }",
    "M0 directed M2 }",
    "M0 { }",
    "{ directed M2 }",
])
def test_decode_errors(bad):
    with pytest.raises(sparql.IrDecodeError):
        sparql.ir_decode(bad, "f2")


def test_decode_accepts_only_filter_after_groups():
    with pytest.raises(sparql.IrDecodeError):
        sparql.ir_decode("M0 { a M1 } . ?x0 a M2", "f1")
    for bad in ("FILTER ( M0 , M1 )", "FILTER } M0", "filter {"):
        with pytest.raises(sparql.IrDecodeError):
            sparql.ir_decode(f"M0 {{ a M1 }} . {bad}", "f2")
    # A group whose subject is FILTER would re-parse as a constraint.
    for bad in ("FILTER { a b }", "M0 { a M1 } filter { a { b } }"):
        with pytest.raises(sparql.IrDecodeError):
            sparql.ir_decode(bad, "f2")
    decoded = sparql.ir_decode("M0 { a M1 } . FILTER ( M0 != M1 )", "f1")
    assert decoded.constraints == (("FILTER", "(", "M0", "!=", "M1", ")"),)


IR_VOCAB = ["{", "}", ".", ",", "FILTER", "filter", "(", ")", "!=", "SELECT",
            "ASK", "WHERE", "DISTINCT", "count(*)", "M0", "M1", "?x0", "a",
            "directed"]


@st.composite
def ir_token_sequences(draw):
    """Token lists near the encoder's image: the IR of a random query with a
    few tokens replaced, inserted or deleted, or an arbitrary list."""
    level = draw(st.sampled_from(sparql.IR_LEVELS))
    if draw(st.booleans()):
        return level, draw(st.lists(st.sampled_from(IR_VOCAB), min_size=1, max_size=16))
    query = random_query(random.Random(draw(st.integers(0, 2 ** 16))))
    tokens = sparql.serialize_ir(sparql.ir_encode(query, level)).split()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or i == len(tokens):
            tokens.insert(i, draw(st.sampled_from(IR_VOCAB)))
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(IR_VOCAB))
        elif len(tokens) > 1:
            del tokens[i]
    return level, tokens


@settings(max_examples=1000, deadline=None)
@given(ir_token_sequences())
def test_decode_rejects_or_reparses_to_same_clause_set(case):
    level, tokens = case
    try:
        decoded = sparql.ir_decode(" ".join(tokens), level)
    except sparql.IrDecodeError:
        return
    again = sparql.parse_sparql(sparql.serialize_sparql(decoded))
    assert tokens == sparql.serialize_ir(sparql.ir_encode(again, level)).split()


@pytest.mark.parametrize("level,bad", [
    ("f3", "M1 { b { x } } M0 { a { y } }"),   # subjects out of order
    ("f1", "M0 { a M1 } M0 { b M2 }"),         # a subject heads two groups
    ("f2", "M0 { a M1 }"),                     # an f1 entry at f2
    ("f1", "M0 { a { M1 } }"),                 # an f2 entry at f1
    ("f2", "M0 { a { M1 , M1 } }"),            # a repeated object
    ("f2", "M0 { a { M1 } . a { M2 } }"),      # a relation repeated in a group
    ("f1", "M0 { a M1 . a M1 }"),              # a repeated triple
])
def test_decode_rejects_what_the_encoder_cannot_write(level, bad):
    with pytest.raises(sparql.IrDecodeError):
        sparql.ir_decode(bad, level)


QUERY_VOCAB = IR_VOCAB + ["select", "ask", "where"]
HEADERS = ["", "SELECT DISTINCT ?x0 WHERE", "SELECT count(*) WHERE", "ASK WHERE",
           "select distinct M0 where", "ASK", "SELECT"]


@st.composite
def query_texts(draw):
    """Text near the language of parse_sparql: clauses of three tokens
    (triples) or starting with FILTER, or arbitrary token lists, from a
    vocabulary holding the IR's reserved tokens and the header keywords."""
    tokens = st.sampled_from(QUERY_VOCAB)
    clause = st.one_of(st.lists(tokens, min_size=3, max_size=3),
                       st.lists(tokens, max_size=4).map(lambda c: ["FILTER"] + c),
                       st.lists(tokens, min_size=1, max_size=5))
    body = " . ".join(" ".join(c) for c in draw(st.lists(clause, min_size=1, max_size=4)))
    header = draw(st.sampled_from(HEADERS))
    return f"{header} {{ {body} }}" if header else body


@settings(max_examples=1000, deadline=None)
@given(query_texts())
def test_decode_inverts_encode_of_every_parsed_query(text):
    try:
        query = sparql.parse_sparql(text)
    except sparql.SparqlParseError:
        return
    for level in sparql.IR_LEVELS:
        decoded = sparql.ir_decode(encode_text(text, level), level)
        assert sparql.clause_set_equal(decoded, query), (level, text)


def test_encoder_output_decodes():
    # A comma in a FILTER would not survive the grouping at f2.
    with pytest.raises(sparql.SparqlParseError):
        sparql.parse_sparql("M0 a M1 . FILTER ( M0 , M1 )")
    # A bare query whose first subject is a header keyword.
    query = sparql.parse_sparql("select a M1 . M0 b M2")
    for level in sparql.IR_LEVELS:
        assert sparql.clause_set_equal(
            sparql.ir_decode(encode_text("select a M1 . M0 b M2", level), level), query)


def test_serialize_parse_clause_set_equal():
    q = sparql.parse_sparql("SELECT count(*) WHERE { M0 a M1 . M2 b M3 . "
                            "FILTER ( M0 != M2 ) }")
    again = sparql.parse_sparql(sparql.serialize_sparql(q))
    assert sparql.clause_set_equal(q, again)


SUBJECTS = ["M0", "M1", "M2", "?x0", "?x1"]
RELATIONS = ["directed", "ns:film.director.film", "ns:people.person.gender",
             "produced", "a"]
OBJECTS = ["M0", "M1", "M2", "M3", "?x0", "ns:m.05zppz"]


def random_query(rng: random.Random) -> sparql.SparqlQuery:
    n = rng.randint(1, 12)
    triples = set()
    while len(triples) < n:
        triples.add((rng.choice(SUBJECTS), rng.choice(RELATIONS),
                     rng.choice(OBJECTS)))
    triples = list(triples)
    rng.shuffle(triples)
    constraints = []
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(SUBJECTS, 2)
        constraints.append(("FILTER", "(", a, "!=", b, ")"))
    form = rng.choice(["bare", "select_count", "select_distinct", "ask"])
    header = {
        "bare": (),
        "select_count": ("SELECT", "count(*)", "WHERE"),
        "select_distinct": ("SELECT", "DISTINCT", "?x0", "WHERE"),
        "ask": ("ASK", "WHERE"),
    }[form]
    return sparql.SparqlQuery(form, header, tuple(triples), tuple(constraints))


@pytest.mark.parametrize("level", ["f1", "f2", "f3"])
def test_random_roundtrip(level):
    rng = random.Random(12 + sparql.IR_LEVELS.index(level))
    for _ in range(1000):
        q = random_query(rng)
        text = sparql.serialize_ir(sparql.ir_encode(q, level))
        assert sparql.clause_set_equal(sparql.ir_decode(text, level), q)


def test_f3_permutation_invariant():
    rng = random.Random(99)
    for _ in range(300):
        q = random_query(rng)
        triples = list(q.triples)
        rng.shuffle(triples)
        permuted = sparql.SparqlQuery(q.form, q.header, tuple(triples),
                                      q.constraints)
        assert (sparql.serialize_ir(sparql.ir_encode(q, "f3"))
                == sparql.serialize_ir(sparql.ir_encode(permuted, "f3")))


def test_full_query_ir_roundtrip():
    text = ("SELECT DISTINCT ?x0 WHERE { ?x0 ns:film.d.f M0 . "
            "?x0 ns:film.d.f M1 . FILTER ( ?x0 != M0 ) }")
    q = sparql.parse_sparql(text)
    for level in sparql.IR_LEVELS:
        ir_text = sparql.serialize_ir(sparql.ir_encode(q, level))
        assert ir_text.startswith("SELECT DISTINCT ?x0 WHERE {")
        assert sparql.clause_set_equal(sparql.ir_decode(ir_text, level), q)
