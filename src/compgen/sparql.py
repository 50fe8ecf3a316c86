"""Parser and reversible intermediate representations for the CFQ-style
SPARQL subset.

A query is a clause set of (subject, relation, object) triples plus opaque
constraint clauses (FILTER ...) that are carried through verbatim.  Three
reversible groupings are provided:

    f1  group clauses by subject:        s { r1 o1 . r2 o2 }
    f2  additionally group objects:      s { r1 { o1 , o2 } . r2 { o3 } }
    f3  f2 with subjects, relations and objects sorted lexicographically

Braces, dots and commas are always emitted as standalone whitespace
separated tokens.

ir_decode reads exactly what ir_encode writes at the given level: decoding
either raises IrDecodeError or returns a query that encodes back to the same
tokens.  So it rejects an f2 entry at f1 and an f1 entry at f2, a subject
that heads two groups, a relation repeated in one group (f2/f3), a repeated
object or triple, f3 subjects, relations or objects that are not strictly
increasing, a group whose subject is FILTER, a clause after the groups that
is not a FILTER clause, and a header parse_sparql would not accept.

A header is exactly `ASK WHERE`, `SELECT count(*) WHERE` or `SELECT DISTINCT`
with one or more projected terms before `WHERE`, keywords in any case;
clause_set_equal compares the projected terms as well as the clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Iterable, Sequence

IR_LEVELS = ("f1", "f2", "f3")


class SparqlParseError(ValueError):
    pass


class IrDecodeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SparqlQuery:
    """Flat clause-set form.  triples keep first-occurrence order but carry
    set semantics; header holds the verbatim tokens before the WHERE body
    (ending in WHERE), empty for a bare clause list."""

    form: str
    header: tuple[str, ...]
    triples: tuple[tuple[str, str, str], ...]
    constraints: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True, slots=True)
class IrQuery:
    """Grouped form: (subject, ((relation, (objects...)), ...)) per group.
    Under f1 every relation entry has exactly one object."""

    level: str
    form: str
    header: tuple[str, ...]
    groups: tuple[tuple[str, tuple[tuple[str, tuple[str, ...]], ...]], ...]
    constraints: tuple[tuple[str, ...], ...] = ()


def _tokenize(text: str) -> list[str]:
    # Braces and commas become standalone tokens; dots are clause separators
    # only when they stand alone (relation paths contain internal dots).
    for ch in "{},":
        if ch in text:
            text = text.replace(ch, f" {ch} ")
    return text.split()


# The empty string never comes out of _tokenize: it marks the end of input.
_RESERVED = frozenset(("{", "}", ".", ",", ""))

# Tokens that a WHERE body may not hold.
_NOT_IN_BODY = frozenset(("{", "}", ","))

# Keywords of the header forms; none of them, and no IR punctuation, can be
# a projected term of SELECT DISTINCT.
_HEADER_WORDS = frozenset(("SELECT", "DISTINCT", "COUNT(*)", "ASK", "WHERE"))


def _parse_header(tokens: Sequence[str]) -> tuple[str, tuple[str, ...], Sequence[str]]:
    """Split off the header; returns (form, header, body tokens), the body
    a slice of tokens, so a list for a list.  The header is one of `ASK
    WHERE`, `SELECT count(*) WHERE` and `SELECT DISTINCT term... WHERE`
    with at least one term, keywords in any case."""
    if "{" not in tokens:
        return "bare", (), tokens
    open_idx = tokens.index("{")
    header = tokens[:open_idx]
    if tokens[-1] != "}":
        raise SparqlParseError("expected trailing '}'")
    body = tokens[open_idx + 1:-1]
    words = [t.upper() for t in header]
    if not header or words[-1] != "WHERE":
        raise SparqlParseError("expected WHERE before '{'")
    if words == ["ASK", "WHERE"]:
        form = "ask"
    elif words == ["SELECT", "COUNT(*)", "WHERE"]:
        form = "select_count"
    elif words[:2] == ["SELECT", "DISTINCT"] and len(header) > 3:
        form = "select_distinct"
        for term, word in zip(header[2:-1], words[2:-1]):
            if term in _RESERVED or word in _HEADER_WORDS:
                raise SparqlParseError(f"{term!r} cannot be a projected term")
    else:
        raise SparqlParseError(f"unsupported query header {' '.join(header)!r}")
    return form, tuple(header), body


def _split_clauses(body: tuple[str, ...]) -> list[tuple[str, ...]]:
    clauses, start = [], 0
    for _ in range(body.count(".")):
        end = body.index(".", start)
        clauses.append(body[start:end])
        start = end + 1
    clauses.append(body[start:])
    return clauses


def parse_sparql(text: str) -> SparqlQuery:
    """Parse a query or a bare WHERE body into its clause set; a repeated
    triple is dropped, as a set holds it once.  Tokens are interned
    (sys.intern), so parsed queries share one copy of each relation, entity
    and variable, as loaded datasets do."""
    tokens = tuple(map(intern, _tokenize(text)))
    if not tokens:
        raise SparqlParseError("empty query")
    form, header, body = _parse_header(tokens)
    # No nested braces and no object lists: a comma in a triple or in a
    # FILTER would not survive the grouping of the IR.
    if not _NOT_IN_BODY.isdisjoint(body):
        raise SparqlParseError("unsupported construct: nested braces or ','")
    if not body:
        raise SparqlParseError("empty WHERE body")
    triples: dict[tuple[str, ...], None] = {}  # an ordered set: keeps the first of equal ones
    constraints = []
    for clause in _split_clauses(body):
        if not clause:
            raise SparqlParseError("empty clause (stray '.')")
        if clause[0].upper() == "FILTER":
            constraints.append(clause)
        elif len(clause) == 3:
            triples[clause] = None
        else:
            raise SparqlParseError(
                f"unsupported clause {' '.join(clause)!r} (expected a triple or FILTER)")
    if not triples:
        raise SparqlParseError("query has no triples")
    return SparqlQuery(form, header, tuple(triples), tuple(constraints))


def _projection(query: SparqlQuery) -> tuple[str, ...]:
    """The header tokens between the form keywords and WHERE."""
    return query.header[2:-1] if query.form == "select_distinct" else ()


def clause_set_equal(a: SparqlQuery, b: SparqlQuery) -> bool:
    """Triples as a set, constraints as a sequence, query form and projected
    terms preserved."""
    return (a.form == b.form and _projection(a) == _projection(b)
            and set(a.triples) == set(b.triples) and a.constraints == b.constraints)


def _group(triples: Iterable[tuple[str, str, str]], level: str) -> tuple:
    """IrQuery.groups for the triples: subjects and relations in order of
    first occurrence, each f1 entry one triple in clause order, all sorted
    at f3."""
    groups: dict = {}
    if level == "f1":
        for s, r, o in triples:
            groups.setdefault(s, []).append((r, (o,)))
        return tuple((s, tuple(entries)) for s, entries in groups.items())
    for s, r, o in triples:
        groups.setdefault(s, {}).setdefault(r, []).append(o)

    def order(items):
        return tuple(sorted(items)) if level == "f3" else tuple(items)

    return order((s, order((r, order(objects)) for r, objects in by_relation.items()))
                 for s, by_relation in groups.items())


def ir_encode(query: SparqlQuery, level: str) -> IrQuery:
    """Group the flat clause set: every triple is in exactly one group
    entry, so ir_decode of serialize_ir of the result gives back the same
    triple set."""
    if level not in IR_LEVELS:
        raise ValueError(f"unknown ir level {level!r}")
    return IrQuery(level, query.form, query.header, _group(query.triples, level),
                   query.constraints)


def serialize_sparql(query: SparqlQuery) -> str:
    """Canonical whitespace-normalized text; triples then constraints,
    joined by standalone dots."""
    clauses = [" ".join(t) for t in query.triples]
    clauses += [" ".join(c) for c in query.constraints]
    body = " . ".join(clauses)
    if query.form == "bare":
        return body
    return " ".join(query.header) + " { " + body + " }"


def serialize_ir(ir: IrQuery) -> str:
    parts = []
    for s, entries in ir.groups:
        rendered = []
        for r, objects in entries:
            if ir.level == "f1":
                (o,) = objects
                rendered.append(f"{r} {o}")
            else:
                rendered.append(f"{r} {{ " + " , ".join(objects) + " }")
        parts.append(f"{s} {{ " + " . ".join(rendered) + " }")
    body = " ".join(parts)
    for c in ir.constraints:
        body += " . " + " ".join(c)
    if ir.form == "bare":
        return body
    return " ".join(ir.header) + " { " + body + " }"


def _word(tokens: list[str], i: int, what: str,
          scope: Sequence[str] = (), ordered: bool = False) -> None:
    """Raise unless tokens[i] is a word new to scope: not among its words,
    or, when ordered (f3), after the last of them."""
    tok = tokens[i]
    if tok in _RESERVED:
        raise IrDecodeError(f"token {i}: expected {what}, got {tok or 'end of input'!r}")
    if scope and (tok <= scope[-1] if ordered else tok in scope):
        raise IrDecodeError(f"token {i}: {what} {tok!r} " + (
            f"not after {scope[-1]!r}" if ordered else "repeated"))


def _expect(tokens: list[str], i: int, expected: str) -> None:
    if tokens[i] != expected:
        raise IrDecodeError(
            f"token {i}: expected {expected or 'end of input'!r}, "
            f"got {tokens[i] or 'end of input'!r}")


def ir_decode(ir_text: str, level: str) -> SparqlQuery:
    """Parse grouped text back to the flat clause set.  Only text that
    ir_encode can write at this level is accepted; anything else raises
    IrDecodeError, so callers can score the prediction as wrong instead of
    crashing."""
    if level not in IR_LEVELS:
        raise ValueError(f"unknown ir level {level!r}")
    tokens = _tokenize(ir_text)
    if not tokens:
        raise IrDecodeError("empty input")
    form, header = "bare", ()
    # A header always ends in WHERE, so a first token followed by '{' is
    # the subject of a group of a bare query.
    if tokens[0].upper() in ("SELECT", "ASK") and tokens[1:2] != ["{"]:
        try:
            form, header, tokens = _parse_header(tokens)
        except SparqlParseError as exc:
            raise IrDecodeError(str(exc)) from exc
    tokens.append("")  # the end-of-input marker
    f1, ordered = level == "f1", level == "f3"
    subjects: list[str] = []
    triples = []
    i = 0
    # Each word and bracket is checked inline; _word and _expect are called
    # only when a check fails, and raise with the message.
    while tokens[i] not in (".", ""):
        s = tokens[i]
        if s in _RESERVED or subjects and (s <= subjects[-1] if ordered else s in subjects):
            _word(tokens, i, "subject", subjects, ordered)
        # A triple whose subject is FILTER would re-parse as a constraint.
        if s.upper() == "FILTER":
            raise IrDecodeError(f"token {i}: subject {s!r} would read as a constraint")
        subjects.append(s)
        if tokens[i + 1] != "{":
            _expect(tokens, i + 1, "{")
        i += 2
        # f1 entries are `r o`, and a relation may recur with new objects;
        # f2/f3 entries are `r { o , ... }`, one per relation.
        relations: list[str] = []
        objects_of: dict[str, list[str]] = {}
        while True:
            r = tokens[i]
            if r in _RESERVED or not f1 and relations and (
                    r <= relations[-1] if ordered else r in relations):
                _word(tokens, i, "relation", () if f1 else relations, ordered)
            relations.append(r)
            objects = objects_of.setdefault(r, [])
            i += 1
            if not f1:
                if tokens[i] != "{":
                    _expect(tokens, i, "{")
                i += 1
            while True:
                o = tokens[i]
                if o in _RESERVED or objects and (o <= objects[-1] if ordered else o in objects):
                    _word(tokens, i, "object", objects, ordered)
                objects.append(o)
                triples.append((s, r, o))
                i += 1
                if f1 or tokens[i] != ",":
                    break
                i += 1
            if not f1:
                if tokens[i] != "}":
                    _expect(tokens, i, "}")
                i += 1
            if tokens[i] != ".":
                break
            i += 1
        if tokens[i] != "}":
            _expect(tokens, i, "}")
        i += 1
    if not subjects:
        raise IrDecodeError("no clause groups")
    constraints = []
    while tokens[i] == ".":
        start = i = i + 1
        while tokens[i] not in _RESERVED:
            i += 1
        # Only what parse_sparql reads as a FILTER clause, as the encoder
        # carries nothing else through.
        if i == start or tokens[start].upper() != "FILTER":
            raise IrDecodeError(f"token {start}: expected a FILTER clause")
        constraints.append(tuple(tokens[start:i]))
    _expect(tokens, i, "")
    return SparqlQuery(form, header, tuple(triples), tuple(constraints))
