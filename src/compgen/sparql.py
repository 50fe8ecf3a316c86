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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

FORMS = ("select_count", "select_distinct", "ask", "bare")
IR_LEVELS = ("f1", "f2", "f3")


class SparqlParseError(ValueError):
    pass


class IrDecodeError(ValueError):
    pass


@dataclass(frozen=True)
class SparqlQuery:
    """Flat clause-set form.  triples keep first-occurrence order but carry
    set semantics; header holds the verbatim tokens before the WHERE body
    (ending in WHERE), empty for a bare clause list."""

    form: str
    header: tuple[str, ...]
    triples: tuple[tuple[str, str, str], ...]
    constraints: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
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
        text = text.replace(ch, f" {ch} ")
    return text.split()


def _parse_header(tokens: list[str]) -> tuple[str, tuple[str, ...], list[str]]:
    """Split off the SELECT/ASK header; returns (form, header, body tokens)."""
    if "{" not in tokens:
        return "bare", (), tokens
    open_idx = tokens.index("{")
    header = tokens[:open_idx]
    if tokens[-1] != "}":
        raise SparqlParseError("expected trailing '}'")
    body = tokens[open_idx + 1:-1]
    if not header or header[-1].upper() != "WHERE":
        raise SparqlParseError("expected WHERE before '{'")
    head = header[0].upper()
    if head == "ASK":
        form = "ask"
    elif head == "SELECT":
        if len(header) < 2:
            raise SparqlParseError("incomplete SELECT header")
        if header[1].upper() in ("COUNT(*)", "COUNT"):
            form = "select_count"
        elif header[1].upper() == "DISTINCT":
            form = "select_distinct"
        else:
            raise SparqlParseError(f"unsupported SELECT form {header[1]!r}")
    else:
        raise SparqlParseError(f"unsupported query form {header[0]!r}")
    return form, tuple(header), body


def _split_clauses(body: list[str]) -> list[list[str]]:
    clauses, current = [], []
    for tok in body:
        if tok == ".":
            clauses.append(current)
            current = []
        else:
            current.append(tok)
    clauses.append(current)
    return clauses


def parse_sparql(text: str) -> SparqlQuery:
    """Parse a query or a bare WHERE body into its clause set."""
    tokens = _tokenize(text)
    if not tokens:
        raise SparqlParseError("empty query")
    form, header, body = _parse_header(tokens)
    # No nested braces and no object lists: a comma in a triple or in a
    # FILTER would not survive the grouping of the IR.
    if "{" in body or "}" in body or "," in body:
        raise SparqlParseError("unsupported construct: nested braces or ','")
    if not body:
        raise SparqlParseError("empty WHERE body")
    triples: list[tuple[str, str, str]] = []
    seen = set()
    constraints = []
    for clause in _split_clauses(body):
        if not clause:
            raise SparqlParseError("empty clause (stray '.')")
        if clause[0].upper() == "FILTER":
            constraints.append(tuple(clause))
        elif len(clause) == 3:
            triple = tuple(clause)
            if triple in seen:
                warnings.warn(f"duplicate triple {' '.join(triple)!r} dropped")
            else:
                seen.add(triple)
                triples.append(triple)
        else:
            raise SparqlParseError(
                f"unsupported clause {' '.join(clause)!r} (expected a triple or FILTER)")
    if not triples:
        raise SparqlParseError("query has no triples")
    return SparqlQuery(form, header, tuple(triples), tuple(constraints))


def clause_set_equal(a: SparqlQuery, b: SparqlQuery) -> bool:
    """Triples as a set, constraints as a sequence, query form preserved."""
    return (a.form == b.form and set(a.triples) == set(b.triples)
            and a.constraints == b.constraints)


def ir_encode(query: SparqlQuery, level: str) -> IrQuery:
    """Group the flat clause set; flattening the result reproduces exactly
    the original triple set."""
    if level not in IR_LEVELS:
        raise ValueError(f"unknown ir level {level!r}")
    # f1: group by subject, entries in clause order, one object each.
    subjects: list[str] = []
    by_subject: dict[str, list[tuple[str, str]]] = {}
    for s, r, o in query.triples:
        if s not in by_subject:
            subjects.append(s)
            by_subject[s] = []
        by_subject[s].append((r, o))
    if level == "f1":
        groups = tuple(
            (s, tuple((r, (o,)) for r, o in by_subject[s])) for s in subjects)
    else:
        groups = []
        for s in subjects:
            relations: list[str] = []
            objs: dict[str, list[str]] = {}
            for r, o in by_subject[s]:
                if r not in objs:
                    relations.append(r)
                    objs[r] = []
                objs[r].append(o)
            groups.append((s, tuple((r, tuple(objs[r])) for r in relations)))
        if level == "f3":
            groups = [
                (s, tuple(sorted(((r, tuple(sorted(os))) for r, os in entries))))
                for s, entries in groups]
            groups.sort()
        groups = tuple(groups)
    return IrQuery(level, query.form, query.header, groups, query.constraints)


def ir_flatten(ir: IrQuery) -> SparqlQuery:
    """Expand the grouping back to a flat clause set."""
    triples = []
    seen = set()
    for s, entries in ir.groups:
        for r, objects in entries:
            for o in objects:
                triple = (s, r, o)
                if triple not in seen:
                    seen.add(triple)
                    triples.append(triple)
    return SparqlQuery(ir.form, ir.header, tuple(triples), ir.constraints)


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


_RESERVED = {"{", "}", ".", ","}


class _TokenStream:
    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise IrDecodeError(
                "unexpected end of input" +
                (f" (expected {expected!r})" if expected else ""))
        if expected is not None and tok != expected:
            raise IrDecodeError(f"expected {expected!r}, got {tok!r} at token {self.pos}")
        self.pos += 1
        return tok


def ir_decode(ir_text: str, level: str) -> SparqlQuery:
    """Parse grouped text back to the flat clause set.  Malformed input
    (unbalanced braces, dangling relations) raises IrDecodeError so callers
    can score the prediction as wrong instead of crashing."""
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
    stream = _TokenStream(tokens)
    groups = []
    constraints = []
    while stream.peek() is not None and stream.peek() != ".":
        subject = stream.next()
        # A triple whose subject is FILTER would re-parse as a constraint.
        if subject in _RESERVED or subject.upper() == "FILTER":
            raise IrDecodeError(f"expected a subject, got {subject!r}")
        stream.next("{")
        entries = []
        while True:
            relation = stream.next()
            if relation in _RESERVED:
                raise IrDecodeError(f"expected a relation, got {relation!r}")
            tok = stream.peek()
            if tok == "{":
                stream.next("{")
                objects = [stream.next()]
                if objects[0] in _RESERVED:
                    raise IrDecodeError(f"expected an object, got {objects[0]!r}")
                while stream.peek() == ",":
                    stream.next(",")
                    obj = stream.next()
                    if obj in _RESERVED:
                        raise IrDecodeError(f"expected an object, got {obj!r}")
                    objects.append(obj)
                stream.next("}")
            elif tok is None or tok in ("}", ".", ","):
                raise IrDecodeError(f"dangling relation {relation!r}")
            else:
                objects = [stream.next()]
            entries.append((relation, tuple(objects)))
            tok = stream.peek()
            if tok == ".":
                stream.next(".")
                continue
            if tok == "}":
                stream.next("}")
                break
            raise IrDecodeError(
                "unbalanced brace" if tok is None else f"unexpected token {tok!r}")
        groups.append((subject, tuple(entries)))
    while stream.peek() == ".":
        stream.next(".")
        clause = []
        while stream.peek() is not None and stream.peek() != ".":
            clause.append(stream.next())
        if not clause:
            raise IrDecodeError("empty constraint clause")
        # Only what parse_sparql reads as a FILTER clause, as the encoder
        # carries nothing else through.
        if clause[0].upper() != "FILTER" or _RESERVED.intersection(clause):
            raise IrDecodeError(f"unsupported constraint clause {' '.join(clause)!r}")
        constraints.append(tuple(clause))
    if not groups:
        raise IrDecodeError("no clause groups")
    ir = IrQuery(level, form, header, tuple(groups), tuple(constraints))
    return ir_flatten(ir)
