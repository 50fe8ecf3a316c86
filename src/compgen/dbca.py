"""Distribution-based compositionality assessment: atom/compound
extraction from derivation traces, Chernoff-style divergence between
example sets, and greedy construction of maximum-compound-divergence
splits with a bounded atom divergence."""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .data import DerivationTrace, Example
from .splits import SplitResult, SplitSpec

DEFAULT_ATOM_ALPHA = 0.5
DEFAULT_COMPOUND_ALPHA = 0.1


class DbcaError(ValueError):
    pass


class InfeasibleSplitError(DbcaError):
    pass


@dataclass(frozen=True)
class AtomCompoundProfile:
    atoms: Mapping[str, float]
    compounds: Mapping[str, float]


@dataclass(frozen=True)
class DivergenceReport:
    atom_divergence: float
    compound_divergence: float
    atom_alpha: float
    compound_alpha: float
    train_size: int
    test_size: int

    def to_jsonable(self) -> dict:
        return {
            "atom_divergence": self.atom_divergence,
            "compound_divergence": self.compound_divergence,
            "atom_alpha": self.atom_alpha,
            "compound_alpha": self.compound_alpha,
            "train_size": self.train_size,
            "test_size": self.test_size,
        }


def extract_atoms(trace: DerivationTrace) -> Counter:
    """One atom per rule application; the atom key is the rule id."""
    return Counter(node.rule for node in trace.iter_nodes())


def extract_compounds(trace: DerivationTrace) -> Counter:
    """Local subtrees of depth 2: every (parent, child) pair and every
    (parent, left child, right child) triple."""
    compounds = Counter()
    for node in trace.iter_nodes():
        for child in node.children:
            compounds[f"{node.rule}({child.rule})"] += 1
        if len(node.children) == 2:
            left, right = node.children
            compounds[f"{node.rule}({left.rule},{right.rule})"] += 1
    return compounds


def _normalize(counts: Mapping[str, float]) -> dict[str, float]:
    total = sum(counts.values())
    if total <= 0:
        return {}
    return {k: v / total for k, v in counts.items()}


def profile(examples: Sequence[Example]) -> AtomCompoundProfile:
    """Summed, normalized atom and compound frequencies of a set of examples."""
    atoms, compounds = Counter(), Counter()
    for ex in examples:
        if ex.derivation is None:
            raise DbcaError(f"example {ex.id!r} has no derivation trace")
        atoms.update(extract_atoms(ex.derivation))
        compounds.update(extract_compounds(ex.derivation))
    return AtomCompoundProfile(_normalize(atoms), _normalize(compounds))


def divergence(p: Mapping[str, float], q: Mapping[str, float], alpha: float) -> float:
    """1 minus the Chernoff coefficient sum(p^alpha * q^(1-alpha)), in [0, 1]."""
    if not 0 < alpha < 1:
        raise DbcaError(f"alpha must be in (0, 1), got {alpha}")
    for name, dist in (("P", p), ("Q", q)):
        if dist and abs(sum(dist.values()) - 1.0) > 1e-6:
            raise DbcaError(f"{name} is not normalized")
    if not p and not q:
        return 0.0
    coeff = sum(pv ** alpha * q[k] ** (1 - alpha)
                for k, pv in p.items() if k in q)
    return min(max(1.0 - coeff, 0.0), 1.0)


def measure(train: Sequence[Example], test: Sequence[Example],
            atom_alpha: float = DEFAULT_ATOM_ALPHA,
            compound_alpha: float = DEFAULT_COMPOUND_ALPHA) -> DivergenceReport:
    """Divergence report for an existing partition (e.g. a released split)."""
    p_train, p_test = profile(train), profile(test)
    return DivergenceReport(
        atom_divergence=divergence(p_train.atoms, p_test.atoms, atom_alpha),
        compound_divergence=divergence(p_train.compounds, p_test.compounds,
                                       compound_alpha),
        atom_alpha=atom_alpha,
        compound_alpha=compound_alpha,
        train_size=len(train),
        test_size=len(test),
    )


def _id_rows(counters) -> list[tuple]:
    """Each Counter as a tuple of (id, count) pairs, with keys numbered in
    first-seen order; equal pairs are one shared tuple."""
    ids, pairs = {}, {}
    return [tuple(pairs.setdefault(p, p) for p in
                  [(ids.setdefault(k, len(ids)), v) for k, v in counts.items()])
            for counts in counters]


class _Divergence:
    """1 - sum((c/C)^a * (d/D)^(1-a)) over the integer key counts c (train)
    and d (test) of a partition.  propose() scores a swap from its net
    per-key delta; the state changes only on commit()."""

    def __init__(self, rows: Sequence[tuple], train_idx, test_idx, alpha: float):
        self.rows, self.alpha = rows, alpha
        self.sizes = [sum(v for _, v in row) for row in rows]
        n = 1 + max((k for row in rows for k, _ in row), default=-1)
        self.train, self.test = [0] * n, [0] * n
        for side, idx in ((self.train, train_idx), (self.test, test_idx)):
            for i in idx:
                for k, v in rows[i]:
                    side[k] += v
        self.train_total, self.test_total = sum(self.train), sum(self.test)
        # c**a and d**(1-a) for every count a key can reach; 0 for count 0.
        top = max((c + d for c, d in zip(self.train, self.test)), default=0)
        self.pow_train = array("d", [0.0] + [float(c) ** alpha for c in range(1, top + 1)])
        self.pow_test = array("d", [0.0] + [float(d) ** (1 - alpha) for d in range(1, top + 1)])
        pa, pb = self.pow_train, self.pow_test
        self.chernoff_sum = sum(pa[c] * pb[d] for c, d in zip(self.train, self.test))
        self._pending = None

    def value(self) -> float:
        return self._value(self.chernoff_sum, self.train_total, self.test_total)

    def _value(self, chernoff_sum: float, train_total: int, test_total: int) -> float:
        if train_total <= 0 or test_total <= 0:
            return 1.0
        norm = train_total ** self.alpha * test_total ** (1 - self.alpha)
        return min(max(1.0 - chernoff_sum / norm, 0.0), 1.0)

    def propose(self, out_i: int, in_i: int) -> float:
        """The value after moving example out_i from train to test and
        example in_i from test to train."""
        delta = dict(self.rows[out_i])
        for k, v in self.rows[in_i]:
            delta[k] = delta.get(k, 0) - v
        train, test, pa, pb = self.train, self.test, self.pow_train, self.pow_test
        before = after = 0.0
        for k, v in delta.items():
            if v:
                c, d = train[k], test[k]
                before += pa[c] * pb[d]
                after += pa[c - v] * pb[d + v]
        chernoff_sum = self.chernoff_sum + (after - before)
        shift = self.sizes[out_i] - self.sizes[in_i]
        self._pending = delta, chernoff_sum, shift
        return self._value(chernoff_sum, self.train_total - shift,
                           self.test_total + shift)

    def commit(self):
        """Apply the last proposal."""
        delta, self.chernoff_sum, shift = self._pending
        train, test = self.train, self.test
        for k, v in delta.items():
            train[k] -= v
            test[k] += v
        self.train_total -= shift
        self.test_total += shift


def build_mcd_split(examples: Sequence[Example],
                    target_compound_divergence: float = 1.0,
                    max_atom_divergence: float = 0.02,
                    seed: int = 0,
                    iterations: int = 20000,
                    max_proposals: int = 1_000_000,
                    train_fraction: float = 0.8,
                    atom_alpha: float = DEFAULT_ATOM_ALPHA,
                    compound_alpha: float = DEFAULT_COMPOUND_ALPHA,
                    ) -> tuple[SplitResult, DivergenceReport]:
    """Greedy swap search for a partition whose compound divergence is as
    close as possible to the target while the atom divergence stays within
    the bound.

    Starts from a seeded random partition at train_fraction; repeatedly
    proposes train/test example swaps and accepts strict improvements of
    |compound divergence - target| that keep the atom bound.  Stops after
    `iterations` consecutive proposals without improvement or after
    max_proposals in total.

    The search state is integer: atoms and compounds are numbered in
    first-seen order over `examples`, each example is a tuple of (id, count)
    pairs, and each side holds its counts in int lists.  A proposal is
    scored from the net per-key delta of the swap, with c**a and d**(1-a)
    read from tables, and changes nothing unless it is accepted; the
    compound side is scored only when the atom test passes.  No step
    depends on hash order, so the split is a function of the arguments.
    The final partition is measured afresh from the rows' counts, without
    extracting atoms and compounds again.
    """
    if not 0 <= target_compound_divergence <= 1:
        raise DbcaError("target compound divergence must be in [0, 1]")
    if not 0 < train_fraction < 1:
        raise DbcaError("train_fraction must be in (0, 1)")
    for alpha in (atom_alpha, compound_alpha):
        if not 0 < alpha < 1:
            raise DbcaError(f"alpha must be in (0, 1), got {alpha}")
    for ex in examples:
        if ex.derivation is None:
            raise DbcaError(f"example {ex.id!r} has no derivation trace")
    if len(examples) < 2:
        raise DbcaError("need at least two examples")

    rng = random.Random(seed)
    order = list(range(len(examples)))
    rng.shuffle(order)
    cut = int(round(train_fraction * len(order)))
    cut = min(max(cut, 1), len(order) - 1)
    train_idx, test_idx = order[:cut], order[cut:]

    atoms = _Divergence(_id_rows(extract_atoms(ex.derivation) for ex in examples),
                        train_idx, test_idx, atom_alpha)
    comps = _Divergence(_id_rows(extract_compounds(ex.derivation) for ex in examples),
                        train_idx, test_idx, compound_alpha)

    cur_obj = abs(comps.value() - target_compound_divergence)
    cur_atom = atoms.value()
    no_improve = 0
    proposals = 0
    while no_improve < iterations and proposals < max_proposals:
        proposals += 1
        ti = rng.randrange(len(train_idx))
        si = rng.randrange(len(test_idx))
        out_i, in_i = train_idx[ti], test_idx[si]
        new_atom = atoms.propose(out_i, in_i)
        # Repair phase: first get under the atom bound.
        repairing = cur_atom > max_atom_divergence
        if new_atom < cur_atom - 1e-12 if repairing else new_atom <= max_atom_divergence:
            new_obj = abs(comps.propose(out_i, in_i) - target_compound_divergence)
            if repairing or new_obj < cur_obj - 1e-12:
                atoms.commit()
                comps.commit()
                train_idx[ti], test_idx[si] = in_i, out_i
                cur_obj, cur_atom = new_obj, new_atom
                no_improve = 0
                continue
        no_improve += 1

    train_idx.sort()
    test_idx.sort()
    # Recounted from the rows, so that no drift of the running sums can
    # reach the bound check or the report.  The search state goes first,
    # so that it and the recount are never held at once.
    atom_rows, comp_rows = atoms.rows, comps.rows
    del atoms, comps
    report = DivergenceReport(
        _Divergence(atom_rows, train_idx, test_idx, atom_alpha).value(),
        _Divergence(comp_rows, train_idx, test_idx, compound_alpha).value(),
        atom_alpha, compound_alpha, len(train_idx), len(test_idx))
    if report.atom_divergence > max_atom_divergence + 1e-9:
        raise InfeasibleSplitError(
            f"could not reach atom divergence <= {max_atom_divergence} "
            f"(got {report.atom_divergence:.4f})")
    spec = SplitSpec("mcd", {
        "target_compound_divergence": target_compound_divergence,
        "max_atom_divergence": max_atom_divergence,
        "iterations": iterations,
        "atom_alpha": atom_alpha,
        "compound_alpha": compound_alpha,
    }, seed, train_fraction)
    result = SplitResult(spec, tuple(examples[i].id for i in train_idx),
                         tuple(examples[i].id for i in test_idx),
                         {"train_size": len(train_idx), "test_size": len(test_idx),
                          "divergence": report.to_jsonable()})
    return result, report
