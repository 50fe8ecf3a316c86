"""Distribution-based compositionality assessment: atom/compound
extraction from derivation traces, Chernoff-style divergence between
example sets, and greedy construction of maximum-compound-divergence
splits with a bounded atom divergence.

Every divergence is 1 - sum(c^a * d^(1-a)) / (C^a * D^(1-a)) over the
integer counts c (train) and d (test) of each key, with side totals C and
D, and _Divergence alone computes it: so `dbca analyze` of a `split mcd`
file reproduces the file's stats.divergence exactly."""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Sequence

from .data import DerivationTrace, Example
from .splits import SplitResult, SplitSpec, random_partition

DEFAULT_ATOM_ALPHA = 0.5
DEFAULT_COMPOUND_ALPHA = 0.1


class DbcaError(ValueError):
    pass


class InfeasibleSplitError(DbcaError):
    pass


@dataclass(frozen=True)
class DivergenceReport:
    atom_divergence: float
    compound_divergence: float
    atom_alpha: float
    compound_alpha: float
    train_size: int
    test_size: int

    def to_jsonable(self) -> dict:
        return asdict(self)


def _walk(trace: DerivationTrace, atoms: list, compounds: list) -> None:
    """Append the atoms and the compounds of trace to the two lists, in the
    order extract_atoms and extract_compounds first see their keys: nodes in
    preorder, found with an explicit stack so that no depth is too deep."""
    stack = [trace]
    while stack:
        node = stack.pop()
        rule, children = node.rule, node.children
        atoms.append(rule)
        if children:
            for child in children:
                compounds.append(f"{rule}({child.rule})")
            if len(children) == 2:
                left, right = children
                compounds.append(f"{rule}({left.rule},{right.rule})")
            stack.extend(reversed(children))


def extract_atoms(trace: DerivationTrace) -> Counter:
    """One atom per rule application; the atom key is the rule id."""
    atoms = []
    _walk(trace, atoms, [])
    return Counter(atoms)


def extract_compounds(trace: DerivationTrace) -> Counter:
    """Local subtrees of depth 2: every (parent, child) pair and every
    (parent, left child, right child) triple."""
    compounds = []
    _walk(trace, [], compounds)
    return Counter(compounds)


def _check_args(examples: Iterable[Example], atom_alpha: float,
                compound_alpha: float) -> None:
    for alpha in (atom_alpha, compound_alpha):
        if not 0 < alpha < 1:
            raise DbcaError(f"alpha must be in (0, 1), got {alpha}")
    for ex in examples:
        if ex.derivation is None:
            raise DbcaError(f"example {ex.id!r} has no derivation trace")


def measure(train: Sequence[Example], test: Sequence[Example],
            atom_alpha: float = DEFAULT_ATOM_ALPHA,
            compound_alpha: float = DEFAULT_COMPOUND_ALPHA) -> DivergenceReport:
    """Divergence report for an existing partition (e.g. a released split),
    each side summed into one row and counted as build_mcd_split's report."""
    _check_args(chain(train, test), atom_alpha, compound_alpha)
    atoms, compounds = (Counter(), Counter()), (Counter(), Counter())
    for side, examples in enumerate((train, test)):
        for ex in examples:
            # One example's keys at a time: a whole side's list would cost memory.
            ex_atoms, ex_compounds = [], []
            _walk(ex.derivation, ex_atoms, ex_compounds)
            atoms[side].update(ex_atoms)
            compounds[side].update(ex_compounds)
    return _report(_id_rows(atoms), _id_rows(compounds), [0], [1],
                   atom_alpha, compound_alpha, len(train), len(test))


def _numbering():
    """A function from a Counter to its row: a tuple of (id, count) pairs,
    with keys numbered in first-seen order over all its calls; equal pairs
    are one shared tuple."""
    ids, pairs = {}, {}
    return lambda counts: tuple(pairs.setdefault(p, p) for p in
                                [(ids.setdefault(k, len(ids)), v) for k, v in counts.items()])


def _id_rows(counters) -> list[tuple]:
    """Each Counter as a row, numbered together by one _numbering."""
    row = _numbering()
    return [row(counts) for counts in counters]


def _example_rows(examples: Sequence[Example]) -> tuple[list, list]:
    """The atom rows and the compound rows of examples, as _id_rows of their
    extract_atoms and of their extract_compounds; each trace is walked once."""
    atom_row, compound_row = _numbering(), _numbering()
    atom_rows, compound_rows = [], []
    for ex in examples:
        atoms, compounds = [], []
        _walk(ex.derivation, atoms, compounds)
        atom_rows.append(atom_row(Counter(atoms)))
        compound_rows.append(compound_row(Counter(compounds)))
    return atom_rows, compound_rows


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
        # fsum: the fresh value depends on the counts, not on the key order.
        self.chernoff_sum = math.fsum(pa[c] * pb[d] for c, d in zip(self.train, self.test))
        self._pending = None

    def value(self) -> float:
        return self._value(self.chernoff_sum, self.train_total, self.test_total)

    def _value(self, chernoff_sum: float, train_total: int, test_total: int) -> float:
        if train_total <= 0 or test_total <= 0:
            # Two empty sides are equal; an empty and a non-empty one share nothing.
            return 0.0 if train_total == test_total == 0 else 1.0
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


def _report(atom_rows: Sequence[tuple], compound_rows: Sequence[tuple],
            train_idx, test_idx, atom_alpha: float, compound_alpha: float,
            train_size: int, test_size: int) -> DivergenceReport:
    """Rows train_idx against rows test_idx, counted afresh, atoms then compounds."""
    return DivergenceReport(
        _Divergence(atom_rows, train_idx, test_idx, atom_alpha).value(),
        _Divergence(compound_rows, train_idx, test_idx, compound_alpha).value(),
        atom_alpha, compound_alpha, train_size, test_size)


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

    Starts from `split random`'s partition for the same seed and
    train_fraction (splits.random_partition); then, drawing from the same
    rng, repeatedly proposes train/test example swaps and accepts strict
    improvements of |compound divergence - target| that keep the atom
    bound.  Stops after `iterations` consecutive proposals without
    improvement or after max_proposals in total.

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
    _check_args(examples, atom_alpha, compound_alpha)
    rng = random.Random(seed)
    train_idx, test_idx = random_partition(len(examples), rng, train_fraction)

    atom_rows, compound_rows = _example_rows(examples)
    atoms = _Divergence(atom_rows, train_idx, test_idx, atom_alpha)
    comps = _Divergence(compound_rows, train_idx, test_idx, compound_alpha)

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
    del atoms, comps
    report = _report(atom_rows, compound_rows, train_idx, test_idx,
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
