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
from typing import Iterable, Sequence

from .data import DerivationTrace, Example
from .splits import SplitResult, SplitSpec, random_partition, split_result

DEFAULT_ATOM_ALPHA = 0.5
DEFAULT_COMPOUND_ALPHA = 0.1


class DbcaError(ValueError):
    pass


class InfeasibleSplitError(DbcaError):
    pass


class MissingTraceError(DbcaError):
    """An example without the derivation trace that divergences count."""


@dataclass(frozen=True)
class DivergenceReport:
    atom_divergence: float
    compound_divergence: float
    atom_alpha: float
    compound_alpha: float
    train_size: int
    test_size: int


def _walk(trace: DerivationTrace, atoms: list, compounds: list) -> None:
    """Append the atoms and the compounds of trace to the two lists, in the
    order extract_atoms and extract_compounds first see their keys: nodes in
    preorder.  The walk goes on to a node's first child in a loop, and only
    the later children wait on an explicit stack, so that no depth is too
    deep and a one-child node costs no push."""
    stack, node = [], trace
    while True:
        rule, children = node.rule, node.children
        atoms.append(rule)
        if children:
            for child in children:
                compounds.append(f"{rule}({child.rule})")
            node = children[0]
            if len(children) == 2:
                right = children[1]
                compounds.append(f"{rule}({node.rule},{right.rule})")
                stack.append(right)
            elif len(children) > 2:
                stack.extend(children[:0:-1])
        elif stack:
            node = stack.pop()
        else:
            return


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


def _check_args(atom_alpha: float, compound_alpha: float) -> None:
    for alpha in (atom_alpha, compound_alpha):
        if not 0 < alpha < 1:
            raise DbcaError(f"alpha must be in (0, 1), got {alpha}")


def measure(train: Sequence[Example], test: Sequence[Example],
            atom_alpha: float = DEFAULT_ATOM_ALPHA,
            compound_alpha: float = DEFAULT_COMPOUND_ALPHA) -> DivergenceReport:
    """Divergence report for an existing partition (e.g. a released split):
    each side is one row of _rows, counted as build_mcd_split's report."""
    _check_args(atom_alpha, compound_alpha)
    atom_rows, compound_rows = _rows((train, test))
    return _report(_Divergence(atom_rows, [0], [1], atom_alpha),
                   _Divergence(compound_rows, [0], [1], compound_alpha),
                   len(train), len(test))


def _numbering():
    """A function from a Counter to its row: a tuple of (id, count) pairs,
    with keys numbered in first-seen order over all its calls; equal pairs
    are one shared tuple."""
    ids, pairs = {}, {}
    return lambda counts: tuple(pairs.setdefault(p, p) for p in
                                [(ids.setdefault(k, len(ids)), v) for k, v in counts.items()])


# The atom keys _rows collects from a group's traces before it counts them:
# a group of few examples is counted once, a large one in bounded batches.
_BATCH = 4096


def _rows(groups: Iterable[Iterable[Example]]) -> tuple[list, list]:
    """One atom row and one compound row per group of examples: the sum of
    the group's extract_atoms, and of its extract_compounds, as rows of one
    _numbering per kind.  Each trace is walked once into two key lists,
    which go to the group's Counters whenever the atom list passes _BATCH
    keys and at the group's end: a group is not counted one example at a
    time, nor held as one whole list."""
    atom_row, compound_row = _numbering(), _numbering()
    atom_rows, compound_rows = [], []
    for group in groups:
        atoms, compounds = Counter(), Counter()
        batch_atoms, batch_compounds = [], []
        for ex in group:
            if ex.derivation is None:
                raise MissingTraceError(f"example {ex.id!r} has no derivation trace")
            _walk(ex.derivation, batch_atoms, batch_compounds)
            if len(batch_atoms) > _BATCH:
                atoms.update(batch_atoms)
                compounds.update(batch_compounds)
                batch_atoms, batch_compounds = [], []
        atoms.update(batch_atoms)
        compounds.update(batch_compounds)
        atom_rows.append(atom_row(atoms))
        compound_rows.append(compound_row(compounds))
    return atom_rows, compound_rows


class _Divergence:
    """1 - sum((c/C)^a * (d/D)^(1-a)) over the integer key counts c (train)
    and d (test) of a partition.  propose() scores a swap from its net
    per-key delta; the state changes only on commit()."""

    def __init__(self, rows: Sequence[tuple], train_idx, test_idx, alpha: float):
        self.rows, self.alpha, self.beta = rows, alpha, 1 - alpha
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
        self.pow_test = array("d", [0.0] + [float(d) ** self.beta for d in range(1, top + 1)])
        pa, pb = self.pow_train, self.pow_test
        # Each key's term c**a * d**(1-a), rewritten when its counts change.
        # fsum: the fresh value depends on the counts, not on the key order.
        self.terms = [pa[c] * pb[d] for c, d in zip(self.train, self.test)]
        self.chernoff_sum = math.fsum(self.terms)
        self._pending = None

    def value(self) -> float:
        return self._value(self.chernoff_sum, self.train_total, self.test_total)

    def _value(self, chernoff_sum: float, train_total: int, test_total: int) -> float:
        if train_total <= 0 or test_total <= 0:
            # Two empty sides are equal; an empty and a non-empty one share nothing.
            return 0.0 if train_total == test_total == 0 else 1.0
        value = 1.0 - chernoff_sum / (train_total ** self.alpha * test_total ** self.beta)
        return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    def propose(self, out_i: int, in_i: int) -> float:
        """The value after moving example out_i from train to test and
        example in_i from test to train."""
        delta = dict(self.rows[out_i])
        for k, v in self.rows[in_i]:
            delta[k] = delta.get(k, 0) - v
        train, test, pa, pb, terms = (self.train, self.test, self.pow_train,
                                      self.pow_test, self.terms)
        before = after = 0.0
        for k, v in delta.items():
            if v:
                before += terms[k]
                after += pa[train[k] - v] * pb[test[k] + v]
        chernoff_sum = self.chernoff_sum + (after - before)
        shift = sum(delta.values())  # the size of row out_i less that of row in_i
        self._pending = delta, chernoff_sum, shift
        return self._value(chernoff_sum, self.train_total - shift,
                           self.test_total + shift)

    def commit(self):
        """Apply the last proposal."""
        delta, self.chernoff_sum, shift = self._pending
        train, test, pa, pb, terms = (self.train, self.test, self.pow_train,
                                      self.pow_test, self.terms)
        for k, v in delta.items():
            if v:
                c = train[k] = train[k] - v
                d = test[k] = test[k] + v
                terms[k] = pa[c] * pb[d]
        self.train_total -= shift
        self.test_total += shift


def _report(atoms: _Divergence, comps: _Divergence, train_size: int,
            test_size: int) -> DivergenceReport:
    """The report of an atom and a compound state, each Chernoff sum taken
    afresh from the kept terms (a recount of the rows: a term comes from its
    key's counts alone), so that no drift reaches it.  Changes no state."""
    atom_div, comp_div = (s._value(math.fsum(s.terms), s.train_total, s.test_total)
                          for s in (atoms, comps))
    return DivergenceReport(atom_div, comp_div, atoms.alpha, comps.alpha,
                            train_size, test_size)


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
    read from tables, and changes nothing unless it is accepted.  While the
    atom divergence is above the bound (repair), the atom side is scored
    first and the compound side only when the atom divergence falls; after
    that, the compound side is scored first and the atom side only when the
    objective improves.  Each key's term of the Chernoff sum is kept, so a
    proposal reads the terms it replaces.  Swap positions are drawn with
    getrandbits exactly as rng.randrange draws them.  No step depends on
    hash order, so the split is a function of the arguments.
    The report is _report of the final search state.
    """
    if not 0 <= target_compound_divergence <= 1:
        raise DbcaError("target compound divergence must be in [0, 1]")
    if not 0 <= max_atom_divergence <= 1:
        raise DbcaError(f"max atom divergence must be in [0, 1], got {max_atom_divergence}")
    if iterations < 0:
        raise DbcaError(f"iterations must be >= 0, got {iterations}")
    _check_args(atom_alpha, compound_alpha)
    # Counting draws nothing from rng: a missing trace is reported first.
    atom_rows, compound_rows = _rows(zip(examples))
    rng = random.Random(seed)
    train_idx, test_idx = random_partition(len(examples), rng, train_fraction)
    atoms = _Divergence(atom_rows, train_idx, test_idx, atom_alpha)
    comps = _Divergence(compound_rows, train_idx, test_idx, compound_alpha)

    cur_obj = abs(comps.value() - target_compound_divergence)
    cur_atom = atoms.value()
    no_improve = 0
    proposals = 0
    # Swap positions drawn as rng.randrange(n) draws them: getrandbits of
    # n's bit length until the value is below n.  Neither side is empty.
    getrandbits = rng.getrandbits
    n_train, n_test = len(train_idx), len(test_idx)
    train_bits, test_bits = n_train.bit_length(), n_test.bit_length()
    while no_improve < iterations and proposals < max_proposals:
        proposals += 1
        ti = getrandbits(train_bits)
        while ti >= n_train:
            ti = getrandbits(train_bits)
        si = getrandbits(test_bits)
        while si >= n_test:
            si = getrandbits(test_bits)
        out_i, in_i = train_idx[ti], test_idx[si]
        if cur_atom > max_atom_divergence:
            # Repair phase: first get under the atom bound.
            new_atom = atoms.propose(out_i, in_i)
            accept = new_atom < cur_atom - 1e-12
            if accept:
                new_obj = abs(comps.propose(out_i, in_i) - target_compound_divergence)
        else:
            # Few swaps improve the objective, so it is scored first.
            new_obj = abs(comps.propose(out_i, in_i) - target_compound_divergence)
            accept = new_obj < cur_obj - 1e-12
            if accept:
                new_atom = atoms.propose(out_i, in_i)
                accept = new_atom <= max_atom_divergence
        if accept:
            atoms.commit()
            comps.commit()
            train_idx[ti], test_idx[si] = in_i, out_i
            cur_obj, cur_atom = new_obj, new_atom
            no_improve = 0
        else:
            no_improve += 1

    train_idx.sort()
    test_idx.sort()
    report = _report(atoms, comps, len(train_idx), len(test_idx))
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
    return split_result(spec, [examples[i].id for i in train_idx],
                        [examples[i].id for i in test_idx], divergence=asdict(report)), report
