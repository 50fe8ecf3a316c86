"""Distribution-based compositionality assessment: atom/compound
extraction from derivation traces, Chernoff-style divergence between
example sets, and greedy construction of maximum-compound-divergence
splits with a bounded atom divergence."""

from __future__ import annotations

import random
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


class _SideCounts:
    """Unnormalized key counts for one side of the partition, with the
    Chernoff sums maintained incrementally across swaps."""

    __slots__ = ("counts", "total")

    def __init__(self):
        self.counts = {}
        self.total = 0.0

    def add(self, delta: Counter, sign: int):
        counts = self.counts
        for k, v in delta.items():
            new = counts.get(k, 0.0) + sign * v
            if new <= 0:
                counts.pop(k, None)
            else:
                counts[k] = new
            self.total += sign * v


class _Divergence:
    """Incremental 1 - sum((c/C)^a * (d/D)^(1-a)) over a train/test pair of
    count maps."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.train = _SideCounts()
        self.test = _SideCounts()
        self.chernoff_sum = 0.0

    def init_sum(self):
        a = self.alpha
        c, d = self.train.counts, self.test.counts
        self.chernoff_sum = sum(v ** a * d[k] ** (1 - a)
                                for k, v in c.items() if k in d)

    def _term(self, k) -> float:
        c = self.train.counts.get(k, 0.0)
        if c <= 0:
            return 0.0
        d = self.test.counts.get(k, 0.0)
        if d <= 0:
            return 0.0
        return c ** self.alpha * d ** (1 - self.alpha)

    def value(self) -> float:
        if self.train.total <= 0 or self.test.total <= 0:
            return 1.0
        norm = self.train.total ** self.alpha * self.test.total ** (1 - self.alpha)
        return min(max(1.0 - self.chernoff_sum / norm, 0.0), 1.0)

    def apply_swap(self, out_delta: Counter, in_delta: Counter):
        """Move out_delta from train to test and in_delta from test to train."""
        keys = set(out_delta) | set(in_delta)
        before = sum(self._term(k) for k in keys)
        self.train.add(out_delta, -1)
        self.train.add(in_delta, +1)
        self.test.add(out_delta, +1)
        self.test.add(in_delta, -1)
        after = sum(self._term(k) for k in keys)
        self.chernoff_sum += after - before

    def revert_swap(self, out_delta: Counter, in_delta: Counter):
        self.apply_swap(in_delta, out_delta)


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
    max_proposals in total.  Deterministic for a fixed seed.
    """
    if not 0 <= target_compound_divergence <= 1:
        raise DbcaError("target compound divergence must be in [0, 1]")
    if not 0 < train_fraction < 1:
        raise DbcaError("train_fraction must be in (0, 1)")
    for ex in examples:
        if ex.derivation is None:
            raise DbcaError(f"example {ex.id!r} has no derivation trace")
    if len(examples) < 2:
        raise DbcaError("need at least two examples")

    atom_counts = [extract_atoms(ex.derivation) for ex in examples]
    comp_counts = [extract_compounds(ex.derivation) for ex in examples]

    rng = random.Random(seed)
    order = list(range(len(examples)))
    rng.shuffle(order)
    cut = int(round(train_fraction * len(order)))
    cut = min(max(cut, 1), len(order) - 1)
    train_idx, test_idx = order[:cut], order[cut:]

    atoms = _Divergence(atom_alpha)
    comps = _Divergence(compound_alpha)
    for i in train_idx:
        atoms.train.add(atom_counts[i], +1)
        comps.train.add(comp_counts[i], +1)
    for i in test_idx:
        atoms.test.add(atom_counts[i], +1)
        comps.test.add(comp_counts[i], +1)
    atoms.init_sum()
    comps.init_sum()

    def objective() -> float:
        return abs(comps.value() - target_compound_divergence)

    cur_obj = objective()
    cur_atom = atoms.value()
    no_improve = 0
    proposals = 0
    while no_improve < iterations and proposals < max_proposals:
        proposals += 1
        ti = rng.randrange(len(train_idx))
        si = rng.randrange(len(test_idx))
        out_i, in_i = train_idx[ti], test_idx[si]
        a_out, a_in = atom_counts[out_i], atom_counts[in_i]
        c_out, c_in = comp_counts[out_i], comp_counts[in_i]

        atoms.apply_swap(a_out, a_in)
        comps.apply_swap(c_out, c_in)
        new_atom = atoms.value()
        new_obj = objective()

        if cur_atom > max_atom_divergence:
            # Repair phase: first get under the atom bound.
            accept = new_atom < cur_atom - 1e-12
        else:
            accept = new_atom <= max_atom_divergence and new_obj < cur_obj - 1e-12
        if accept:
            train_idx[ti], test_idx[si] = in_i, out_i
            cur_obj, cur_atom = new_obj, new_atom
            no_improve = 0
        else:
            atoms.revert_swap(a_out, a_in)
            comps.revert_swap(c_out, c_in)
            no_improve += 1

    train = [examples[i] for i in sorted(train_idx)]
    test = [examples[i] for i in sorted(test_idx)]
    report = measure(train, test, atom_alpha, compound_alpha)
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
    result = SplitResult(spec, tuple(ex.id for ex in train),
                         tuple(ex.id for ex in test),
                         {"train_size": len(train), "test_size": len(test),
                          "divergence": report.to_jsonable()})
    return result, report
