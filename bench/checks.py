"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

SCAN_JSONL_SHA256 = "949e0b44926d280d8c32fab60647d2e3408caedc8f77ae52f01e1d84726d6def"
SCAN_JSONL_BYTES = 8_037_862

# `dbca analyze` of the seed-independent holdouts on the generated set
# (default alphas): (atom divergence, compound divergence).
PINNED_DIVERGENCE = {
    "primitive": (0.09481244080073459, 0.15585297973734813),
    "template": (0.05818199719396777, 0.1754722423116074),
    "length": (0.03897150452591358, 0.0485118000717355),
}
DIVERGENCE_TOLERANCE = 1e-9


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_generated(path) -> list:
    size = os.path.getsize(path)
    digest = sha256_file(path)
    if size != SCAN_JSONL_BYTES or digest != SCAN_JSONL_SHA256:
        return [f"scan generate: {size} bytes, sha256 {digest}"]
    return []


def check_text(stage: str, path, expected: str) -> list:
    with open(path, encoding="utf-8") as fh:
        got = fh.read()
    if got == expected:
        return []
    got_lines, exp_lines = got.splitlines(), expected.splitlines()
    bad = next((i for i, (a, b) in enumerate(zip(got_lines, exp_lines)) if a != b),
               min(len(got_lines), len(exp_lines)))
    return [f"{stage}: first difference at line {bad + 1}"]


def check_split(kind: str, path, train: list, test: list) -> list:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    problems = []
    if obj["train"] != train:
        problems.append(f"split {kind}: train ids differ")
    if obj["test"] != test:
        problems.append(f"split {kind}: test ids differ")
    return problems


def check_divergence(kind: str, path, train_size: int, test_size: int,
                     expected=None) -> list:
    """expected is (atom, compound) from the pin table or from the first
    pass of the run; None checks only sizes and ranges."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    problems = []
    if (obj["train_size"], obj["test_size"]) != (train_size, test_size):
        problems.append(f"dbca analyze {kind}: sizes {obj['train_size']}/{obj['test_size']}")
    got = (obj["atom_divergence"], obj["compound_divergence"])
    if not all(0 <= v <= 1 for v in got):
        problems.append(f"dbca analyze {kind}: divergence out of [0, 1]: {got}")
    elif expected is not None and any(
            abs(g - e) > DIVERGENCE_TOLERANCE for g, e in zip(got, expected)):
        problems.append(f"dbca analyze {kind}: {got}, expected {expected}")
    return problems


def check_prefixed(path, expected_inputs: list) -> list:
    """expected_inputs holds the input tokens of every example, in order,
    after prefixing."""
    problems = []
    n = 0
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if (n > len(expected_inputs)
                    or tuple(json.loads(line)["input"]) != expected_inputs[n - 1]):
                problems.append(f"prep cgps-prefix: line {n} differs")
                break
    if not problems and n != len(expected_inputs):
        problems.append(f"prep cgps-prefix: {n} lines, expected {len(expected_inputs)}")
    return problems


def check_score(path, expected_accuracies: list) -> list:
    """Accuracies are compared exactly: both sides are count / n."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    got = obj["replica_accuracies"]
    problems = []
    if got != expected_accuracies:
        problems.append(f"eval score: replica accuracies {got}, expected {expected_accuracies}")
    mean = sum(expected_accuracies) / len(expected_accuracies)
    if not math.isclose(obj["mean"], mean, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"eval score: mean {obj['mean']}, expected {mean}")
    return problems


def check_breakdown(path, expected_rows: list) -> list:
    """expected_rows: (low, high, train_count, test_count, accuracy or None,
    unseen) per bucket.  The CSV prints accuracy with six digits."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(expected_rows):
        return [f"eval length-breakdown: {len(rows)} buckets, expected {len(expected_rows)}"]
    for row, exp in zip(rows, expected_rows):
        low, high, n_train, n_test, acc, unseen = row
        ints_ok = (int(low), int(high), int(n_train), int(n_test), bool(int(unseen))) == \
            (exp[0], exp[1], exp[2], exp[3], exp[5])
        acc_ok = (acc == "" and exp[4] is None) or (
            acc != "" and exp[4] is not None and abs(float(acc) - exp[4]) <= 1e-6)
        if not (ints_ok and acc_ok):
            return [f"eval length-breakdown: bucket {row}, expected {exp}"]
    return []


def check_mcd(all_ids: list, train_ids, test_ids, atom_divergence: float,
              compound_divergence: float, target: float, atom_bound: float,
              tolerance: float) -> list:
    """The split partitions the set exactly and dbca.measure of it meets the
    atom bound and lands within tolerance of the target."""
    problems = []
    train, test = set(train_ids), set(test_ids)
    if (len(train) != len(train_ids) or len(test) != len(test_ids) or train & test
            or train | test != set(all_ids)):
        problems.append("mcd: split does not partition the set")
    if atom_divergence > atom_bound:
        problems.append(f"mcd: atom divergence {atom_divergence} > {atom_bound}")
    if abs(compound_divergence - target) > tolerance:
        problems.append(f"mcd: compound divergence {compound_divergence}, target {target}")
    return problems


def check_encoded(level: str, encoded: list, expected: list) -> list:
    """Encoder output must equal the reference IR text of the generator,
    which is canonical for f3 and decodes back to the original clause set."""
    bad = [i for i, (got, ref) in enumerate(zip(encoded, expected)) if got != ref]
    if len(encoded) != len(expected):
        return [f"ir encode {level}: {len(encoded)} outputs for {len(expected)} queries"]
    if bad:
        return [f"ir encode {level}: {len(bad)} outputs differ from the reference, "
                f"first at query {bad[0]}"]
    return []


def check_accuracy(level: str, got: dict, expected: float) -> list:
    if got != {0: expected}:
        return [f"ir score {level}: {got}, expected {{0: {expected}}}"]
    return []
