"""Reference definitions for the DBCA tests, kept out of compgen.dbca:
the divergence formula over normalized distributions, and the nodes of a
derivation trace by the recursive definition.  compgen counts both with
explicit stacks and integer rows; the tests check it against these.
"""

from compgen.dbca import DbcaError


def divergence(p, q, alpha):
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


def nodes(trace):
    """Every node of trace in preorder, the node itself first."""
    yield trace
    for child in trace.children:
        yield from nodes(child)
