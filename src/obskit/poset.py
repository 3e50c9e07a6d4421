"""Finite quasi-order utilities: width, chain partitions, the Rado order.

Width comes with its proof. One maximum bipartite matching M, grown by
Kuhn's augmenting paths, gives a partition into n - |M| chains, and
König's theorem turns the same matching into a minimum vertex cover whose
uncovered elements form an antichain of that size. Both are checked
before any answer is returned, so the width is proved at every size.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FinitePoset:
    """Labelled finite partial order; axioms are checked on construction."""

    labels: tuple
    le: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        if len(self.le) != n or any(len(row) != n for row in self.le):
            raise ValueError("order matrix shape must match the label count")
        for i in range(n):
            if not self.le[i][i]:
                raise ValueError(f"not reflexive at {self.labels[i]!r}")
        for i in range(n):
            for j in range(n):
                if i != j and self.le[i][j] and self.le[j][i]:
                    raise ValueError(
                        f"antisymmetry fails between {self.labels[i]!r} "
                        f"and {self.labels[j]!r}")
                if self.le[i][j]:
                    for k in range(n):
                        if self.le[j][k] and not self.le[i][k]:
                            raise ValueError(
                                f"transitivity fails via {self.labels[j]!r}")

    def __len__(self):
        return len(self.labels)

    @property
    def index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def leq(self, a, b) -> bool:
        idx = self.index
        return self.le[idx[a]][idx[b]]


def poset_from_relations(labels, pairs) -> FinitePoset:
    """Reflexive-transitive closure of the given `a <= b` pairs.

    Raises if the closure is not antisymmetric (a cycle through distinct
    elements).
    """
    labels = tuple(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    le = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        le[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                row_k = le[k]
                row_i = le[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return FinitePoset(labels, tuple(tuple(row) for row in le))


def format_poset_text(p: FinitePoset) -> str:
    lines = [f"elem {lab}" for lab in p.labels]
    n = len(p.labels)
    for i in range(n):
        for j in range(n):
            if i != j and p.le[i][j]:
                lines.append(f"le {p.labels[i]} {p.labels[j]}")
    return "\n".join(lines) + "\n"


def parse_poset_text(text: str) -> FinitePoset:
    labels = []
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "elem" and len(parts) == 2:
            labels.append(parts[1])
        elif parts[0] == "le" and len(parts) == 3:
            pairs.append((parts[1], parts[2]))
        else:
            raise ValueError(f"bad poset line: {raw!r}")
    known = set(labels)
    for a, b in pairs:
        if a not in known or b not in known:
            raise ValueError(f"le references unknown element: {a} {b}")
    _check_size(len(labels))
    return poset_from_relations(labels, pairs)


# -- the Rado order -----------------------------------------------------------------


def rado_order(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """(i,j) lies below (i',j') when i = i' and j <= j', or when j < i'."""
    i, j = a
    i2, j2 = b
    if not (0 <= i < j and 0 <= i2 < j2):
        raise ValueError("Rado elements are pairs (i, j) with 0 <= i < j")
    return (i == i2 and j <= j2) or j < i2


def rado_truncation(n: int) -> FinitePoset:
    """The Rado order restricted to pairs (i, j) with 0 <= i < j <= n."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_size(n * (n + 1) // 2)
    elems = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    le = tuple(tuple(rado_order(a, b) for b in elems) for a in elems)
    return FinitePoset(tuple(elems), le)


def set_below(le, xs, ys) -> bool:
    """Every element of xs lies below some element of ys (empty xs: true)."""
    return all(any(le(x, y) for y in ys) for x in xs)


def rado_star_antichain_witness(m: int, n: int) -> bool:
    """Whether the truncated bad family is pairwise incomparable.

    The sets A_i = {(i, j) | i < j <= n} for 1 <= i <= m.  Row i keeps the
    element (i, min(i', n)) that no row-i' element sits above, and row i'
    keeps (i', i'+1) that no row-i element sits below, so deep enough
    truncations stay pairwise incomparable in both directions.  n may not
    exceed `MAX_POSET_SIZE`.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    _check_size(n)
    rows = [[(i, j) for j in range(i + 1, n + 1)] for i in range(1, m + 1)]
    for a in range(len(rows)):
        for b in range(len(rows)):
            if a != b and set_below(rado_order, rows[a], rows[b]):
                return False
    return True


# -- width and chain partitions -----------------------------------------------------

MAX_POSET_SIZE = 200


def _check_size(n: int):
    if n > MAX_POSET_SIZE:
        raise ValueError(f"poset too large ({n} > {MAX_POSET_SIZE})")


def _augment(i, above, pred, seen) -> bool:
    """Kuhn's depth-first search for an augmenting path from left copy i.

    Marks the right copies it reaches in `seen`, and flips a path it finds
    into `pred`, which maps each matched right copy to its left copy.
    """
    for j in above[i]:
        if j not in seen:
            seen.add(j)
            if j not in pred or _augment(pred[j], above, pred, seen):
                pred[j] = i
                return True
    return False


def _matching(above) -> dict:
    """Maximum matching of left copies to right copies, as `pred`."""
    pred = {}
    for i in range(len(above)):
        _augment(i, above, pred, set())
    return pred


def _dilworth(p: FinitePoset) -> list[list[int]]:
    """Minimum chain partition, each chain ascending, proved by an antichain.

    A maximum matching M of left copies to right copies along the strict
    order links n - |M| chains.  One more augmenting round from the
    unmatched left copies must fail; what it reaches, with the partners of
    the right copies reached, is a set Z, and (left copies outside Z) +
    (right copies in Z) is a minimum vertex cover (König).  The elements
    with neither copy in the cover form an antichain as large as the chain
    count, so both are optimal by weak duality (Fulkerson 1956).
    """
    _check_size(len(p))
    n = len(p)
    above = [[j for j in range(n) if i != j and p.le[i][j]] for i in range(n)]
    pred = _matching(above)
    succ = {i: j for j, i in pred.items()}
    chains = []
    for start in range(n):
        if start not in pred:
            chain = [start]
            while chain[-1] in succ:
                chain.append(succ[chain[-1]])
            chains.append(chain)
    free = [i for i in range(n) if i not in succ]
    reached_right = set()
    if any(_augment(i, above, pred, reached_right) for i in free):
        raise AssertionError("matching is not maximum; bug")
    reached_left = set(free) | {pred[j] for j in reached_right}
    anti = sorted(reached_left - reached_right)
    if (len(anti) != len(chains)
            or any(p.le[a][b] for a in anti for b in anti if a != b)
            or sorted(x for c in chains for x in c) != list(range(n))
            or not all(p.le[a][b] for c in chains for a, b in zip(c, c[1:]))):
        raise AssertionError(
            f"{len(chains)} chains not certified by antichain of {len(anti)}; bug")
    return chains


def poset_width(p: FinitePoset) -> int:
    return len(_dilworth(p))


def chain_partition(p: FinitePoset) -> list[list]:
    """Partition into exactly poset_width(p) chains, each sorted ascending."""
    return sorted(([p.labels[i] for i in c] for c in _dilworth(p)),
                  key=lambda c: str(c[0]))
