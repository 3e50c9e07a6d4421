"""Finite quasi-order utilities: width, chain partitions, the Rado order.

Width comes with its proof. One maximum bipartite matching M gives a
partition into n - |M| chains, and König's theorem turns the same matching
into a minimum vertex cover whose uncovered elements form an antichain of
that size. Both are checked before any answer is returned, so the width is
proved at every size.

Graph sequences are quotiented before any width computation.  Under the
containment relations used here mutual containment forces equal size and
hence isomorphism, so the quotient is canonical-form deduplication.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import networkx as nx

from .multigraph import MultiGraph, canonical_form
from .relations import contains, parse_relation


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
    truncations stay pairwise incomparable in both directions.
    """
    if not m < n:
        raise ValueError("need m < n")
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


def _dilworth(p: FinitePoset) -> list[list[int]]:
    """Minimum chain partition, each chain ascending, proved by an antichain.

    A maximum matching M of left copies to right copies along the strict
    order links n - |M| chains.  The alternating search from the unmatched
    left copies marks a set Z, and (left copies outside Z) + (right copies
    in Z) is a minimum vertex cover (König).  The elements with neither copy
    in the cover form an antichain as large as the chain count, so both are
    optimal by weak duality (Fulkerson 1956).
    """
    _check_size(len(p))
    n = len(p)
    # left copy i is node i and right copy j is node n + j: integer nodes
    # hash the same in every run, so the matching does not vary with
    # PYTHONHASHSEED
    B = nx.Graph()
    B.add_nodes_from(range(2 * n))
    above = [[j for j in range(n) if i != j and p.le[i][j]] for i in range(n)]
    B.add_edges_from((i, n + j) for i in range(n) for j in above[i])
    match = nx.bipartite.maximum_matching(B, top_nodes=range(n))
    succ = {a: b - n for a, b in match.items() if a < n}
    pred = {j: i for i, j in succ.items()}
    chains = []
    for start in range(n):
        if start not in pred:
            chain = [start]
            while chain[-1] in succ:
                chain.append(succ[chain[-1]])
            chains.append(chain)
    left = [i for i in range(n) if i not in succ]
    reached_left, reached_right = set(left), set()
    while left:
        for j in above[left.pop()]:
            if j not in reached_right:
                if j not in pred:
                    raise AssertionError("matching is not maximum; bug")
                # pred[j] is matched, so only its partner j reaches it
                reached_right.add(j)
                reached_left.add(pred[j])
                left.append(pred[j])
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


# -- graph sequence prefixes --------------------------------------------------------


def _prefix_poset(prefix, relation, **caps):
    """Quotient a prefix by mutual containment, then build its poset.

    Literal repeats are collapsed up front; the remaining merging falls out
    of the containment matrix itself (mutual containment here means
    isomorphism, since strict steps always lose size).
    """
    relation = parse_relation(relation)
    reps = []
    last_pos = []
    seen = {}
    for pos, g in enumerate(prefix):
        key = (g.n, g.edges)
        if key in seen:
            last_pos[seen[key]] = pos
        else:
            seen[key] = len(reps)
            reps.append(g)
            last_pos.append(pos)
    n = len(reps)
    raw = [[i == j or contains(relation, reps[i], reps[j], **caps)
            for j in range(n)] for i in range(n)]
    keep = [i for i in range(n)
            if not any(raw[i][j] and raw[j][i] for j in range(i))]
    for i in range(n):
        if i not in keep:
            twin = next(j for j in keep if raw[i][j] and raw[j][i])
            last_pos[twin] = max(last_pos[twin], last_pos[i])
    reps = [reps[i] for i in keep]
    last_pos = [last_pos[i] for i in keep]
    le = tuple(tuple(raw[i][j] for j in keep) for i in keep)
    poset = FinitePoset(tuple(range(len(keep))), le)
    return poset, reps, last_pos


def sequence_width(prefix, relation, **caps) -> int:
    """Width of the prefix under the relation, after the equivalence quotient."""
    if not prefix:
        return 0
    poset, _, _ = _prefix_poset(prefix, relation, **caps)
    return poset_width(poset)


@dataclass(frozen=True)
class RationalizedChain:
    graphs: tuple[MultiGraph, ...]
    growing: bool


@dataclass(frozen=True)
class RationalizeResult:
    chains: tuple[RationalizedChain, ...]
    #: growing chains with no other growing chain strictly below them
    candidates: tuple[RationalizedChain, ...]


def rationalize(prefix, relation, **caps) -> RationalizeResult:
    """Split a prefix into width-many chains and flag the growing ones.

    A chain counts as growing when its top element was last seen in the
    final quarter of the prefix; that is a reported heuristic standing in
    for which chains would keep growing, not a verified property.
    """
    poset, reps, last_pos = _prefix_poset(prefix, relation, **caps)
    cutoff = len(prefix) - max(1, -(-len(prefix) // 4))
    parts = chain_partition(poset)
    sizes = Counter((reps[c[0]].n, reps[c[0]].total_units) for c in parts)

    def enum_order(c):
        # enum_key order; canonical forms only break ties of size
        g = reps[c[0]]
        tied = sizes[g.n, g.total_units] > 1
        return (g.n, g.total_units, canonical_form(g) if tied else b"")

    parts.sort(key=enum_order)
    chains = [RationalizedChain(tuple(reps[i] for i in c),
                                last_pos[c[-1]] >= cutoff) for c in parts]

    def chain_le(a, b):
        return all(any(poset.le[x][y] for y in parts[b]) for x in parts[a])

    growing = [a for a, c in enumerate(chains) if c.growing]
    candidates = tuple(
        chains[a] for a in growing
        if not any(b != a and chain_le(b, a) and not chain_le(a, b)
                   for b in growing))
    return RationalizeResult(tuple(chains), candidates)
