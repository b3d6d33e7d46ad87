"""Finite permutation groups at desk scale.

Groups are full element lists (closure from generators, breadth-first,
deterministic), so everything downstream can brute-force scan.  Grading
groups and quotients are carried as explicit multiplication tables.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .algebra import verify

Perm = tuple  # images of 0..n-1

DEFAULT_ORDER_CAP = 5000


class CapExceeded(RuntimeError):
    """Group enumeration grew beyond the configured order cap."""


def pmul(a: Perm, b: Perm) -> Perm:
    """Composite a∘b: apply b first, then a."""
    return tuple(a[b[x]] for x in range(len(a)))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def pconj(g: Perm, x: Perm) -> Perm:
    """g x g^-1."""
    return pmul(pmul(g, x), pinv(g))


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_order(a: Perm) -> int:
    e = identity_perm(len(a))
    x, n = a, 1
    while x != e:
        x = pmul(x, a)
        n += 1
    return n


def parse_cycles(s: str, degree: int) -> Perm:
    """Parse disjoint-cycle notation, e.g. "(0 1)(2 3)"; identity is "()"."""
    s = s.strip()
    if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+", s):
        raise ValueError(f"bad cycle notation: {s!r}")
    images = list(range(degree))
    for cyc in re.findall(r"\(([^()]*)\)", s):
        pts = [int(t) for t in cyc.split()]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {cyc!r}")
        for pt in pts:
            if pt >= degree:
                raise ValueError(f"point {pt} out of range for degree {degree}")
        for k, pt in enumerate(pts):
            images[pt] = pts[(k + 1) % len(pts)]
    if sorted(images) != list(range(degree)):
        raise ValueError(f"cycles are not disjoint: {s!r}")
    return tuple(images)


def format_cycles(a: Perm) -> str:
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = a[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = a[x]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group with its full, ordered element list."""

    degree: int
    generators: tuple
    elements: tuple
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {g: k for k, g in enumerate(self.elements)})

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self._index

    def index(self, g: Perm) -> int:
        return self._index[g]

    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(g in other for g in self.elements)

    def is_normal_in(self, other: "PermGroup") -> bool:
        mine = self.element_set()
        return self.is_subgroup_of(other) and all(
            pconj(x, g) in mine for x in other.generators for g in self.generators
        )

    def mult_table(self) -> np.ndarray:
        """t[i, j] = index of elements[i] * elements[j], or -1 where that
        product lies outside the element list."""
        e = np.array(self.elements, dtype=np.int64).reshape(self.order, self.degree)
        # a[e] holds a∘b for every element b, one row of the table at a time
        return np.array([[self._index.get(tuple(ab), -1) for ab in a[e].tolist()]
                         for a in e], dtype=np.int64)


def enumerate_group(gens, degree: int, cap: int = DEFAULT_ORDER_CAP) -> PermGroup:
    """Closure by breadth-first products, in deterministic order."""
    e = identity_perm(degree)
    gens = tuple(gens)
    for g in gens:
        if len(g) != degree:
            raise ValueError("generator degree mismatch")
    elements = [e]
    index = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in index:
                    index.add(y)
                    elements.append(y)
                    nxt.append(y)
                    if len(elements) > cap:
                        raise CapExceeded(f"group order exceeds cap {cap}")
        frontier = nxt
    return PermGroup(degree, gens, tuple(elements))


def from_elements(elements, degree: int) -> PermGroup:
    """Group from a known-closed element collection; sorted, deterministic."""
    elements = tuple(sorted(set(elements)))
    gens = []
    have = {identity_perm(degree)}
    for g in elements:
        if g not in have:
            gens.append(g)
            have = set(enumerate_group(gens, degree, cap=len(elements)).elements)
        if len(have) == len(elements):
            break
    return PermGroup(degree, tuple(gens), elements)


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, (), (identity_perm(degree),))


def normalizer(g: PermGroup, s: PermGroup) -> PermGroup:
    members = [x for x in g.elements if all(pconj(x, t) in s for t in s.generators)]
    return from_elements(members, g.degree)


def centralizer(g: PermGroup, s: PermGroup) -> PermGroup:
    members = [
        x for x in g.elements if all(pmul(x, t) == pmul(t, x) for t in s.generators)
    ]
    return from_elements(members, g.degree)


@dataclass(frozen=True)
class GroupTable:
    """An abstract finite group: elements 0..n-1 with a multiplication table.

    `labels` ties indices back to whatever the group was built from
    (coset representatives, automorphism pairs, ...).
    """

    table: np.ndarray
    labels: tuple

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def identity(self) -> int:
        """The first i whose row and column are both 0..n-1."""
        ar = np.arange(self.order)
        hits = np.flatnonzero((self.table == ar).all(axis=1)
                              & (self.table.T == ar).all(axis=1))
        if not len(hits):
            raise ValueError("no identity element; not a group table")
        return int(hits[0])

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        hits = np.flatnonzero(self.table[i] == self.identity)
        if not len(hits):
            raise ValueError("no inverse; not a group table")
        return int(hits[0])

    def spanning_tree(self) -> tuple:
        """(gens, steps): a greedy generating set, each element outside the
        subgroup the earlier ones generate, and steps (z, y, k) with
        z = y * gens[k] that reach every other element once, breadth-first
        from the identity; the first len(gens) steps reach the generators."""
        root, rows = self.identity, self.table.tolist()
        gens, steps, reached = [], [], {root}
        for x in range(self.order):
            if x in reached:
                continue
            gens.append(x)
            steps, reached, frontier = [], {root}, [root]
            while frontier:
                nxt = []
                for y in frontier:
                    for k, g in enumerate(gens):
                        z = rows[y][g]
                        if z not in reached:
                            reached.add(z)
                            steps.append((z, y, k))
                            nxt.append(z)
                frontier = nxt
        return gens, steps

    def validate(self) -> None:
        n = self.order
        t = self.table
        if t.shape != (n, n) or len(self.labels) != n:
            raise ValueError("malformed group table")
        ar = np.arange(n)
        if not ((np.sort(t, axis=1) == ar).all()
                and (np.sort(t, axis=0) == ar[:, None]).all()):
            raise ValueError("table rows/columns are not permutations")
        # t[t][i, j, k] = (ij)k and t[:, t][i, j, k] = i(jk)
        if (t[t] != t[:, t]).any():
            raise ValueError("table is not associative")
        self.identity  # raises if absent


def is_table_hom(m, t1: GroupTable, t2: GroupTable) -> bool:
    """Whether the index map m: t1 -> t2 respects the multiplication tables."""
    m = np.asarray(m, dtype=np.int64)
    return bool((m[t1.table] == t2.table[np.ix_(m, m)]).all())


@dataclass(frozen=True)
class QuotientSetup:
    """G, a normal subgroup H, coset representatives and omega: G -> G/H."""

    g: PermGroup
    h: PermGroup
    reps: tuple  # coset representatives, reps[0] = identity
    omega: dict  # element -> coset index
    group: GroupTable  # the quotient group on coset indices
    defects: tuple  # defects[d][e] = r_d r_e r_{de}^-1

    @property
    def order(self) -> int:
        return len(self.reps)

    def omega_of(self, x: Perm) -> int:
        return self.omega[x]

    def defect(self, d: int, e: int) -> Perm:
        """r_d r_e r_{de}^-1, the element of H by which the product of two
        representatives differs from the representative of its coset."""
        return self.defects[d][e]


def quotient(g: PermGroup, h: PermGroup) -> QuotientSetup:
    if not h.is_normal_in(g):
        raise ValueError("subgroup is not normal")
    omega = {}
    reps = []
    for x in g.elements:
        if x in omega:
            continue
        idx = len(reps)
        reps.append(x)
        for k in h.elements:
            omega[pmul(x, k)] = idx
    n = len(reps)
    inv = [pinv(r) for r in reps]
    t = np.zeros((n, n), dtype=np.int64)
    defects = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = pmul(reps[i], reps[j])
            t[i, j] = omega[prod]
            row.append(pmul(prod, inv[t[i, j]]))
        defects.append(tuple(row))
    return QuotientSetup(g, h, tuple(reps), omega, GroupTable(t, tuple(reps)),
                         tuple(defects))


def p_subgroups(g: PermGroup, p: int, cap: int = DEFAULT_ORDER_CAP):
    """All subgroups of p-power order, as PermGroups, deduplicated.

    Layered closure: every p-subgroup has a generating chain through
    smaller p-subgroups, so extending by single p-elements reaches all.
    """
    sylow_order = 1
    n = g.order
    while n % p == 0:
        sylow_order *= p
        n //= p
    p_elements = [x for x in g.elements if _is_p_power(perm_order(x), p)]
    found = {frozenset({identity_perm(g.degree)})}
    frontier = list(found)
    groups = {next(iter(found)): trivial_group(g.degree)}
    while frontier:
        nxt = []
        for key in frontier:
            base = groups[key]
            for x in p_elements:
                if x in key:
                    continue
                try:
                    cand = enumerate_group(
                        tuple(base.generators) + (x,), g.degree, cap=sylow_order
                    )
                except CapExceeded:
                    continue
                if not _is_p_power(cand.order, p):
                    continue
                ckey = cand.element_set()
                if ckey not in found:
                    found.add(ckey)
                    groups[ckey] = from_elements(cand.elements, g.degree)
                    nxt.append(ckey)
                    if len(found) > cap:
                        raise CapExceeded("too many p-subgroups")
        frontier = nxt
    return sorted(groups.values(), key=lambda s: (s.order, s.elements))


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def aut_group(p_grp: PermGroup):
    """All automorphisms of a p-group of order <= 64.

    Automorphisms are returned as index maps on p_grp.elements (tuples),
    found by brute force over generator-image tuples: each tuple extends
    along the table's spanning tree of right multiplications by the
    generators, and the map it gives is kept when it is a bijective table
    homomorphism.
    """
    if p_grp.order > 64:
        raise CapExceeded("aut_group order cap 64 exceeded")
    n = p_grp.order
    t = p_grp.mult_table()
    verify((t >= 0).all(), "the elements of P do not form a group")
    table = GroupTable(t, p_grp.elements)
    root, rows = table.identity, t.tolist()
    gens, steps = table.spanning_tree()
    orders = [perm_order(x) for x in p_grp.elements]
    cands = [[y for y in range(n) if orders[y] == orders[g]] for g in gens]
    auts = []
    for images in itertools.product(*cands):
        m = [root] * n
        for z, y, k in steps:
            m[z] = rows[m[y]][images[k]]
        if len(set(m)) == n and is_table_hom(m, table, table):
            auts.append(tuple(m))
    verify(tuple(range(n)) in auts, "the identity is not among the automorphisms")
    return auts


def aut_compose(a, b):
    """Automorphism composition a∘b as index maps."""
    return tuple(a[i] for i in b)
