"""Finite partial orders over opaque string identifiers.

The order is stored as a dense boolean matrix over a canonical element
sequence (input order), kept reflexively and transitively closed.  All
values are immutable after construction and all operations are pure.

Bounds and the lattice test run on a bitset view built from the matrix
on first use and cached on the poset.  The view fixes a linear extension:
the elements sorted by down-set size, ties broken by index.  Since p < q
makes the down-set of p a proper subset of that of q, every element comes
after all elements below it, so the least member of a set that has one is
its lowest-ranked member, and the greatest is its highest-ranked one.
Each element's up-set and down-set is a Python int whose bit r stands for
the element of rank r.
"""

from __future__ import annotations

import numpy as np

from .errors import CycleError, EmptyPoset, UnknownElement


class Poset:
    """A finite partial order.

    Attributes:
        elements: canonical tuple of distinct identifiers.
        matrix:   read-only boolean matrix; matrix[i, j] iff elements[i] <= elements[j].
    """

    __slots__ = ("elements", "matrix", "_index", "_bits")

    def __init__(self, elements, matrix):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate elements in poset carrier")
        matrix = np.array(matrix, dtype=bool)
        n = len(elements)
        if matrix.shape != (n, n):
            raise ValueError("order matrix shape does not match carrier")
        if n and not matrix.diagonal().all():
            raise ValueError("order matrix is not reflexive")
        closed = matrix | (matrix @ matrix)
        if (closed != matrix).any():
            raise ValueError("order matrix is not transitively closed")
        sym = matrix & matrix.T & ~np.eye(n, dtype=bool)
        if sym.any():
            i, j = map(int, np.argwhere(sym)[0])
            raise CycleError([elements[i], elements[j], elements[i]])
        matrix.setflags(write=False)
        self.elements = elements
        self.matrix = matrix
        self._index = {e: i for i, e in enumerate(elements)}
        self._bits = None

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self._index

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.elements, self.matrix.tobytes()))

    def __repr__(self):
        return f"Poset({list(self.elements)!r}, {len(self)} elements)"

    def index(self, p):
        try:
            return self._index[p]
        except KeyError:
            raise UnknownElement(f"unknown element {p!r}") from None

    def leq(self, p, q):
        return bool(self.matrix[self.index(p), self.index(q)])

    def lt(self, p, q):
        return p != q and self.leq(p, q)

    def incomparable(self, p, q):
        return not self.leq(p, q) and not self.leq(q, p)

    def down_set(self, p):
        """All q with q <= p."""
        i = self.index(p)
        return {self.elements[j] for j in np.flatnonzero(self.matrix[:, i])}

    def up_set(self, p):
        """All q with p <= q."""
        i = self.index(p)
        return {self.elements[j] for j in np.flatnonzero(self.matrix[i, :])}

    def strict_matrix(self):
        return self.matrix & ~np.eye(len(self), dtype=bool)

    def _order_bits(self):
        """The _OrderBits view of this order, built on first use."""
        if self._bits is None:
            self._bits = _OrderBits(self.matrix)
        return self._bits


def _row_ints(rows):
    """Each row of a boolean matrix as an int with bit k = row[k]."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class _OrderBits:
    """Up-sets and down-sets as ints over ranks in a linear extension.

    Attributes:
        ext:     element indices sorted by (down-set size, index).
        up:      up[i] has bit rank(j) set iff elements[i] <= elements[j].
        down:    down[i] has bit rank(j) set iff elements[j] <= elements[i].
        lattice: memoised is_lattice verdict, None until computed.
    """

    __slots__ = ("ext", "up", "down", "full", "lattice")

    def __init__(self, matrix):
        ext = np.argsort(matrix.sum(axis=0), kind="stable")
        self.ext = ext.tolist()
        self.up = _row_ints(matrix[:, ext])
        self.down = _row_ints(matrix.T[:, ext])
        self.full = (1 << len(ext)) - 1
        self.lattice = None

    def join(self, idx):
        """Index of the join of the elements at indices idx, or None."""
        ub = self.full
        for i in idx:
            ub &= self.up[i]
        if not ub:
            return None
        c = self.ext[(ub & -ub).bit_length() - 1]
        return None if ub & ~self.up[c] else c

    def meet(self, idx):
        """Index of the meet of the elements at indices idx, or None."""
        lb = self.full
        for i in idx:
            lb &= self.down[i]
        if not lb:
            return None
        c = self.ext[lb.bit_length() - 1]
        return None if lb & ~self.down[c] else c


def _transitive_closure(matrix):
    """Reflexive-transitive closure by boolean matrix powering."""
    n = len(matrix)
    closed = matrix | np.eye(n, dtype=bool)
    while True:
        nxt = closed | (closed @ closed)
        if (nxt == closed).all():
            return closed
        closed = nxt


def _find_cycle(elements, pairs, start, goal):
    """A generator path start -> ... -> goal, as element names (BFS)."""
    succ = {e: [] for e in elements}
    for a, b in pairs:
        succ[a].append(b)
    prev = {start: None}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        if cur == goal:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return path[::-1]
        for nxt in succ[cur]:
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    return [start, goal]  # unreachable for a genuine antisymmetry violation


def poset_from_generators(elements, pairs):
    """Build the poset generated by `pairs` (each meaning first < second).

    Raises CycleError (with a witnessing cycle) if the closure is not
    antisymmetric, and UnknownElement if a pair mentions a missing id.
    """
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements in poset carrier")
    n = len(elements)
    gen = np.zeros((n, n), dtype=bool)
    pairs = list(pairs)
    for a, b in pairs:
        if a not in index:
            raise UnknownElement(f"unknown element {a!r} in order pair")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r} in order pair")
        gen[index[a], index[b]] = True
    closed = _transitive_closure(gen)
    sym = closed & closed.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        forward = _find_cycle(elements, pairs, elements[i], elements[j])
        back = _find_cycle(elements, pairs, elements[j], elements[i])
        raise CycleError(forward + back[1:])
    return Poset(elements, closed)


def covers(P):
    """The Hasse edges of P: pairs (p, q) with p < q and nothing between."""
    strict = P.strict_matrix()
    reduced = strict & ~(strict @ strict)
    return {(P.elements[i], P.elements[j]) for i, j in np.argwhere(reduced)}


def is_convex(P, S):
    """True iff no element outside S lies between two elements of S."""
    idx = sorted(P.index(s) for s in S)
    inside = np.zeros(len(P), dtype=bool)
    inside[idx] = True
    for i in idx:
        for j in idx:
            if P.matrix[i, j]:
                between = P.matrix[i, :] & P.matrix[:, j]
                if (between & ~inside).any():
                    return False
    return True


def join_of(P, S):
    """Least upper bound of S in P, or None."""
    c = P._order_bits().join([P.index(s) for s in S])
    return None if c is None else P.elements[c]


def meet_of(P, S):
    """Greatest lower bound of S in P, or None."""
    c = P._order_bits().meet([P.index(s) for s in S])
    return None if c is None else P.elements[c]


def joins_and_meets(P, S):
    """(join, meet) of S if both exist, else None.

    For S = {} this asks for a global minimum and maximum.
    """
    j = join_of(P, S)
    m = meet_of(P, S)
    if j is None or m is None:
        return None
    return (j, m)


def is_lattice(P):
    """True iff every pair of elements has a join and a meet.

    The verdict is memoised on P, so asking again costs nothing.
    """
    if len(P) == 0:
        raise EmptyPoset("is_lattice requires a nonempty poset")
    bits = P._order_bits()
    if bits.lattice is None:
        n = len(P)
        bits.lattice = all(bits.join((i, j)) is not None and bits.meet((i, j)) is not None
                           for i in range(n) for j in range(i + 1, n))
    return bits.lattice
