"""Independent oracles for checking the library's outputs.

Nothing here calls into ordercircuits.  Circuits are read straight off
their attributes (gate tuple, order matrix, lambda, mu) into bitmask
rows, and every answer is recomputed from the definitions:

* closed input sets as intersections of attribute extents;
* the morphism conditions p <= p' => f(p) <= f(p'), lambda_Q(a) <=
  f(lambda_P(a)) and f(mu_P(b)) <= mu_Q(b);
* the lexicographically least morphism (and the full list) by a search
  of its own, gates of P in canonical order, candidates in Q's order;
* the quotient order as the reflexive-transitive closure of the block
  graph.
"""

from __future__ import annotations


class View:
    """A circuit as bitmask rows: up[i] holds j iff gates[i] <= gates[j]."""

    __slots__ = ("gates", "index", "up", "down", "inputs", "outputs", "lam", "mu")

    def __init__(self, gates, up, inputs, outputs, lam, mu):
        self.gates = tuple(gates)
        self.index = {g: i for i, g in enumerate(self.gates)}
        self.up = list(up)
        n = len(self.gates)
        self.down = [sum(1 << i for i in range(n) if self.up[i] >> j & 1)
                     for j in range(n)]
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.lam = {a: self.index[g] for a, g in lam.items()}
        self.mu = {b: self.index[g] for b, g in mu.items()}

    def leq(self, i, j):
        return self.up[i] >> j & 1 == 1


def view_of(circuit):
    """Read a library Circuit without calling any library function."""
    rows = circuit.gates.matrix.tolist()
    up = [sum(1 << j for j, bit in enumerate(row) if bit) for row in rows]
    return View(circuit.gates.elements, up, circuit.inputs, circuit.outputs,
                dict(circuit.lam), dict(circuit.mu))


def closure(rows):
    """Reflexive-transitive closure of bitmask adjacency rows (Warshall)."""
    rows = [r | (1 << i) for i, r in enumerate(rows)]
    for k in range(len(rows)):
        bit = 1 << k
        rk = rows[k]
        for i in range(len(rows)):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


def closed_input_sets(inputs, outputs, pairs):
    """Closed subsets of the inputs, as bitmasks over input positions.

    Every closed set is an intersection of attribute extents G^-1(b);
    the empty intersection is the whole input set.
    """
    pos = {a: i for i, a in enumerate(inputs)}
    extents = {b: 0 for b in outputs}
    for a, b in pairs:
        extents[b] |= 1 << pos[a]
    family = {(1 << len(inputs)) - 1}
    for e in extents.values():
        family |= {s & e for s in family}
    return family


def mask_of(names, order):
    pos = {x: i for i, x in enumerate(order)}
    m = 0
    for x in names:
        m |= 1 << pos[x]
    return m


def is_morphism(P, Q, mapping):
    """The three morphism conditions, read off the bitmask rows."""
    f = [Q.index[mapping[g]] for g in P.gates]
    for i in range(len(P.gates)):
        fi_up = Q.up[f[i]]
        row = P.up[i]
        j = 0
        while row:
            if row & 1 and not fi_up >> f[j] & 1:
                return False
            row >>= 1
            j += 1
    if any(not Q.leq(Q.lam[a], f[P.lam[a]]) for a in P.inputs):
        return False
    return all(Q.leq(f[P.mu[b]], Q.mu[b]) for b in P.outputs)


def morphisms(P, Q, limit=None):
    """Morphisms P -> Q as target-index tuples, in lexicographic order.

    Depth-first over P's gates in canonical order, trying Q's gates in
    canonical order, with forward checking on bitmask domains, so the
    first tuple found is the lexicographically least morphism.  Stops
    after `limit` solutions when a limit is given.
    """
    n = len(P.gates)
    if n == 0:
        return [()]
    full = (1 << len(Q.gates)) - 1
    dom = [full] * n
    for a in P.inputs:
        dom[P.lam[a]] &= Q.up[Q.lam[a]]
    for b in P.outputs:
        dom[P.mu[b]] &= Q.down[Q.mu[b]]
    later_up = [P.up[i] >> (i + 1) for i in range(n)]
    later_down = [P.down[i] >> (i + 1) for i in range(n)]
    found = []
    doms = [dom]
    left = [dom[0]]
    chosen = []
    while left:
        i = len(left) - 1
        cand = left[i]
        if not cand:
            left.pop()
            doms.pop()
            if chosen:
                chosen.pop()
            continue
        low = cand & -cand
        left[i] = cand ^ low
        q = low.bit_length() - 1
        if i == n - 1:
            found.append(tuple(chosen) + (q,))
            if limit is not None and len(found) >= limit:
                return found
            continue
        d = doms[i][:]
        up_q, down_q = Q.up[q], Q.down[q]
        lu, ld = later_up[i], later_down[i]
        j = i + 1
        ok = True
        while lu or ld:
            if lu & 1:
                d[j] &= up_q
            if ld & 1:
                d[j] &= down_q
            if not d[j]:
                ok = False
                break
            lu >>= 1
            ld >>= 1
            j += 1
        if not ok:
            continue
        chosen.append(q)
        doms.append(d)
        left.append(d[i + 1])
    return found


def least_morphism(P, Q):
    """The lexicographically least morphism as a gate-name dict, or None."""
    sols = morphisms(P, Q, limit=1)
    if not sols:
        return None
    return {g: Q.gates[q] for g, q in zip(P.gates, sols[0])}


def is_isomorphism(P, Q, mapping):
    """Bijective, preserves and reflects order, carries lambda/mu exactly."""
    if set(mapping) != set(P.gates) or sorted(mapping.values()) != sorted(Q.gates):
        return False
    f = [Q.index[mapping[g]] for g in P.gates]
    n = len(P.gates)
    for i in range(n):
        for j in range(n):
            if P.leq(i, j) != Q.leq(f[i], f[j]):
                return False
    return (all(f[P.lam[a]] == Q.lam[a] for a in P.inputs)
            and all(f[P.mu[b]] == Q.mu[b] for b in P.outputs))


def covers(V):
    """Hasse edges (i, j): i < j with nothing strictly between."""
    n = len(V.gates)
    strict_up = [V.up[i] & ~(1 << i) for i in range(n)]
    strict_down = [V.down[j] & ~(1 << j) for j in range(n)]
    return {(i, j) for i in range(n) for j in range(n)
            if strict_up[i] >> j & 1 and not strict_up[i] & strict_down[j]}


def connectivity(V):
    return {(a, b) for a in V.inputs for b in V.outputs
            if V.leq(V.lam[a], V.mu[b])}


def quotient_order(V, blocks):
    """Closure of the block graph: row k holds l iff block k <= block l."""
    member = {}
    for k, blk in enumerate(blocks):
        for g in blk:
            member[V.index[g]] = k
    rows = [0] * len(blocks)
    for i in range(len(V.gates)):
        row = V.up[i]
        j = 0
        while row:
            if row & 1:
                rows[member[i]] |= 1 << member[j]
            row >>= 1
            j += 1
    return closure(rows)
