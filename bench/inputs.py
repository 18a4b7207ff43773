"""Seeded inputs for the three workloads, and a .circ writer of their own.

Everything here is plain Python over `random.Random(seed)`; nothing calls
into ordercircuits, so a change to the library cannot change a workload.
Circuits are kept as `Spec` values: gates, closed bitmask rows, and the
boundary maps.  Gates are listed in a linear extension of the order,
except in the relabelled copies, which list them in random order.
"""

from __future__ import annotations

import random

from oracle import View, closed_input_sets, closure, quotient_order

# Size bands.  Each workload draws from one band so that op costs form a
# single cluster: percentiles over mixed clusters jump between them.
# Inputs are stratified across the band (input k comes from step k of it,
# cyclically), so every seed's corpus has the same spread of costs.
LATTICE_SIZES = (10, 11)          # |A| = |B|
LATTICE_DENSITY = 0.5
LATTICE_CONCEPTS = (38, 50)       # inclusive band on the number of concepts
SEARCH_GATES = (10, 14)
SEARCH_DENSITY = 0.25
SEARCH_WIRES = 5                  # inputs and outputs each
# Band on plain_search_work, cut at its quartiles among sources drawn here.
SEARCH_WORK = (40000, 52000, 68000, 87000, 120000)
SOLUTION_WORK = 32
REWRITE_GATES = (16, 24)
REWRITE_DENSITY = 0.15
REWRITE_WIRES = 4
FIXED_SEED = 20250707             # the misnamed document does not depend on --seed


class Spec:
    """A circuit: `gates` in listing order, `up` closed bitmask rows."""

    __slots__ = ("gates", "up", "inputs", "outputs", "lam", "mu")

    def __init__(self, gates, up, inputs, outputs, lam, mu):
        self.gates = list(gates)
        self.up = list(up)
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.lam = dict(lam)
        self.mu = dict(mu)

    def view(self):
        return View(self.gates, self.up, self.inputs, self.outputs, self.lam, self.mu)

    def leq(self, g, h):
        return self.up[self.gates.index(g)] >> self.gates.index(h) & 1 == 1


def random_spec(rng, n, density, wires):
    gates = [f"g{i}" for i in range(n)]
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= 1 << j
    inputs = [f"a{k}" for k in range(wires)]
    outputs = [f"b{k}" for k in range(wires)]
    return Spec(gates, closure(rows), inputs, outputs,
                {a: rng.choice(gates) for a in inputs},
                {b: rng.choice(gates) for b in outputs})


# ---------------------------------------------------------------- lattice

def lattice_inputs(seed, count):
    """`count` relations (inputs, outputs, pairs); relation k has exactly
    the k-th concept count of the band, cyclically."""
    rng = random.Random(seed)
    lo, hi = LATTICE_CONCEPTS
    out = []
    while len(out) < count:
        n = rng.choice(LATTICE_SIZES)
        inputs = [f"a{i}" for i in range(n)]
        outputs = [f"b{j}" for j in range(n)]
        pairs = [(a, b) for a in inputs for b in outputs
                 if rng.random() < LATTICE_DENSITY]
        if len(closed_input_sets(inputs, outputs, pairs)) == lo + len(out) % (hi - lo + 1):
            out.append((inputs, outputs, pairs))
    return out


# ----------------------------------------------------------------- search

def _fresh(prefix, taken):
    k = 0
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"


def move_merge(rng, s):
    """Merge an interval of the linear extension into one fresh gate."""
    n = len(s.gates)
    i = rng.randrange(n - 1)
    j = min(n, i + rng.choice((2, 3)))
    name = _fresh("m", set(s.gates))
    blocks = [[g] for g in s.gates[:i]] + [s.gates[i:j]] + [[g] for g in s.gates[j:]]
    rows = quotient_order(s.view(), blocks)
    gates = s.gates[:i] + [name] + s.gates[j:]
    f = {g: (name if i <= k < j else g) for k, g in enumerate(s.gates)}
    return Spec(gates, rows, s.inputs, s.outputs,
                {a: f[g] for a, g in s.lam.items()},
                {b: f[g] for b, g in s.mu.items()}), f


def move_add_gate(rng, s):
    """Add an isolated gate at a random place in the linear extension."""
    name = _fresh("n", set(s.gates))
    k = rng.randrange(len(s.gates) + 1)
    gates = s.gates[:k] + [name] + s.gates[k:]
    old = {g: i for i, g in enumerate(s.gates)}
    new = {g: i for i, g in enumerate(gates)}
    rows = [0] * len(gates)
    for g in s.gates:
        row = s.up[old[g]]
        for h in s.gates:
            if row >> old[h] & 1:
                rows[new[g]] |= 1 << new[h]
    rows[k] = 1 << k
    return Spec(gates, rows, s.inputs, s.outputs, s.lam, s.mu), {g: g for g in s.gates}


def move_add_wire(rng, s):
    """Add x < y for x before y in the linear extension, then close."""
    n = len(s.gates)
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if not s.up[i] >> j & 1]
    if not free:
        return s, {g: g for g in s.gates}
    i, j = rng.choice(free)
    rows = s.up[:]
    rows[i] |= 1 << j
    return (Spec(s.gates, closure(rows), s.inputs, s.outputs, s.lam, s.mu),
            {g: g for g in s.gates})


def move_shift(rng, s):
    """Advance an input to a gate below it, or delay an output to one above."""
    lam, mu = dict(s.lam), dict(s.mu)
    if rng.random() < 0.5:
        a = rng.choice(s.inputs)
        lam[a] = rng.choice([g for g in s.gates if s.leq(g, lam[a])])
    else:
        b = rng.choice(s.outputs)
        mu[b] = rng.choice([g for g in s.gates if s.leq(mu[b], g)])
    return Spec(s.gates, s.up, s.inputs, s.outputs, lam, mu), {g: g for g in s.gates}


MOVES = (move_merge, move_add_gate, move_add_wire, move_shift)


def rewrite(rng, s, steps):
    """Compose `steps` random elementary moves; return the target and the map."""
    f = {g: g for g in s.gates}
    t = s
    for _ in range(steps):
        t, g = rng.choice(MOVES)(rng, t)
        f = {x: g[y] for x, y in f.items()}
    return t, f


def relabel(rng, s):
    """A copy of `s` under a random renaming, gates listed in random order."""
    names = [f"h{k}" for k in range(len(s.gates))]
    rng.shuffle(names)
    ren = dict(zip(s.gates, names))
    order = list(range(len(s.gates)))
    rng.shuffle(order)
    gates = [ren[s.gates[i]] for i in order]
    pos = {i: k for k, i in enumerate(order)}
    rows = [0] * len(gates)
    for i in range(len(s.gates)):
        for j in range(len(s.gates)):
            if s.up[i] >> j & 1:
                rows[pos[i]] |= 1 << pos[j]
    return Spec(gates, rows, s.inputs, s.outputs,
                {a: ren[g] for a, g in s.lam.items()},
                {b: ren[g] for b, g in s.mu.items()})


def plain_search_work(P, Q, find_all, cap):
    """Work of a plain backtracking search, stopping once past `cap`.

    The search assigns P's gates in canonical order, tries every target q
    with p^- <= q^- and p^+ <= q^+, and checks order only against gates
    already assigned.  Work counts one unit per order check (each node at
    depth i checks up to i earlier gates) and SOLUTION_WORK per solution
    built.  It tracks the cost of a search op far better than |End(C)|
    does, so the band is drawn on it.
    """
    def past(V, i):
        return sum(1 << k for k, a in enumerate(V.inputs) if V.leq(V.lam[a], i))

    def future(V, i):
        return sum(1 << k for k, b in enumerate(V.outputs) if V.leq(i, V.mu[b]))

    m = len(Q.gates)
    past_q = [past(Q, j) for j in range(m)]
    fut_q = [future(Q, j) for j in range(m)]
    n = len(P.gates)
    cands = []
    for i in range(n):
        pp, fp = past(P, i), future(P, i)
        c = [j for j in range(m) if not pp & ~past_q[j] and not fp & ~fut_q[j]]
        if not c:
            return 0
        cands.append(c)
    below = [[j for j in range(i) if P.leq(j, i)] for i in range(n)]
    above = [[j for j in range(i) if P.leq(i, j)] for i in range(n)]
    f = [0] * n
    pos = [0] * n
    allowed = [-1] * n
    work = 0
    i = 0
    while i >= 0:
        if pos[i] == len(cands[i]):
            i -= 1
            continue
        q = cands[i][pos[i]]
        pos[i] += 1
        work += i + 1
        if work > cap:
            return work
        if not allowed[i] >> q & 1:
            continue
        f[i] = q
        if i == n - 1:
            work += SOLUTION_WORK
            if not find_all:
                return work
            continue
        i += 1
        pos[i] = 0
        mask = -1
        for j in below[i]:
            mask &= Q.up[f[j]]
        for j in above[i]:
            mask &= Q.down[f[j]]
        allowed[i] = mask
    return work


def search_inputs(seed, count):
    """`count` triples (source, rewrite, relabelled copy).

    A source is kept when the plain-search work for its rewrite and for
    all its endomorphisms falls in the band SEARCH_WORK[0]..SEARCH_WORK[-1].
    Triple k comes from part k mod 4 of the band; the parts are its
    quartiles, so kept sources wait in a queue until their part is due.
    """
    rng = random.Random(seed)
    parts = len(SEARCH_WORK) - 1
    waiting = [[] for _ in range(parts)]
    out = []
    while len(out) < count:
        due = waiting[len(out) % parts]
        if due:
            out.append(due.pop(0))
            continue
        s = random_spec(rng, rng.randint(*SEARCH_GATES), SEARCH_DENSITY, SEARCH_WIRES)
        t, _ = rewrite(rng, s, rng.randint(2, 4))
        v = s.view()
        work = plain_search_work(v, v, True, SEARCH_WORK[-1])
        work += plain_search_work(v, t.view(), False, SEARCH_WORK[-1])
        for part in range(parts):
            if SEARCH_WORK[part] <= work < SEARCH_WORK[part + 1]:
                waiting[part].append((s, t, relabel(rng, s)))
    return out


# ------------------------------------------------------------ rewrite_cli

def interval_blocks(rng, gates):
    """Consecutive runs of the linear extension: compatible by construction."""
    blocks, i = [], 0
    while i < len(gates):
        k = rng.choice((1, 1, 2, 3))
        blocks.append(gates[i:i + k])
        i += k
    return blocks


def quotient_spec(s, blocks):
    rows = quotient_order(s.view(), blocks)
    names = ["+".join(b) for b in blocks]
    of = {g: name for b, name in zip(blocks, names) for g in b}
    return Spec(names, rows, s.inputs, s.outputs,
                {a: of[g] for a, g in s.lam.items()},
                {b: of[g] for b, g in s.mu.items()}), of


def rewrite_doc(rng, names, n):
    """One document: an n-gate circuit, its quotient, a partition and the
    quotient map.  `names` = (circuit, quotient, partition, morphism).
    """
    s = random_spec(rng, n, REWRITE_DENSITY, REWRITE_WIRES)
    blocks = interval_blocks(rng, s.gates)
    q, pi = quotient_spec(s, blocks)
    c, qn, pn, mn = names
    text = "\n\n".join([write_circuit(c, s), write_circuit(qn, q),
                        write_partition(pn, c, blocks),
                        write_morphism(mn, c, qn, s.gates, pi)]) + "\n"
    return {"names": names, "spec": s, "blocks": blocks, "quotient": q,
            "pi": pi, "text": text}


# Declaration names.  Sorted by name, the ordinary documents list both
# circuits first; the misnamed one lists its partition and morphism before
# the circuit they refer to.
ORDINARY_NAMES = ("C", "Q", "pi", "theta")
MISNAMED_NAMES = ("Z", "ZQ", "A", "B")


def rewrite_inputs(seed, count):
    """`count` seeded documents, document k with the k-th gate count of the
    band cyclically, plus the one fixed misnamed document."""
    rng = random.Random(seed)
    lo, hi = REWRITE_GATES
    docs = [rewrite_doc(rng, ORDINARY_NAMES, lo + k % (hi - lo + 1)) for k in range(count)]
    fixed = rewrite_doc(random.Random(FIXED_SEED), MISNAMED_NAMES, (lo + hi) // 2)
    return docs, fixed


# ----------------------------------------------------------------- writer

def _ids(ids):
    return " ".join(ids) + ";"


def write_circuit(name, s):
    pairs = " ".join(f"{g} < {h};" for i, g in enumerate(s.gates)
                     for j, h in enumerate(s.gates)
                     if i != j and s.up[i] >> j & 1)
    return "\n".join([
        f"circuit {name} {{",
        f"  inputs: {_ids(s.inputs)}",
        f"  outputs: {_ids(s.outputs)}",
        f"  gates: {_ids(s.gates)}",
        f"  order: {pairs}",
        "  lambda: " + " ".join(f"{a} -> {s.lam[a]};" for a in s.inputs),
        "  mu: " + " ".join(f"{b} -> {s.mu[b]};" for b in s.outputs),
        "}"])


def write_relation(name, inputs, outputs, pairs):
    return "\n".join([
        f"relation {name} {{",
        f"  inputs: {_ids(inputs)}",
        f"  outputs: {_ids(outputs)}",
        "  pairs: " + " ".join(f"{a} - {b};" for a, b in pairs),
        "}"])


def write_partition(name, circuit, blocks):
    lines = [f"partition {name} of {circuit} {{"]
    lines += [f"  block: {' '.join(b)};" for b in blocks]
    return "\n".join(lines + ["}"])


def write_morphism(name, src, dst, gates, f):
    lines = [f"morphism {name} : {src} -> {dst} {{"]
    lines += [f"  {g} => {f[g]};" for g in gates]
    return "\n".join(lines + ["}"])
