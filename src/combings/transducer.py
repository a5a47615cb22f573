"""Transducers: automata over (Σ∪ε) × (Σ∪ε), accepting rational transductions.

A Transducer is the nfa module's Automaton with labels (x, y), pairs of
letter indices where either side may be None for epsilon; (None, None) is
its epsilon label.  Trim, union, concatenation, relabelling and
renumbering are the nfa module's, which serve both classes.  Transducer is
not an Nfa: the two are sibling subclasses, so code that takes a word
automaton can tell a transducer apart.  What is here reads the two tapes.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import or_
from typing import Iterable, Optional

from . import nfa as nfa_mod
from .nfa import Automaton, Nfa
from .words import Alphabet, Word

Label = tuple[Optional[int], Optional[int]]
TEdge = tuple[int, Label, int]


class Transducer(Automaton):
    __slots__ = ()
    EPS = (None, None)

    @staticmethod
    def check_label(lab: Label, k: int) -> None:
        x, y = lab
        Nfa.check_label(x, k)
        Nfa.check_label(y, k)

    @staticmethod
    def label_key(lab: Label) -> tuple[int, int]:
        x, y = lab
        return (-1 if x is None else x, -1 if y is None else y)


def _pair_path(t: Transducer, u: Word, v: Word, total: int) -> Optional[list[TEdge]]:
    """The edges of a successful path whose tapes read a prefix of u and a
    prefix of v, total letters in all, or None when there is none.

    A breadth-first search over (state, i, j), where the first tape has read
    u[:i] and the second v[:j], with i + j <= total.  With total = |u| + |v|
    the path reads exactly the pair (u, v).  A word w = u'·v'⁻¹ splits so
    that v' is a prefix of w⁻¹, and w = u'·v'ʳ so that v' is a prefix of wʳ,
    which is how linear.member asks with total = |w|."""
    if u.alphabet != t.alphabet or v.alphabet != t.alphabet:
        raise ValueError("words over a different alphabet")
    adj = t.adjacency()
    start = (t.initial, 0, 0)
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        p, i, j = key
        if i + j == total and p in t.terminals:
            path = []
            while parent[key] is not None:
                key, edge = parent[key]
                path.append(edge)
            path.reverse()
            return path
        for edge in adj[p]:
            _p, (x, y), q = edge
            i2, j2 = i + (x is not None), j + (y is not None)
            if i2 + j2 > total:
                continue
            if x is not None and (i == len(u) or u.indices[i] != x):
                continue
            if y is not None and (j == len(v) or v.indices[j] != y):
                continue
            nxt = (q, i2, j2)
            if nxt not in parent:
                parent[nxt] = (key, edge)
                queue.append(nxt)
    return None


def trim(t: Transducer) -> Transducer:
    """nfa.trim of a transducer; the benchmark's layer trace counts
    transducer trims under this name."""
    return nfa_mod.trim(t)


def from_pairs(alphabet: Alphabet, pairs: Iterable[tuple[Word, Word]]) -> Transducer:
    """The finite transduction holding exactly the given pairs."""
    parts: list[Transducer] = []
    for u, v in pairs:
        edges: list[TEdge] = []
        m = 0
        for x in u.indices:
            edges.append((m, (x, None), m + 1))
            m += 1
        for y in v.indices:
            edges.append((m, (None, y), m + 1))
            m += 1
        parts.append(Transducer(alphabet, m + 1, edges, 0, [m]))
    if not parts:
        return Transducer(alphabet, 1, [], 0, [])
    return nfa_mod.union_all(parts)


def project(t: Transducer, coordinate: str) -> Nfa:
    """Forget one tape; 'first' keeps x of each label (x,y), 'second' keeps y."""
    if coordinate not in ("first", "second"):
        raise ValueError(f"coordinate must be 'first' or 'second', not {coordinate!r}")
    pick = 0 if coordinate == "first" else 1
    edges = [(s, lab[pick], d) for s, lab, d in t.edges]
    return Nfa(t.alphabet, t.n, edges, t.initial, t.terminals)


def _explore_side(
    rows,
    initial: int,
    r: Nfa,
    side: int,
    _allowed: Optional[list[int]] = None,
) -> tuple[list[tuple[int, int]], list[TEdge]]:
    """The keys and edges of the product restricting tape `side` of a
    transducer graph to r, as _explore returns them: the graph is given by
    its adjacency() rows and its initial vertex, and vertex 0 is (initial,
    r.initial).

    Product states are pairs (t-state, r-state).  A t-edge whose tape label
    is epsilon leaves the r-state in place (the loop trick: r is padded
    with epsilon loops at every vertex); r's own epsilon edges advance
    alone under an (ε,ε) label.  Both graphs' out-edges are walked in the
    one order of adjacency(), by label key and then target, so the ids do
    not depend on the iteration order of the edge sets.  With `_allowed`,
    a bit set of r-states per t-state as _coreachable_masks gives it, only
    the initial pair and the pairs (p, q) with bit q of _allowed[p] set are
    created, and edges into any other pair are dropped; edges into the
    initial pair are kept even when its own bit is clear.
    """
    rnext: list[dict[Optional[int], list[int]]] = [{} for _ in range(r.n)]
    for row in r.adjacency():
        for q, rl, q2 in row:
            rnext[q].setdefault(rl, []).append(q2)
    allowed = [-1] * len(rows) if _allowed is None else list(_allowed)  # -1: every bit set
    allowed[initial] |= 1 << r.initial

    def moves(key):
        p, q = key
        nxt = rnext[q]
        out = []
        for _p, lab, p2 in rows[p]:
            x = lab[side]
            live = allowed[p2]
            for q2 in (q,) if x is None else nxt.get(x, ()):
                if live >> q2 & 1:
                    out.append((lab, (p2, q2)))
        live = allowed[p]
        for q2 in nxt.get(None, ()):
            if live >> q2 & 1:
                out.append(((None, None), (p, q2)))
        return out

    return nfa_mod._explore((initial, r.initial), moves)


def _coreachable_masks(rows, r: Nfa, side: int, targets: Iterable[tuple[int, int]]) -> list[int]:
    """Per t-state p of a transducer graph given by its adjacency() rows,
    the bit set of the r-states q such that the pair (p, q) of the product
    _explore_side(rows, ·, r, side) would explore, reachable or not, can
    reach some pair in targets.  A backward worklist over the graph's
    in-edges: a letter x on the tape maps a set through r's x-predecessor
    rows, an ε on the tape keeps it, and r's own ε edges, read backward,
    close every set.  Every predecessor of such a pair is such a pair too."""
    eps = nfa_mod._arrows(r.n, [e for e in r.edges if e[1] is None], False)
    # closed[q]: the r-states with an ε path to q, q among them
    closed = [sum(1 << v for v in nfa_mod._search(eps, [q])) for q in range(r.n)]
    # back[x][q2]: the closed set of the r-states with an x edge to q2, and
    # pre[x][s] the union of back[x][q2] over the bits q2 of s, on first use
    back = [[0] * r.n for _ in range(len(r.alphabet))]
    for q, x, q2 in r.edges:
        if x is not None:
            back[x][q2] |= closed[q]
    pre: list[dict[int, int]] = [{} for _ in back]
    tback: list[list[tuple[Optional[int], int]]] = [[] for _ in rows]
    for row in rows:
        for p, lab, p2 in row:
            tback[p2].append((lab[side], p))
    mask = [0] * len(rows)
    for f, q in targets:
        mask[f] |= closed[q]
    stack = [f for f, m in enumerate(mask) if m]
    while stack:
        p2 = stack.pop()
        s = mask[p2]
        for x, p in tback[p2]:
            m = s if x is None else pre[x].get(s)
            if m is None:
                m = pre[x][s] = reduce(or_, (back[x][q] for q in range(r.n) if s >> q & 1), 0)
            if m & ~mask[p]:
                mask[p] |= m
                stack.append(p)
    return mask


def intersect_rect(t: Transducer, r: Nfa, s: Nfa) -> Transducer:
    """Intersect the transduction with the rectangle R × S: keep pairs (u,v)
    with u in L(r) and v in L(s).  The tape-0 product hands its rows to the
    tape-1 product, which alone is built."""
    if not t.alphabet == r.alphabet == s.alphabet:
        raise ValueError("different alphabets")
    first_keys, edges = _explore_side(t.adjacency(), t.initial, r, 0)
    first = nfa_mod._adjacency(len(first_keys), edges, Transducer.label_key)
    keys, edges = _explore_side(first, 0, s, 1)
    ends = [p in t.terminals and q in r.terminals for p, q in first_keys]
    terms = [i for i, (f, q) in enumerate(keys) if ends[f] and q in s.terminals]
    return Transducer(t.alphabet, len(keys), edges, 0, terms)


def identity_of(r: Nfa) -> Transducer:
    """The identity transduction {(w,w) : w in L(r)}, built as the one-vertex
    letter-diagonal transducer intersected with R × R."""
    k = len(r.alphabet)
    diag = Transducer(r.alphabet, 1, [(0, (x, x), 0) for x in range(k)], 0, [0])
    return intersect_rect(diag, r, r)


def strip_epsilon_cycles(t: Transducer) -> Transducer:
    """Collapse every cycle of (ε,ε) edges to a single vertex and drop the
    cycle edges.  The set of labels of successful paths is unchanged; the
    merged vertex is initial/terminal if any member was.  Without such a
    cycle, the result is t itself.  Tarjan runs over the (ε,ε) edges alone,
    from the vertices that have one."""
    eps: list[list[TEdge]] = [[] for _ in range(t.n)]
    for e in t.edges:
        if e[1] == t.EPS:
            eps[e[0]].append(e)
    _comp, cyclic = nfa_mod._tarjan(t.n, eps, [v for v in range(t.n) if eps[v]])
    if not cyclic:
        return t
    # component representative = min old id, for determinism
    rep = list(range(t.n))
    for members in cyclic:
        least = min(members)
        for v in members:
            rep[v] = least
    order = sorted(set(rep))
    remap = {old: new for new, old in enumerate(order)}
    edges: set[TEdge] = set()
    for s, lab, d in t.edges:
        if lab == t.EPS and rep[s] == rep[d]:
            continue  # an (ε,ε) edge inside a component lies on an (ε,ε) cycle
        edges.add((remap[rep[s]], lab, remap[rep[d]]))
    terms = {remap[rep[x]] for x in t.terminals}
    return Transducer(t.alphabet, len(order), edges, remap[rep[t.initial]], terms)


def _weight(lab: Label) -> int:
    """|x| - |y| of a label (x, y): its change to the tape-length imbalance."""
    return (lab[0] is not None) - (lab[1] is not None)


def _balance_potentials(t: Transducer):
    """Potentials for the tape-length imbalance inside each component that
    holds a cycle, 0 elsewhere, with t's components(); or None for the
    potentials if some cycle is unbalanced.  A breadth-first search from
    the least vertex of such a component, along its inner edges, follows
    every inner edge once, so checking each edge as it is followed checks
    every cycle; a component without a cycle has no inner edge to check."""
    comp, cyclic = t.components()
    adj = t.adjacency()
    phi = [0] * t.n
    for members in cyclic:
        root = min(members)
        seen = {root}
        queue = [root]
        for v in queue:  # the list grows while it is walked
            for _v, lab, d in adj[v]:
                if comp[d] != comp[v]:
                    continue
                if d not in seen:
                    seen.add(d)
                    phi[d] = phi[v] + _weight(lab)
                    queue.append(d)
                elif phi[d] != phi[v] + _weight(lab):
                    return None, comp
    return phi, comp


def check_balanced_cycles(t: Transducer) -> bool:
    """True when every cycle reads tapes of equal length."""
    phi, _comp = _balance_potentials(t)
    return phi is not None


def synchronized_bound(t: Transducer) -> Optional[int]:
    """The least k with every accepted pair satisfying ||u|-|v|| <= k, or
    None when no such k exists.  Takes any transducer: it is trimmed here,
    and an (ε,ε) cycle is balanced.  A bound exists iff every cycle is
    balanced; the bound itself is the extreme path imbalance over the
    condensation."""
    t = trim(t)
    if not t.terminals:
        return 0
    phi, comp = _balance_potentials(t)
    if phi is None:
        return None
    lo: list[Optional[int]] = [None] * t.n
    hi: list[Optional[int]] = [None] * t.n
    lo[t.initial] = hi[t.initial] = 0

    # Propagate over the components in topological order, which is
    # descending component number; inside a component the imbalance
    # between two vertices is the fixed potential difference.
    members: dict[int, list[int]] = {}
    for v in range(t.n):
        members.setdefault(comp[v], []).append(v)
    adj = t.adjacency()
    for c in sorted(members, reverse=True):
        vs = members[c]
        base_lo = min((lo[v] - phi[v] for v in vs if lo[v] is not None), default=None)
        base_hi = max((hi[v] - phi[v] for v in vs if hi[v] is not None), default=None)
        if base_lo is None:
            continue
        for v in vs:
            lo[v] = base_lo + phi[v]
            hi[v] = base_hi + phi[v]
        for s in vs:
            for _s, lab, d in adj[s]:
                if comp[d] == c:
                    continue
                w = _weight(lab)
                lo[d] = lo[s] + w if lo[d] is None else min(lo[d], lo[s] + w)
                hi[d] = hi[s] + w if hi[d] is None else max(hi[d], hi[s] + w)
    best = 0
    for v in t.terminals:
        if lo[v] is None:
            continue
        best = max(best, abs(lo[v]), abs(hi[v]))
    return best


def enumerate_pairs(t: Transducer, max_total: int) -> list[tuple[Word, Word]]:
    """All accepted pairs with |u| + |v| <= max_total, in sorted order.

    Level search over prefix pairs, keeping one merged state set per pair
    so the cost scales with the relation rather than the automaton.  Pairs
    are bucketed by |u| + |v|; (ε,ε) edges are closed away inside a bucket,
    whose state set grows as it is walked.
    """
    if max_total < 0:
        return []
    adj = t.adjacency()
    buckets: list[dict[tuple, set[int]]] = [dict() for _ in range(max_total + 1)]
    buckets[0][((), ())] = {t.initial}
    out = []
    for total, bucket in enumerate(buckets):
        for (u, v), states in bucket.items():
            walk = list(states)
            for p in walk:  # the list grows while it is walked
                for _p, (x, y), q in adj[p]:
                    if x is None and y is None:
                        if q not in states:
                            states.add(q)
                            walk.append(q)
                        continue
                    u2 = u if x is None else u + (x,)
                    v2 = v if y is None else v + (y,)
                    total2 = len(u2) + len(v2)
                    if total2 > max_total:
                        continue
                    buckets[total2].setdefault((u2, v2), set()).add(q)
            if states & t.terminals:
                out.append((u, v))
    ab = t.alphabet
    return [(Word(ab, u), Word(ab, v)) for u, v in sorted(out)]
