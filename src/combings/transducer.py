"""Transducers: automata over (Σ∪ε) × (Σ∪ε), accepting rational transductions.

Same conventions as the nfa module: one initial vertex, dense integer ids,
immutable after construction.  A label is a pair (x, y) of letter indices
where either side may be None for epsilon.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Optional

from . import nfa as nfa_mod
from .nfa import Nfa
from .words import Alphabet, Word

Label = tuple[Optional[int], Optional[int]]
TEdge = tuple[int, Label, int]


class Transducer:
    __slots__ = ("alphabet", "n", "edges", "initial", "terminals", "_adj")

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        edges: Iterable[TEdge],
        initial: int,
        terminals: Iterable[int],
    ):
        self.alphabet = alphabet
        self.n = n
        self.edges: frozenset[TEdge] = frozenset(edges)
        self.initial = initial
        self.terminals: frozenset[int] = frozenset(terminals)
        self._adj = None
        if not 0 <= initial < n:
            raise ValueError(f"initial vertex {initial} out of range")
        for t in self.terminals:
            if not 0 <= t < n:
                raise ValueError(f"terminal vertex {t} out of range")
        k = len(alphabet)
        for s, (x, y), d in self.edges:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s},({x},{y}),{d}) out of range")
            for lab in (x, y):
                if lab is not None and not 0 <= lab < k:
                    raise ValueError(f"edge label {lab} out of range")

    def adjacency(self):
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for s, lab, d in self.edges:
                adj[s].append((lab, d))
            self._adj = adj
        return self._adj

    def __repr__(self) -> str:
        return (
            f"Transducer({self.n} states, {len(self.edges)} edges, "
            f"{len(self.terminals)} final)"
        )


def accepts_pair(t: Transducer, u: Word, v: Word) -> bool:
    """Does some successful path read u on the first tape and v on the second?"""
    if u.alphabet != t.alphabet or v.alphabet != t.alphabet:
        raise ValueError("words over a different alphabet")
    adj = t.adjacency()
    start = (t.initial, 0, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        p, i, j = queue.popleft()
        if i == len(u) and j == len(v) and p in t.terminals:
            return True
        for (x, y), q in adj[p]:
            i2 = i
            if x is not None:
                if i == len(u) or u.indices[i] != x:
                    continue
                i2 = i + 1
            j2 = j
            if y is not None:
                if j == len(v) or v.indices[j] != y:
                    continue
                j2 = j + 1
            nxt = (q, i2, j2)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def trim(t: Transducer) -> Transducer:
    return _trim_each(t, [t.terminals])[0]


def _trim_each(t: Transducer, term_sets: Iterable[Collection[int]]) -> list[Transducer]:
    """trim(t) once per terminal set.  The pieces share t's states, edges and
    initial vertex, so the forward search, the reverse adjacency and the
    forward-reachable edges are computed once; only the backward search
    runs per set.  An edge from a reachable vertex into a co-reachable one
    has both ends kept, so that is the whole edge filter.  For the set
    t.terminals itself, when every vertex is kept, the piece is t."""
    fwd = nfa_mod._reachable(t.n, t.edges, [t.initial], True)
    back = nfa_mod._arrows(t.n, t.edges, False)
    fwd_edges = [e for e in t.edges if e[0] in fwd]
    out = []
    for terms in term_sets:
        bwd = nfa_mod._search(back, terms)
        if terms is t.terminals and len(fwd) == len(bwd) == t.n:
            out.append(t)
            continue
        keep = (fwd & bwd) | {t.initial}
        order = sorted(keep)
        remap = {old: new for new, old in enumerate(order)}
        edges = [(remap[s], lab, remap[d]) for s, lab, d in fwd_edges if d in bwd]
        kept_terms = [remap[x] for x in terms if x in fwd]
        out.append(Transducer(t.alphabet, len(order), edges, remap[t.initial], kept_terms))
    return out


def union(a: Transducer, b: Transducer) -> Transducer:
    if a.alphabet != b.alphabet:
        raise ValueError("transducers over different alphabets")
    off = 1 + a.n
    eps: Label = (None, None)
    edges: list[TEdge] = [(0, eps, 1 + a.initial), (0, eps, off + b.initial)]
    edges.extend((1 + s, lab, 1 + d) for s, lab, d in a.edges)
    edges.extend((off + s, lab, off + d) for s, lab, d in b.edges)
    terms = [1 + x for x in a.terminals] + [off + x for x in b.terminals]
    return Transducer(a.alphabet, 1 + a.n + b.n, edges, 0, terms)


def union_all(parts: list[Transducer]) -> Transducer:
    """The left fold of union over parts, built in one pass with the same
    ids.  The fold of k parts opens with the chain of its k-1 roots: root j
    (the root of the fold of the first k-j parts) has ε edges to root j+1,
    or to the first part when j = k-2, and to part k-1-j.  The parts follow
    in order, each at k-1 plus the sizes of the parts before it."""
    if not parts:
        raise ValueError("union_all needs at least one transducer")
    alphabet = parts[0].alphabet
    if any(p.alphabet != alphabet for p in parts):
        raise ValueError("transducers over different alphabets")
    if len(parts) == 1:
        return parts[0]
    k = len(parts)
    offs = [k - 1]
    for p in parts[:-1]:
        offs.append(offs[-1] + p.n)
    eps: Label = (None, None)
    edges: list[TEdge] = []
    for j in range(k - 1):
        nxt = j + 1 if j < k - 2 else offs[0] + parts[0].initial
        last = k - 1 - j
        edges.append((j, eps, nxt))
        edges.append((j, eps, offs[last] + parts[last].initial))
    terms: list[int] = []
    for off, p in zip(offs, parts):
        edges.extend((off + s, lab, off + d) for s, lab, d in p.edges)
        terms.extend(off + x for x in p.terminals)
    return Transducer(alphabet, offs[-1] + parts[-1].n, edges, 0, terms)


def concat(a: Transducer, b: Transducer) -> Transducer:
    if a.alphabet != b.alphabet:
        raise ValueError("transducers over different alphabets")
    off = a.n
    eps: Label = (None, None)
    edges: list[TEdge] = list(a.edges)
    edges.extend((off + s, lab, off + d) for s, lab, d in b.edges)
    edges.extend((x, eps, off + b.initial) for x in a.terminals)
    terms = [off + x for x in b.terminals]
    return Transducer(a.alphabet, a.n + b.n, edges, a.initial, terms)


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
    return union_all(parts)


def project(t: Transducer, coordinate: str) -> Nfa:
    """Forget one tape; 'first' keeps x of each label (x,y), 'second' keeps y."""
    if coordinate not in ("first", "second"):
        raise ValueError(f"coordinate must be 'first' or 'second', not {coordinate!r}")
    pick = 0 if coordinate == "first" else 1
    edges = [(s, lab[pick], d) for s, lab, d in t.edges]
    return Nfa(t.alphabet, t.n, edges, t.initial, t.terminals)


def _product_side(
    t: Transducer,
    r: Nfa,
    side: int,
    _allowed: Optional[Collection[tuple[int, int]]] = None,
) -> tuple[Transducer, list[tuple[int, int]]]:
    """Restrict tape `side` (0 or 1) of t to the language of r.

    Product states are pairs (t-state, r-state), returned in id order next
    to the product.  A t-edge whose tape label is epsilon leaves the r-state
    in place (the loop trick: r is padded with epsilon loops at every
    vertex); r's own epsilon edges advance alone under an (ε,ε) label.
    Both adjacencies are walked in sorted label order, so the ids do not
    depend on the iteration order of the edge sets.  With `_allowed`, only
    the initial pair and the pairs in it are created, and edges into any
    other pair are dropped.
    """
    if t.alphabet != r.alphabet:
        raise ValueError("different alphabets")
    radj = [sorted(row, key=lambda m: (_num(m[0]), m[1])) for row in r.adjacency()]
    tadj = [sorted(row, key=lambda m: (_num(m[0][0]), _num(m[0][1]), m[1])) for row in t.adjacency()]
    ids: dict[tuple[int, int], int] = {}
    keys: list[tuple[int, int]] = []
    edges: list[TEdge] = []

    def add(me: int, lab: Label, p: int, q: int) -> None:
        key = (p, q)
        d = ids.get(key)
        if d is None:
            if _allowed is not None and key not in _allowed:
                return
            d = ids[key] = len(keys)
            keys.append(key)
        edges.append((me, lab, d))

    start = (t.initial, r.initial)
    ids[start] = 0
    keys.append(start)
    for me, (p, q) in enumerate(keys):
        for lab, p2 in tadj[p]:
            x = lab[side]
            if x is None:
                add(me, lab, p2, q)
            else:
                for rl, q2 in radj[q]:
                    if rl == x:
                        add(me, lab, p2, q2)
        for rl, q2 in radj[q]:
            if rl is None:
                add(me, (None, None), p, q2)
    terms = [i for i, (p, q) in enumerate(keys) if p in t.terminals and q in r.terminals]
    return Transducer(t.alphabet, len(keys), edges, 0, terms), keys


def _coreachable_pairs(
    t: Transducer, r: Nfa, side: int, targets: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """The pairs (t-state, r-state) of the product _product_side(t, r, side)
    would build, reachable or not, from which some pair in targets can be
    reached: a backward search over the same three moves, read in reverse.
    Every predecessor of such a pair is such a pair too."""
    tback: list[list[tuple[Optional[int], int]]] = [[] for _ in range(t.n)]
    for p, lab, p2 in t.edges:
        tback[p2].append((lab[side], p))
    rback: list[dict[Optional[int], list[int]]] = [{} for _ in range(r.n)]
    for q, x, q2 in r.edges:
        rback[q2].setdefault(x, []).append(q)
    seen = set(targets)
    stack = list(seen)
    while stack:
        p2, q2 = stack.pop()
        into = rback[q2]
        prev = [(p2, q) for q in into.get(None, ())]
        for x, p in tback[p2]:
            if x is None:
                prev.append((p, q2))
            else:
                prev.extend((p, q) for q in into.get(x, ()))
        for key in prev:
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return seen


def _num(x: Optional[int]) -> int:
    """A letter index, with epsilon as -1, so that labels sort."""
    return -1 if x is None else x


def intersect_rect(t: Transducer, r: Nfa, s: Nfa) -> Transducer:
    """Intersect the transduction with the rectangle R × S: keep pairs (u,v)
    with u in L(r) and v in L(s)."""
    return _product_side(_product_side(t, r, 0)[0], s, 1)[0]


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
    cycle, the result is t itself."""
    eps_adj: list[list[int]] = [[] for _ in range(t.n)]
    loops = False
    for s, lab, d in t.edges:
        if lab == (None, None):
            eps_adj[s].append(d)
            loops = loops or s == d
    comp = _scc(t.n, eps_adj)
    if not loops and len(set(comp)) == t.n:
        return t
    # component representative = min old id, for determinism
    rep_of_comp: dict[int, int] = {}
    for v in range(t.n):
        c = comp[v]
        rep_of_comp[c] = min(rep_of_comp.get(c, v), v)
    rep = [rep_of_comp[comp[v]] for v in range(t.n)]
    order = sorted(set(rep))
    remap = {old: new for new, old in enumerate(order)}
    edges: set[TEdge] = set()
    for s, lab, d in t.edges:
        if lab == (None, None) and comp[s] == comp[d]:
            continue  # an (ε,ε) edge inside a component lies on an (ε,ε) cycle
        edges.add((remap[rep[s]], lab, remap[rep[d]]))
    terms = {remap[rep[x]] for x in t.terminals}
    return Transducer(t.alphabet, len(order), edges, remap[rep[t.initial]], terms)


def _scc(n: int, adj: list[list[int]]) -> list[int]:
    """Tarjan, iterative.  Returns a component index per vertex."""
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def _balance_potentials(t: Transducer):
    """Per-SCC potentials for the tape-length imbalance, or None if some
    cycle is unbalanced.  Edge weight is |x| - |y| in {-1, 0, 1}."""
    adj: list[list[int]] = [[] for _ in range(t.n)]
    wadj: list[list[tuple[int, int]]] = [[] for _ in range(t.n)]
    for s, (x, y), d in t.edges:
        w = (x is not None) - (y is not None)
        adj[s].append(d)
        wadj[s].append((d, w))
    comp = _scc(t.n, adj)
    phi = [0] * t.n
    seen = [False] * t.n
    for root in range(t.n):
        if seen[root]:
            continue
        seen[root] = True
        phi[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for d, w in wadj[v]:
                if comp[d] != comp[v]:
                    continue
                if not seen[d]:
                    seen[d] = True
                    phi[d] = phi[v] + w
                    queue.append(d)
                elif phi[d] != phi[v] + w:
                    return None, comp
    # BFS inside one SCC may have been rooted at several vertices only if
    # they are unreachable from one another inside the SCC, which cannot
    # happen in a strongly connected component, so phi is consistent.
    for s, (x, y), d in t.edges:
        if comp[s] == comp[d]:
            w = (x is not None) - (y is not None)
            if phi[d] != phi[s] + w:
                return None, comp
    return phi, comp


def check_balanced_cycles(t: Transducer) -> bool:
    """True when every cycle reads tapes of equal length."""
    phi, _comp = _balance_potentials(t)
    return phi is not None


def synchronized_bound(t: Transducer) -> Optional[int]:
    """The least k with every accepted pair satisfying ||u|-|v|| <= k, or
    None when no such k exists.  Expects a trimmed transducer without
    (ε,ε) cycles.  A bound exists iff every cycle is balanced; the bound
    itself is the extreme path imbalance over the condensation."""
    t = trim(t)
    if not t.terminals:
        return 0
    phi, comp = _balance_potentials(t)
    if phi is None:
        return None
    lo: list[Optional[int]] = [None] * t.n
    hi: list[Optional[int]] = [None] * t.n
    lo[t.initial] = hi[t.initial] = 0

    # Propagate over SCCs in topological order; inside an SCC the imbalance
    # between two vertices is the fixed potential difference.  Tarjan emits
    # components in reverse topological order, so descending index is
    # sources-first.
    members: dict[int, list[int]] = {}
    for v in range(t.n):
        members.setdefault(comp[v], []).append(v)
    for c in sorted(members, reverse=True):
        vs = members[c]
        base_lo = min((lo[v] - phi[v] for v in vs if lo[v] is not None), default=None)
        base_hi = max((hi[v] - phi[v] for v in vs if hi[v] is not None), default=None)
        if base_lo is None:
            continue
        for v in vs:
            lo[v] = base_lo + phi[v]
            hi[v] = base_hi + phi[v]
        for s, (x, y), d in t.edges:
            if comp[s] != c or comp[d] == c:
                continue
            w = (x is not None) - (y is not None)
            if lo[d] is None or lo[s] + w < lo[d]:
                lo[d] = lo[s] + w
            if hi[d] is None or hi[s] + w > hi[d]:
                hi[d] = hi[s] + w
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
    are bucketed by |u| + |v|; (ε,ε) edges are closed away inside a bucket.
    """
    adj = t.adjacency()

    def eclose(states: set[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            p = stack.pop()
            for (x, y), q in adj[p]:
                if x is None and y is None and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return frozenset(seen)

    buckets: list[dict[tuple, set[int]]] = [dict() for _ in range(max_total + 3)]
    buckets[0][((), ())] = {t.initial}
    out = []
    for total in range(max_total + 1):
        for (u, v), states in buckets[total].items():
            reach = eclose(states)
            if reach & t.terminals:
                out.append((u, v))
            for p in reach:
                for (x, y), q in adj[p]:
                    if x is None and y is None:
                        continue
                    u2 = u if x is None else u + (x,)
                    v2 = v if y is None else v + (y,)
                    total2 = len(u2) + len(v2)
                    if total2 > max_total:
                        continue
                    buckets[total2].setdefault((u2, v2), set()).add(q)
    ab = t.alphabet
    return [(Word(ab, u), Word(ab, v)) for u, v in sorted(out)]


def relabel(t: Transducer, mapping) -> Transducer:
    """Apply a label-pair mapping (x,y) -> (x',y') to every edge."""
    edges = [(s, mapping(lab), d) for s, lab, d in t.edges]
    return Transducer(t.alphabet, t.n, edges, t.initial, t.terminals)
