"""Nondeterministic finite automata over an inverse-closed alphabet.

Conventions, shared with the transducer module: a single initial vertex,
any set of terminal vertices, epsilon edges allowed (label None).  Vertex
ids are dense integers 0..n-1; fresh ids are allocated monotonically by
the combining constructions.  Automata are immutable once built, so they
are safe to share; every operation returns a new automaton.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .words import Alphabet, Word

# An edge is (src, label, dst) with label a letter index or None for epsilon.
Edge = tuple[int, Optional[int], int]


class Nfa:
    __slots__ = ("alphabet", "n", "edges", "initial", "terminals", "_adj")

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        edges: Iterable[Edge],
        initial: int,
        terminals: Iterable[int],
    ):
        self.alphabet = alphabet
        self.n = n
        self.edges: frozenset[Edge] = frozenset(edges)
        self.initial = initial
        self.terminals: frozenset[int] = frozenset(terminals)
        self._adj = None
        if not 0 <= initial < n:
            raise ValueError(f"initial vertex {initial} out of range")
        for t in self.terminals:
            if not 0 <= t < n:
                raise ValueError(f"terminal vertex {t} out of range")
        k = len(alphabet)
        for s, x, d in self.edges:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s},{x},{d}) out of range")
            if x is not None and not 0 <= x < k:
                raise ValueError(f"edge label {x} out of range")

    def adjacency(self) -> list[list[tuple[Optional[int], int]]]:
        if self._adj is None:
            adj: list[list[tuple[Optional[int], int]]] = [[] for _ in range(self.n)]
            for s, x, d in self.edges:
                adj[s].append((x, d))
            self._adj = adj
        return self._adj

    def __repr__(self) -> str:
        return f"Nfa({self.n} states, {len(self.edges)} edges, {len(self.terminals)} final)"


def eps_closure(a: Nfa, states: Iterable[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    adj = a.adjacency()
    while stack:
        p = stack.pop()
        for x, q in adj[p]:
            if x is None and q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def step(a: Nfa, states: frozenset[int], letter: int) -> frozenset[int]:
    adj = a.adjacency()
    nxt = {q for p in states for x, q in adj[p] if x == letter}
    return eps_closure(a, nxt)


def accepts(a: Nfa, w: Word) -> bool:
    if w.alphabet != a.alphabet:
        raise ValueError("word over a different alphabet")
    cur = eps_closure(a, [a.initial])
    for letter in w.indices:
        cur = step(a, cur, letter)
        if not cur:
            return False
    return bool(cur & a.terminals)


def _reachable(n: int, edges: Iterable[Edge], starts: Iterable[int], forward: bool) -> set[int]:
    return _search(_arrows(n, edges, forward), starts)


def _arrows(n: int, edges: Iterable[Edge], forward: bool) -> list[list[int]]:
    """Successor lists of (src, label, dst) edges, or predecessor lists when
    not forward; the label is ignored, so transducer edges serve as well."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, _x, d in edges:
        if forward:
            adj[s].append(d)
        else:
            adj[d].append(s)
    return adj


def _search(adj: list[list[int]], starts: Iterable[int]) -> set[int]:
    """Every vertex reachable in adj from some start."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        p = stack.pop()
        for q in adj[p]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def trim(a: Nfa) -> Nfa:
    """Keep vertices both reachable from the initial vertex and co-reachable
    to some terminal.  The initial vertex always survives, so an automaton
    with empty language trims to a lone initial vertex with no terminals.
    When every vertex is kept, the result is a itself."""
    fwd = _reachable(a.n, a.edges, [a.initial], True)
    bwd = _reachable(a.n, a.edges, a.terminals, False)
    if len(fwd) == len(bwd) == a.n:
        return a
    keep = (fwd & bwd) | {a.initial}
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    edges = [
        (remap[s], x, remap[d])
        for s, x, d in a.edges
        if s in keep and d in keep and s in fwd and d in bwd
    ]
    terms = [remap[t] for t in a.terminals if t in keep and t in fwd]
    return Nfa(a.alphabet, len(order), edges, remap[a.initial], terms)


def is_empty_language(a: Nfa) -> bool:
    return not trim(a).terminals


def reverse(a: Nfa) -> Nfa:
    """Accepts exactly the reversed words.

    Edges are flipped; a fresh initial vertex is wired by epsilon edges to
    the old terminals (the union construction over each old terminal taken
    as initial), and the old initial vertex becomes the only terminal.
    """
    fresh = a.n
    edges: list[Edge] = [(d, x, s) for s, x, d in a.edges]
    edges.extend((fresh, None, t) for t in a.terminals)
    return Nfa(a.alphabet, a.n + 1, edges, fresh, [a.initial])


def relabel(a: Nfa, mapping) -> Nfa:
    """Apply a letter-index mapping to every edge label (epsilon untouched)."""
    edges = [(s, x if x is None else mapping(x), d) for s, x, d in a.edges]
    return Nfa(a.alphabet, a.n, edges, a.initial, a.terminals)


def inverse_lang(a: Nfa) -> Nfa:
    """Accepts exactly the group inverses w^-1 of accepted words w."""
    return relabel(reverse(a), a.alphabet.inverse_index)


def union(a: Nfa, b: Nfa) -> Nfa:
    if a.alphabet != b.alphabet:
        raise ValueError("automata over different alphabets")
    off = 1 + a.n
    edges: list[Edge] = [(0, None, 1 + a.initial), (0, None, off + b.initial)]
    edges.extend((1 + s, x, 1 + d) for s, x, d in a.edges)
    edges.extend((off + s, x, off + d) for s, x, d in b.edges)
    terms = [1 + t for t in a.terminals] + [off + t for t in b.terminals]
    return Nfa(a.alphabet, 1 + a.n + b.n, edges, 0, terms)


def concat(a: Nfa, b: Nfa) -> Nfa:
    if a.alphabet != b.alphabet:
        raise ValueError("automata over different alphabets")
    off = a.n
    edges: list[Edge] = list(a.edges)
    edges.extend((off + s, x, off + d) for s, x, d in b.edges)
    edges.extend((t, None, off + b.initial) for t in a.terminals)
    terms = [off + t for t in b.terminals]
    return Nfa(a.alphabet, a.n + b.n, edges, a.initial, terms)


def split_decomposition(a: Nfa) -> list[tuple[Nfa, Nfa]]:
    """One pair (X_i, Y_i) per vertex p_i of a trimmed automaton: X_i keeps
    p_i as the only terminal, Y_i starts at p_i.  The language is the union
    of the X_i·Y_i, and any accepted word splits at any of its positions
    through the vertex the run passes there."""
    pairs = []
    for p in range(a.n):
        x = Nfa(a.alphabet, a.n, a.edges, a.initial, [p])
        y = Nfa(a.alphabet, a.n, a.edges, p, a.terminals)
        pairs.append((x, y))
    return pairs


def enumerate_words(a: Nfa, maxlen: int) -> list[Word]:
    """All accepted words of length <= maxlen, in shortlex order, no duplicates."""
    out: list[Word] = []
    start = eps_closure(a, [a.initial])
    frontier: list[tuple[tuple[int, ...], frozenset[int]]] = [((), start)]
    letters = range(len(a.alphabet))
    for length in range(maxlen + 1):
        nxt: list[tuple[tuple[int, ...], frozenset[int]]] = []
        for word, states in frontier:
            if states & a.terminals:
                out.append(Word(a.alphabet, word))
            if length < maxlen:
                for x in letters:
                    s2 = step(a, states, x)
                    if s2:
                        nxt.append((word + (x,), s2))
        frontier = nxt
    return out


def _dfa(a: Nfa):
    """Subset construction.  Returns (start_id, transitions, accepting) where
    transitions[state][letter] is a state id and missing entries are the dead
    state (id -1)."""
    start = eps_closure(a, [a.initial])
    ids: dict[frozenset[int], int] = {start: 0}
    trans: list[list[int]] = []
    accepting: list[bool] = []
    queue = deque([start])
    k = len(a.alphabet)
    while queue:
        s = queue.popleft()
        row = []
        for x in range(k):
            t = step(a, s, x)
            if not t:
                row.append(-1)
                continue
            if t not in ids:
                ids[t] = len(ids)
                queue.append(t)
            row.append(ids[t])
        trans.append(row)
        accepting.append(bool(s & a.terminals))
    return 0, trans, accepting


def difference_witness(a: Nfa, b: Nfa) -> Optional[Word]:
    """Shortlex-least word accepted by exactly one of a, b, or None if the
    languages are equal.  Exact decision by the product of the two subset
    constructions; the dead state is implicit."""
    if a.alphabet != b.alphabet:
        raise ValueError("automata over different alphabets")
    sa, ta, fa = _dfa(a)
    sb, tb, fb = _dfa(b)
    k = len(a.alphabet)

    def acc(side, s):
        return s >= 0 and side[s]

    seen = {(sa, sb)}
    queue = deque([(sa, sb, ())])
    while queue:
        pa, pb, word = queue.popleft()
        if acc(fa, pa) != acc(fb, pb):
            return Word(a.alphabet, word)
        for x in range(k):
            qa = ta[pa][x] if pa >= 0 else -1
            qb = tb[pb][x] if pb >= 0 else -1
            if qa == -1 and qb == -1:
                continue
            if (qa, qb) not in seen:
                seen.add((qa, qb))
                queue.append((qa, qb, word + (x,)))
    return None


def equivalent(a: Nfa, b: Nfa) -> bool:
    """Exact language equality."""
    return difference_witness(a, b) is None


def _subset_product(a: Nfa, b: Nfa):
    """Breadth-first product of the subset construction of a with the lazy
    subset construction of b, before any vertex is made terminal.  Returns
    (edges, a_accepts, b_subsets) over dense ids with 0 initial: vertex i
    accepts in a when a_accepts[i], and b_subsets[i] is the set of b's
    vertices reached there (empty once b is dead).  Nothing depends on b's
    terminals, so one product answers every terminal set of b; branches
    where a dies are not followed."""
    if a.alphabet != b.alphabet:
        raise ValueError("automata over different alphabets")
    sa, ta, fa = _dfa(a)
    start = (sa, eps_closure(b, [b.initial]))
    ids: dict[tuple[int, frozenset[int]], int] = {start: 0}
    a_accepts = [fa[sa]]
    b_subsets = [start[1]]
    edges: list[Edge] = []
    queue = deque([start])
    k = len(a.alphabet)
    while queue:
        pa, pb = queue.popleft()
        me = ids[(pa, pb)]
        for x in range(k):
            qa = ta[pa][x]
            if qa == -1:
                continue  # nothing of L(a) survives down this branch
            key = (qa, step(b, pb, x))
            if key not in ids:
                ids[key] = len(ids)
                a_accepts.append(fa[qa])
                b_subsets.append(key[1])
                queue.append(key)
            edges.append((me, x, ids[key]))
    return edges, a_accepts, b_subsets


def difference(a: Nfa, b: Nfa) -> Nfa:
    """An automaton for L(a) minus L(b), built from the product of the two
    subset constructions."""
    edges, a_accepts, b_subsets = _subset_product(a, b)
    terms = [i for i, s in enumerate(b_subsets) if a_accepts[i] and not s & b.terminals]
    return trim(Nfa(a.alphabet, len(b_subsets), edges, 0, terms))


def intersection(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton for L(a) ∩ L(b)."""
    return difference(a, difference(a, b))


def minimize(a: Nfa) -> Nfa:
    """Minimal deterministic automaton for the language, without epsilon
    edges.  Subset construction followed by partition refinement; missing
    transitions reject, so the dead state never materializes."""
    _start, trans, acc = _dfa(a)
    n = len(trans)
    k = len(a.alphabet)
    if all(acc) or not any(acc):
        block = [0] * n
        nblocks = 1
    else:
        block = [1 if acc[s] else 0 for s in range(n)]
        nblocks = 2
    while True:
        sig: dict[tuple, int] = {}
        newblock = [0] * n
        for s in range(n):
            key = (
                block[s],
                tuple(-1 if trans[s][x] == -1 else block[trans[s][x]] for x in range(k)),
            )
            if key not in sig:
                sig[key] = len(sig)
            newblock[s] = sig[key]
        if len(sig) == nblocks:
            break
        nblocks = len(sig)
        block = newblock
    edges = {
        (block[s], x, block[trans[s][x]])
        for s in range(n)
        for x in range(k)
        if trans[s][x] != -1
    }
    terms = {block[s] for s in range(n) if acc[s]}
    return trim(Nfa(a.alphabet, nblocks, edges, block[_start], terms))


def freely_reduced_lang(alphabet: Alphabet, include_empty: bool = True) -> Nfa:
    """The freely reduced words: one state per last-read letter plus a start
    state; after x, any letter except x^-1 may follow."""
    k = len(alphabet)
    edges: list[Edge] = []
    for x in range(k):
        edges.append((0, x, 1 + x))
        for y in range(k):
            if y != alphabet.inverse_index(x):
                edges.append((1 + x, y, 1 + y))
    terms = list(range(1, k + 1))
    if include_empty:
        terms.append(0)
    return Nfa(alphabet, k + 1, edges, 0, terms)


def from_word(alphabet: Alphabet, w: Word) -> Nfa:
    edges = [(i, x, i + 1) for i, x in enumerate(w.indices)]
    return Nfa(alphabet, len(w) + 1, edges, 0, [len(w)])


def from_words(alphabet: Alphabet, words: Iterable[Word]) -> Nfa:
    out = None
    for w in words:
        nxt = from_word(alphabet, w)
        out = nxt if out is None else union(out, nxt)
    if out is None:
        return Nfa(alphabet, 1, [], 0, [])
    return out


def sigma_star(alphabet: Alphabet) -> Nfa:
    edges = [(0, x, 0) for x in range(len(alphabet))]
    return Nfa(alphabet, 1, edges, 0, [0])


def remove_epsilon(a: Nfa) -> Nfa:
    """Equivalent automaton without epsilon edges (same vertex set)."""
    adj = a.adjacency()
    edges: set[Edge] = set()
    terms = set()
    for p in range(a.n):
        cl = eps_closure(a, [p])
        if cl & a.terminals:
            terms.add(p)
        for r in cl:
            for x, q in adj[r]:
                if x is not None:
                    edges.add((p, x, q))
    return Nfa(a.alphabet, a.n, edges, a.initial, terms)


def renumber_bfs(a: Nfa) -> Nfa:
    """Canonical renumbering: breadth-first from the initial vertex, edges
    ordered epsilon first then by letter index then by old target id.
    Unreachable vertices keep their relative order after the reachable part."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(a.n)]
    for s, x, d in a.edges:
        adj[s].append((-1 if x is None else x, d, d))
    order: list[int] = []
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        order.append(p)
        for _key, _d, q in sorted(adj[p]):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    order.extend(p for p in range(a.n) if p not in seen)
    remap = {old: new for new, old in enumerate(order)}
    edges = [(remap[s], x, remap[d]) for s, x, d in a.edges]
    return Nfa(a.alphabet, a.n, edges, remap[a.initial], [remap[t] for t in a.terminals])
