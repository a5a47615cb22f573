"""Finite automata over an inverse-closed alphabet: the shared core.

An automaton has a single initial vertex, any set of terminal vertices and
labelled edges (src, label, dst) over dense vertex ids 0..n-1.  Nfa labels
are letter indices; transducer labels are pairs of them (transducer
module).  Either way one label, None or (None, None), is epsilon.  The
operations that ignore what a label means (trim, union, concatenation,
relabelling, breadth-first renumbering) are written once here against
Automaton and build the input's own class.  Every product construction
(subset constructions, pair products, renumbering) numbers its vertices
through _explore, the one numbering policy: breadth-first discovery order.
Every walk over out-edges reads Automaton.adjacency(), the one out-edge
order: by label key, then target, the same in every process, and a graph
that is not built as an automaton has the same rows from _adjacency;
every cycle question reads Automaton.components(), one Tarjan pass over
those rows.  Both are cached, and what is built from _trim_union is marked
trimmed, so a build analyses its generator half once and never trims it
twice.  A product that only the next stage reads is not built as an
automaton at all: _trim_union trims explored edges to each terminal set
and unites the pieces in one pass, and a chain of products (extract,
intersect_regular, intersect_rect) hands each product the rows of the one
before, so only the automaton a chain returns is validated and stored.
Automata are immutable once built, so they are safe to share;
every operation returns a new automaton.  An Nfa caches one successor row
per letter, and one for ε, on first use, so that step and eps_closure move
whole subsets with set operations instead of a Python loop per edge.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Collection, Hashable, Iterable, Optional, TypeVar

from .words import Alphabet, Word

# An edge is (src, label, dst); an Nfa label is a letter index or None.
Edge = tuple[int, Optional[int], int]
A = TypeVar("A", bound="Automaton")


class Automaton:
    """Vertices, edges and the checks shared by every label kind.  A subclass
    sets EPS, its epsilon label, and defines the static methods
    check_label(label, k), which raises ValueError unless the label's
    letters lie in range(k), and label_key(label), a sort key that puts
    epsilon first."""

    __slots__ = ("alphabet", "n", "edges", "initial", "terminals", "_adj", "_comp", "_trimmed")
    EPS: Hashable

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        edges: Iterable[tuple[int, Hashable, int]],
        initial: int,
        terminals: Iterable[int],
    ):
        self.alphabet = alphabet
        self.n = n
        self.edges = frozenset(edges)
        self.initial = initial
        self.terminals: frozenset[int] = frozenset(terminals)
        self._adj = self._comp = None
        self._trimmed = False  # set by _trimmed
        if not 0 <= initial < n:
            raise ValueError(f"initial vertex {initial} out of range")
        for t in self.terminals:
            if not 0 <= t < n:
                raise ValueError(f"terminal vertex {t} out of range")
        for s, lab, d in self.edges:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s},{lab},{d}) out of range")
        k = len(alphabet)
        # once per distinct label: a large automaton has many edges, few labels
        for lab in {e[1] for e in self.edges}:
            self.check_label(lab, k)

    def adjacency(self) -> list[list[tuple[int, Hashable, int]]]:
        """Row v: v's own edge triples (v, label, target) by label_key, then
        target: the one out-edge order, the same in every process.  Cached."""
        if self._adj is None:
            self._adj = _adjacency(self.n, self.edges, self.label_key)
        return self._adj

    def components(self) -> tuple[list[int], list[list[int]]]:
        """(comp, cyclic) of _tarjan from every vertex over the rows of
        adjacency().  Cached."""
        if self._comp is None:
            self._comp = _tarjan(self.n, self.adjacency(), range(self.n))
        return self._comp

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.n} states, {len(self.edges)} edges, "
            f"{len(self.terminals)} final)"
        )


class Nfa(Automaton):
    __slots__ = ("_rows",)
    EPS = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rows = None

    def rows(self) -> list[list[tuple[int, ...]]]:
        """rows[x][p]: the targets of p's x-edges, for every letter x, and
        rows[-1][p] those of its ε edges.  Built on first use."""
        if self._rows is None:
            k = len(self.alphabet)
            targets: dict[tuple[int, int], list[int]] = {}
            for s, x, d in self.edges:
                targets.setdefault((k if x is None else x, s), []).append(d)
            rows: list[list[tuple[int, ...]]] = [[()] * self.n for _ in range(k + 1)]
            for (x, s), ds in targets.items():
                rows[x][s] = tuple(ds)
            self._rows = rows
        return self._rows

    @staticmethod
    def check_label(x: Optional[int], k: int) -> None:
        if x is not None and not 0 <= x < k:
            raise ValueError(f"edge label {x} out of range")

    @staticmethod
    def label_key(x: Optional[int]) -> int:
        return -1 if x is None else x


def eps_closure(a: Nfa, states: Iterable[int]) -> frozenset[int]:
    """The states reached from states by ε edges, one breadth level at a
    time: each level is the ε targets of the last one that are new."""
    eps = a.rows()[-1]
    seen = set(states)
    frontier = seen
    while frontier:
        frontier = set(chain.from_iterable(map(eps.__getitem__, frontier)))
        frontier -= seen
        seen |= frontier
    return frozenset(seen)


def step(a: Nfa, states: Iterable[int], letter: int) -> frozenset[int]:
    row = a.rows()[letter]
    return eps_closure(a, chain.from_iterable(map(row.__getitem__, states)))


def accepts(a: Nfa, w: Word) -> bool:
    if w.alphabet != a.alphabet:
        raise ValueError("word over a different alphabet")
    cur = eps_closure(a, [a.initial])
    for letter in w.indices:
        cur = step(a, cur, letter)
        if not cur:
            return False
    return bool(cur & a.terminals)


def _adjacency(n: int, edges: Iterable[tuple], label_key) -> list[list[tuple]]:
    """Automaton.adjacency() of a graph that is not built as an automaton:
    the edges grouped by label, each group sorted by target, then dealt to
    their source rows in label_key order."""
    by_label: dict[Hashable, list] = {}
    for e in edges:
        by_label.setdefault(e[1], []).append(e)
    rows: list[list[tuple]] = [[] for _ in range(n)]
    for lab in sorted(by_label, key=label_key):
        group = by_label[lab]
        group.sort(key=itemgetter(2))
        for e in group:
            rows[e[0]].append(e)
    return rows


def _arrows(n: int, edges: Iterable[tuple], forward: bool) -> list[list[int]]:
    """Successor lists of (src, label, dst) edges, or predecessor lists when
    not forward; the label is ignored."""
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


def _tarjan(n: int, rows, roots: Iterable[int]) -> tuple[list[int], list[list[int]]]:
    """Strongly connected components of what roots reach, rows[v] holding
    v's out-edges (v, label, w): comp[v] numbers v's component as they
    close, sinks first (-1 if not reached), and cyclic lists the members of
    each component with a cycle (more than one vertex, or a self-loop)."""
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    cyclic: list[list[int]] = []
    loops = set()
    count = ncomp = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count = count + 1
        stack.append(root)
        work = [(root, iter(rows[root]))]
        while work:
            v, it = work[-1]
            for _v, _lab, w in it:
                if index[w] < 0:
                    index[w] = low[w] = count = count + 1
                    stack.append(w)
                    work.append((w, iter(rows[w])))
                    break
                if comp[w] < 0:  # w is on the stack
                    if index[w] < low[v]:
                        low[v] = index[w]
                    elif w == v:
                        loops.add(v)
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    members = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = ncomp
                        members.append(w)
                    ncomp += 1
                    if len(members) > 1 or v in loops:
                        cyclic.append(members)
    return comp, cyclic


def _explore(start, moves) -> tuple[list, list[tuple]]:
    """Breadth-first closure of start under moves(key), a list of
    (label, key).  Returns the keys in discovery order, key i being vertex
    i, and the edges (i, label, j) in move order."""
    ids = {start: 0}
    keys = [start]
    edges: list[tuple] = []
    for i, key in enumerate(keys):  # the list grows while it is walked
        for lab, nxt in moves(key):
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(keys)
                keys.append(nxt)
            edges.append((i, lab, j))
    return keys, edges


def trim(a: A) -> A:
    """Keep vertices both reachable from the initial vertex and co-reachable
    to some terminal, renumbered in increasing order of their old ids.  The
    initial vertex always survives, so an automaton with empty language
    trims to a lone initial vertex with no terminals.  When every vertex is
    kept, the result is a itself, and so is an automaton built trimmed."""
    if a._trimmed:
        return a
    graph = _trim_union(type(a), a.n, a.edges, a.initial, [a.terminals])
    if graph[3] and graph[0] == a.n:  # one nonempty piece, nothing cut
        return _trimmed(a)
    return _trimmed(type(a)(a.alphabet, *graph))


def _trim_union(
    cls: type[A],
    n: int,
    edges: Iterable[tuple],
    initial: int,
    term_sets: Iterable[Collection[int]],
    explored: bool = False,
) -> tuple[int, list[tuple], int, list[int]]:
    """union_all of the trims of the graph (n, edges, initial) to each
    terminal set, leaving out those with empty language, as the graph
    (n, edges, initial, terminals) of an automaton of cls: the one nonempty
    trim itself, without a root, when there is one, and the trim of empty
    language, a lone initial vertex with no terminals, when there is none.
    The trims are never built: a backward search over the in-edges of
    reachable vertices finds the vertices a trim keeps, and their in-edges
    are its edges, so the work per trim is proportional to the trim.  An
    explored graph, every vertex of which is reachable, needs no forward
    search.  A stage that reads the graph takes its _adjacency rows; the
    last builds the automaton, which is trimmed (_trimmed)."""
    if not explored:
        reached = _search(_arrows(n, edges, True), [initial])
        edges = [e for e in edges if e[0] in reached]
        term_sets = [[x for x in terms if x in reached] for terms in term_sets]
    into: list[list[tuple]] = [[] for _ in range(n)]
    for e in edges:
        into[e[2]].append(e)
    kept = []
    for ends in term_sets:
        keep = set(ends)
        stack = list(keep)
        while stack:
            for s, _lab, _d in into[stack.pop()]:
                if s not in keep:
                    keep.add(s)
                    stack.append(s)
        if ends:
            kept.append((sorted(keep), ends))
    if not kept:
        return 1, [], 0, []
    if len(kept) == 1 and len(kept[0][0]) == n:  # nothing is cut: the ids stay
        return n, list(chain.from_iterable(into)), initial, kept[0][1]
    off = len(kept) - 1  # the roots of union_all come first
    ats = []
    for order, _ends in kept:
        ats.append({old: off + new for new, old in enumerate(order)})
        off += len(order)
    inits = [at[initial] for at in ats]
    out_edges = _root_chain(cls.EPS, inits)
    out_terms: list[int] = []
    for (order, ends), at in zip(kept, ats):
        out_edges += [(at[s], lab, at[d]) for d in order for s, lab, _d in into[d]]
        out_terms.extend(at[x] for x in ends)
    return off, out_edges, inits[0] if len(kept) == 1 else 0, out_terms


def _trimmed(a: A) -> A:
    a._trimmed = True
    return a


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


def relabel(a: A, mapping) -> A:
    """Apply a label mapping to every edge label except epsilon."""
    edges = [(s, lab if lab == a.EPS else mapping(lab), d) for s, lab, d in a.edges]
    return type(a)(a.alphabet, a.n, edges, a.initial, a.terminals)


def inverse_lang(a: Nfa) -> Nfa:
    """Accepts exactly the group inverses w^-1 of accepted words w."""
    return relabel(reverse(a), a.alphabet.inverse_index)


def union(a: A, b: A) -> A:
    """Accepts what a or b accepts: a fresh initial vertex with ε edges to
    both initial vertices."""
    return union_all([a, b])


def union_all(parts: list[A]) -> A:
    """The left fold of union over parts, built in one pass with the same
    ids.  The fold of k parts opens with the chain of its k-1 roots: root j
    (the root of the fold of the first k-j parts) has ε edges to root j+1,
    or to the first part when j = k-2, and to part k-1-j.  The parts follow
    in order, each at k-1 plus the sizes of the parts before it."""
    if not parts:
        raise ValueError("union_all needs at least one automaton")
    cls, alphabet = type(parts[0]), parts[0].alphabet
    if any(type(p) is not cls for p in parts):
        raise ValueError("cannot combine automata of different kinds")
    if any(p.alphabet != alphabet for p in parts):
        raise ValueError("automata over different alphabets")
    if len(parts) == 1:
        return parts[0]
    k = len(parts)
    offs = [k - 1]
    for p in parts[:-1]:
        offs.append(offs[-1] + p.n)
    edges = _root_chain(cls.EPS, [off + p.initial for off, p in zip(offs, parts)])
    terms: list[int] = []
    for off, p in zip(offs, parts):
        edges.extend((off + s, lab, off + d) for s, lab, d in p.edges)
        terms.extend(off + x for x in p.terminals)
    return cls(alphabet, offs[-1] + parts[-1].n, edges, 0, terms)


def _root_chain(eps: Hashable, inits: list[int]) -> list[tuple]:
    """The ε edges of union_all's roots 0..k-2 over k parts whose initial
    vertices are inits."""
    k = len(inits)
    nxt = [*range(1, k - 1), inits[0]]
    return [(j, eps, v) for j in range(k - 1) for v in (nxt[j], inits[k - 1 - j])]


def concat(a: A, b: A) -> A:
    if type(a) is not type(b):
        raise ValueError("cannot combine automata of different kinds")
    if a.alphabet != b.alphabet:
        raise ValueError("automata over different alphabets")
    off = a.n
    edges = list(a.edges)
    edges.extend((off + s, lab, off + d) for s, lab, d in b.edges)
    edges.extend((t, a.EPS, off + b.initial) for t in a.terminals)
    terms = [off + t for t in b.terminals]
    return type(a)(a.alphabet, a.n + b.n, edges, a.initial, terms)


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
    """Subset construction.  Returns (transitions, accepting) where
    transitions[state][letter] is a state id, state 0 is the start and
    missing entries are the dead state (id -1)."""
    k = len(a.alphabet)

    def moves(s):
        return [(x, t) for x in range(k) if (t := step(a, s, x))]

    subsets, edges = _explore(eps_closure(a, [a.initial]), moves)
    trans = [[-1] * k for _ in subsets]
    for s, x, d in edges:
        trans[s][x] = d
    return trans, [bool(s & a.terminals) for s in subsets]


def difference_witness(a: Nfa, b: Nfa) -> Optional[Word]:
    """Shortlex-least word accepted by exactly one of a, b, or None if the
    languages are equal.  Exact decision by the product of the two subset
    constructions; the dead state is implicit."""
    if a.alphabet != b.alphabet:
        raise ValueError("automata over different alphabets")
    ta, fa = _dfa(a)
    tb, fb = _dfa(b)
    k = len(a.alphabet)

    def acc(side, s):
        return s >= 0 and side[s]

    seen = {(0, 0)}
    queue = deque([(0, 0, ())])
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
    ta, fa = _dfa(a)

    def moves(key):
        pa, pb = key
        # nothing of L(a) survives down a branch where a dies
        return [(x, (qa, step(b, pb, x))) for x, qa in enumerate(ta[pa]) if qa != -1]

    keys, edges = _explore((0, eps_closure(b, [b.initial])), moves)
    return edges, [fa[pa] for pa, _pb in keys], [pb for _pa, pb in keys]


def difference(a: Nfa, b: Nfa) -> Nfa:
    """An automaton for L(a) minus L(b), built from the product of the two
    subset constructions."""
    edges, a_accepts, b_subsets = _subset_product(a, b)
    terms = [i for i, s in enumerate(b_subsets) if a_accepts[i] and not s & b.terminals]
    return trim(Nfa(a.alphabet, len(b_subsets), edges, 0, terms))


def minimize(a: Nfa) -> Nfa:
    """Minimal deterministic automaton for the language, without epsilon
    edges.  Subset construction followed by partition refinement; missing
    transitions reject, so the dead state never materializes."""
    trans, acc = _dfa(a)
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
    return trim(Nfa(a.alphabet, nblocks, edges, block[0], terms))


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


def remove_epsilon(a: Nfa) -> Nfa:
    """Equivalent automaton without epsilon edges (same vertex set)."""
    edges: set[Edge] = set()
    terms = set()
    for p in range(a.n):
        cl = eps_closure(a, [p])
        if cl & a.terminals:
            terms.add(p)
        for r in cl:
            for _r, x, q in a.adjacency()[r]:
                if x is not None:
                    edges.add((p, x, q))
    return Nfa(a.alphabet, a.n, edges, a.initial, terms)


def renumber_bfs(a: A) -> A:
    """Canonical renumbering: breadth-first from the initial vertex, edges
    ordered epsilon first then by label key then by old target id.
    Unreachable vertices keep their relative order after the reachable part."""
    order, _edges = _explore(a.initial, lambda p: [(lab, q) for _p, lab, q in a.adjacency()[p]])
    reached = set(order)
    order.extend(p for p in range(a.n) if p not in reached)
    remap = {old: new for new, old in enumerate(order)}
    edges = [(remap[s], lab, remap[d]) for s, lab, d in a.edges]
    return type(a)(a.alphabet, a.n, edges, remap[a.initial], [remap[t] for t in a.terminals])
