"""Brute-force reference semantics for the bounded-language tests.

Everything here works directly from the definitions: set simulation over
the complete word tree, worklist saturation over prefix pairs, and plain
set algebra.  None of the library's composite algorithms are in the loop,
so agreement on bounded languages is meaningful evidence.
"""

import functools
import importlib.util
from collections import deque
from itertools import product
from pathlib import Path
from typing import Optional

from hypothesis import strategies as hst

from combings import (
    AbelianOracle,
    FiniteOracle,
    FreeOracle,
    LinearLanguage,
    Nfa,
    Transducer,
    Word,
    ball,
    invert_linear,
    invert_word,
)
from combings import nfa as nfa_mod
from combings import structures
from combings import transducer as td
from combings.structures import SigWord, _violation


def words_upto(alphabet, maxlen):
    out = [Word(alphabet, ())]
    k = len(alphabet)
    for n in range(1, maxlen + 1):
        for tup in product(range(k), repeat=n):
            out.append(Word(alphabet, tup))
    return out


def random_word(rng, alphabet, maxlen, minlen=0):
    n = rng.randint(minlen, maxlen)
    return Word(alphabet, [rng.randrange(len(alphabet)) for _ in range(n)])


def random_nfa(rng, alphabet, max_states=5, eps_frac=0.15):
    n = rng.randint(1, max_states)
    m = rng.randint(1, 2 * n + 3)
    edges = []
    for _ in range(m):
        lab = None if rng.random() < eps_frac else rng.randrange(len(alphabet))
        edges.append((rng.randrange(n), lab, rng.randrange(n)))
    terms = [q for q in range(n) if rng.random() < 0.5]
    return Nfa(alphabet, n, edges, 0, terms)


def random_transducer(rng, alphabet, max_states=5, eps_frac=0.2):
    n = rng.randint(1, max_states)
    m = rng.randint(1, 2 * n + 4)
    k = len(alphabet)
    edges = []
    for _ in range(m):
        x = None if rng.random() < eps_frac else rng.randrange(k)
        y = None if rng.random() < eps_frac else rng.randrange(k)
        edges.append((rng.randrange(n), (x, y), rng.randrange(n)))
    terms = [q for q in range(n) if rng.random() < 0.5]
    return Transducer(alphabet, n, edges, 0, terms)


def _reference_module():
    """bench/reference.py, which builds the benchmark's finite tables."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


REF = _reference_module()


@hst.composite
def oracles(draw, ab):
    """A free, abelian (L1 or not) or finite-table oracle over ab; the
    second letter's image may be the identity or equal the first's."""
    positive = ab.symbols[::2]
    kind = draw(hst.sampled_from(["free", "l1", "weighted", "table"]))
    if kind == "free":
        return FreeOracle(ab)
    if kind in ("l1", "weighted"):
        rank = draw(hst.integers(1, 2))
        if kind == "l1":
            units = [(0,) * rank] + [
                tuple(s * (k == i) for k in range(rank)) for i in range(rank) for s in (1, -1)
            ]
            vec = hst.sampled_from(units)
        else:
            vec = hst.tuples(*[hst.integers(-2, 2)] * rank)
        weights = {sym: draw(vec) for sym in positive}
        return AbelianOracle(ab, rank, weights)
    degree = draw(hst.integers(2, 4))
    gens = draw(hst.lists(hst.permutations(range(degree)).map(tuple), min_size=1, max_size=2))
    table, _ = REF.perm_table(gens)
    table, _ = REF.relabel(table, [], draw(hst.randoms(use_true_random=False)))
    n = len(table)
    first = draw(hst.integers(0, n - 1))
    images = [first] + [
        draw(hst.one_of(hst.just(first), hst.just(0), hst.integers(0, n - 1)))
        for _ in positive[1:]
    ]
    return FiniteOracle(ab, table, dict(zip(positive, images)))


def word_metric(o, radius):
    """The word metric of o's Cayley graph within radius, by breadth-first
    search over right multiplication by the letter images, with nothing
    from the oracle but mul and letter_element: a dict from each element
    within radius to its distance from the identity."""
    gens = [o.letter_element(x) for x in range(len(o.alphabet))]
    e0 = o.mul(gens[0], gens[o.alphabet.inv[0]])  # a letter times its inverse
    dist = {e0: 0}
    level = {e0}
    for r in range(1, radius + 1):
        level = {o.mul(e, g) for e in level for g in gens} - dist.keys()
        dist.update(dict.fromkeys(level, r))
    return dist


def _closure(eps, states):
    seen = set(states)
    stack = list(states)
    while stack:
        p = stack.pop()
        for q in eps.get(p, ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def _nfa_tables(a):
    eps = {}
    step = {}
    for s, x, d in a.edges:
        if x is None:
            eps.setdefault(s, []).append(d)
        else:
            step.setdefault((s, x), []).append(d)
    return eps, step


def accepts_bf(a: Nfa, w: Word) -> bool:
    eps, step = _nfa_tables(a)
    cur = _closure(eps, {a.initial})
    for x in w.indices:
        nxt = set()
        for p in cur:
            nxt.update(step.get((p, x), ()))
        cur = _closure(eps, nxt)
        if not cur:
            return False
    return bool(cur & a.terminals)


def lang_of_nfa(a: Nfa, maxlen: int) -> set:
    """All accepted words of length <= maxlen, by levelwise set simulation
    over the complete word tree."""
    eps, step = _nfa_tables(a)
    terms = set(a.terminals)
    k = len(a.alphabet)
    frontier = {(): _closure(eps, {a.initial})}
    out = set()
    for n in range(maxlen + 1):
        nxt = {}
        for tup, states in frontier.items():
            if states & terms:
                out.add(Word(a.alphabet, tup))
            if n == maxlen:
                continue
            for x in range(k):
                ns = set()
                for p in states:
                    ns.update(step.get((p, x), ()))
                if ns:
                    nxt[tup + (x,)] = _closure(eps, ns)
        frontier = nxt
    return out


def pairs_of_transducer(t: Transducer, max_total: int) -> set:
    """All accepted pairs with |u| + |v| <= max_total, by worklist
    saturation over (state, read-so-far) triples."""
    adj = {}
    for s, lab, d in t.edges:
        adj.setdefault(s, []).append((lab, d))
    terms = set(t.terminals)
    start = (t.initial, (), ())
    seen = {start}
    stack = [start]
    out = set()
    while stack:
        p, u, v = stack.pop()
        if p in terms:
            out.add((u, v))
        for (x, y), q in adj.get(p, ()):
            u2 = u + (x,) if x is not None else u
            v2 = v + (y,) if y is not None else v
            if len(u2) + len(v2) > max_total:
                continue
            key = (q, u2, v2)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    ab = t.alphabet
    return {(Word(ab, u), Word(ab, v)) for u, v in out}


def _eager_dfa(a: Nfa):
    """Subset construction over the whole reachable subset space, ids in
    breadth-first discovery order; -1 is the dead subset."""
    eps, step = _nfa_tables(a)
    start = _closure(eps, {a.initial})
    ids = {start: 0}
    order = [start]
    trans = []
    for s in order:
        row = []
        for x in range(len(a.alphabet)):
            t = _closure(eps, {q for p in s for q in step.get((p, x), ())})
            if not t:
                row.append(-1)
                continue
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
            row.append(ids[t])
        trans.append(row)
    return trans, [bool(s & a.terminals) for s in order]


def bfs_order(a):
    """The vertices of a in the order of a plain breadth-first search from
    the initial vertex, each vertex's out-edges taken by label key and then
    target, then the unreached ones in increasing order: the order
    renumber_bfs must number them in."""
    adj = [[] for _ in range(a.n)]
    for s, lab, d in a.edges:
        adj[s].append((a.label_key(lab), d))
    for row in adj:
        row.sort()
    order = []
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        order.append(p)
        for _key, q in adj[p]:
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return order + [p for p in range(a.n) if p not in seen]


def difference_eager(a: Nfa, b: Nfa) -> Nfa:
    """L(a) minus L(b) as the breadth-first product of two eagerly built
    subset constructions, trimmed by the library's trim: the numbering the
    library's difference must reproduce exactly."""
    ta, fa = _eager_dfa(a)
    tb, fb = _eager_dfa(b)
    ids = {(0, 0): 0}
    order = [(0, 0)]
    edges = []
    terms = []
    for me, (pa, pb) in enumerate(order):
        if fa[pa] and not (pb >= 0 and fb[pb]):
            terms.append(me)
        for x in range(len(a.alphabet)):
            qa = ta[pa][x]
            if qa == -1:
                continue
            key = (qa, tb[pb][x] if pb >= 0 else -1)
            if key not in ids:
                ids[key] = len(order)
                order.append(key)
            edges.append((me, x, ids[key]))
    return nfa_mod.trim(Nfa(a.alphabet, len(order), edges, 0, terms))


def intersect_regular_per_rectangle(l: LinearLanguage, r: Nfa) -> LinearLanguage:
    """Intersection of a linear language with a regular one, built one
    rectangle at a time: for each vertex of the trimmed r, its own
    intersect_rect and trim, then the union of the nonempty pieces.  This
    is the numbering the library's shared product must reproduce exactly."""
    r = nfa_mod.trim(r)
    parts = []
    for x_i, y_i in nfa_mod.split_decomposition(r):
        if l.mode == "inverse":
            y_side = nfa_mod.inverse_lang(y_i)
        else:
            y_side = nfa_mod.reverse(y_i)
        piece = td.trim(td.intersect_rect(l.t, x_i, y_side))
        if piece.terminals:
            parts.append(piece)
    if not parts:
        return LinearLanguage(Transducer(l.t.alphabet, 1, [], 0, []), l.mode)
    return LinearLanguage(union_fold(parts), l.mode)


def union_fold(parts):
    """The pairwise left fold of nfa.union: the numbering nfa.union_all
    must reproduce."""
    return functools.reduce(nfa_mod.union, parts)


def trim_fresh(a):
    """trim by the definition, always building a new automaton: the
    vertices reachable from the initial one and co-reachable to a terminal,
    and the initial one, renumbered in increasing order."""
    succ, pred = {}, {}
    for s, _lab, d in a.edges:
        succ.setdefault(s, []).append(d)
        pred.setdefault(d, []).append(s)
    useful = _closure(succ, {a.initial}) & _closure(pred, a.terminals)
    order = sorted(useful | {a.initial})
    remap = {old: new for new, old in enumerate(order)}
    edges = [(remap[s], lab, remap[d]) for s, lab, d in a.edges if s in useful and d in useful]
    terms = [remap[x] for x in a.terminals if x in useful]
    return type(a)(a.alphabet, len(order), edges, remap[a.initial], terms)


def trim_union_fresh(a, term_sets):
    """nfa._trim_union by its definition: a trimmed with trim_fresh once per
    terminal set, the pieces with empty language dropped, the rest folded
    with union; a trimmed without terminals when no piece is left."""
    pieces = [trim_fresh(type(a)(a.alphabet, a.n, a.edges, a.initial, s)) for s in term_sets]
    pieces = [p for p in pieces if p.terminals]
    if not pieces:
        return trim_fresh(type(a)(a.alphabet, a.n, a.edges, a.initial, []))
    return union_fold(pieces)


def inversion_closure(t):
    """The transducer t ∪ t⁻¹: a root with ε edges to t and to its tape
    swap, whose members are the inverses of t's."""
    return nfa_mod.union(t, invert_linear(LinearLanguage(t, "inverse")).t)


def closed_generators(l):
    """The generator transducer closed under inversion first, then trimmed
    and stripped of (ε,ε) cycles: the automaton build_combing's stages
    describe, which it reads off one half instead."""
    return td.strip_epsilon_cycles(td.trim(inversion_closure(l.t)))


def core_by_reach(t):
    """structures.core_subgraph by its definition: the vertices that reach
    a vertex on a cycle, and the edges into them."""
    succ = {}
    for s, _lab, d in t.edges:
        succ.setdefault(s, []).append(d)
    on_cycle = {u for u in range(t.n) if u in _closure(succ, succ.get(u, []))}
    core_v = {v for v in range(t.n) if _closure(succ, [v]) & on_cycle}
    return core_v, {e for e in t.edges if e[2] in core_v}


def first_tape_core(t):
    """C0 of t before minimizing, by its definition: the first-tape
    projection of t's core, every state terminal, or {ε} when the core is
    empty."""
    core_v, core_e = core_by_reach(t)
    if not core_v:
        return Nfa(t.alphabet, 1, [], 0, [0])
    order = sorted(core_v)
    remap = {old: new for new, old in enumerate(order)}
    edges = [(remap[s], lab[0], remap[d]) for s, lab, d in core_e]
    return Nfa(t.alphabet, len(order), edges, remap[t.initial], range(len(order)))


def strip_epsilon_cycles_fresh(t):
    """strip_epsilon_cycles by the definition: vertices that reach each
    other by (ε,ε) edges merge into the least of them, and the (ε,ε) edges
    inside a merged class, self-loops included, are dropped."""
    eps = {}
    for s, lab, d in t.edges:
        if lab == (None, None):
            eps.setdefault(s, []).append(d)
    reach = [_closure(eps, {v}) for v in range(t.n)]
    rep = [min(w for w in reach[v] if v in reach[w]) for v in range(t.n)]
    order = sorted(set(rep))
    remap = {old: new for new, old in enumerate(order)}
    edges = {
        (remap[rep[s]], lab, remap[rep[d]])
        for s, lab, d in t.edges
        if not (lab == (None, None) and rep[s] == rep[d])
    }
    terms = {remap[rep[x]] for x in t.terminals}
    return Transducer(t.alphabet, len(order), edges, remap[rep[t.initial]], terms)


def _imbalance(lab):
    return (lab[0] is not None) - (lab[1] is not None)


def balanced_by_walks(t):
    """check_balanced_cycles by its definition: no closed walk reads tapes
    of different lengths.  A closed walk splits into simple cycles of at
    most t.n edges each, so the closed walks of at most t.n edges decide."""
    for v in range(t.n):
        level = {(v, 0)}
        for _ in range(t.n):
            level = {(d, w + _imbalance(lab)) for u, w in level for s, lab, d in t.edges if s == u}
            if any(u == v and w for u, w in level):
                return False
    return True


def synchronized_bound_by_walks(t):
    """synchronized_bound by its definition, over the walks of trim_fresh(t)
    from its initial vertex, as states (vertex, imbalance so far): the
    largest |imbalance| at a terminal, 0 without one, or None once a walk
    reaches an imbalance of n, the trim's size.  With every cycle balanced
    an imbalance is that of a simple path, below n; an unbalanced cycle
    lies on an accepted path and pumps it past any bound."""
    s = trim_fresh(t)
    seen = {(s.initial, 0)}
    stack = list(seen)
    while stack:
        u, w = stack.pop()
        if abs(w) >= s.n:
            return None
        for a, lab, d in s.edges:
            if a == u and (d, w + _imbalance(lab)) not in seen:
                seen.add((d, w + _imbalance(lab)))
                stack.append((d, w + _imbalance(lab)))
    return max((abs(w) for u, w in seen if u in s.terminals), default=0)


def rectangle_product_unpruned(t, r, mode):
    """The shared rectangle product of intersect_regular for a trimmed r,
    built in full with _product_side and then cut to the states that reach
    a rectangle terminal, plus the initial state.  A rectangle terminal is
    a state (f, q) whose first-product state f pairs a terminal t-state
    with the r-state q.  Returns the kept keys in id order, the edges
    between kept states renumbered by that order, and the initial id."""
    y_side = nfa_mod.inverse_lang(r) if mode == "inverse" else nfa_mod.reverse(r)
    first, first_keys = product_side_chain(t, r, 0)
    both, keys = product_side_chain(first, y_side, 1)
    targets = {
        i
        for i, (f, q) in enumerate(keys)
        if first_keys[f][0] in t.terminals and first_keys[f][1] == q
    }
    pred = {}
    for s, _lab, d in both.edges:
        pred.setdefault(d, []).append(s)
    order = sorted(_closure(pred, targets) | {both.initial})
    remap = {old: new for new, old in enumerate(order)}
    edges = {
        (remap[s], lab, remap[d])
        for s, lab, d in both.edges
        if s in remap and d in remap
    }
    return [keys[i] for i in order], edges, remap[both.initial]


# The extract as it was built automaton by automaton: the union of the
# per-letter trims and the tape-0 product each a Transducer that the next
# product reads through adjacency(), product states tuple-keyed.  The
# library's one chain of explored graphs must give the very same automata.


def _built_union(cls, alphabet, n, edges, initial, term_sets):
    return nfa_mod._trimmed(cls(alphabet, *nfa_mod._trim_union(cls, n, edges, initial, term_sets, explored=True)))


def explore_side_chain(t, r, side, allowed=None):
    """The product restricting tape `side` of the transducer t to r, as
    _explore returns it, walking t.adjacency() and r.adjacency() with
    (t-state, r-state) tuples for keys; with allowed, a bit set of r-states
    per t-state, other pairs than the initial one are not created."""
    tadj = t.adjacency()
    rnext = [{} for _ in range(r.n)]
    for row in r.adjacency():
        for q, rl, q2 in row:
            rnext[q].setdefault(rl, []).append(q2)
    allowed = [-1] * t.n if allowed is None else list(allowed)
    allowed[t.initial] |= 1 << r.initial

    def moves(key):
        p, q = key
        out = []
        for _p, lab, p2 in tadj[p]:
            x = lab[side]
            for q2 in (q,) if x is None else rnext[q].get(x, ()):
                if allowed[p2] >> q2 & 1:
                    out.append((lab, (p2, q2)))
        for q2 in rnext[q].get(None, ()):
            if allowed[p] >> q2 & 1:
                out.append(((None, None), (p, q2)))
        return out

    return nfa_mod._explore((t.initial, r.initial), moves)


def product_side_chain(t, r, side):
    """explore_side_chain built as a Transducer, terminal where t and r
    both are, with its keys."""
    keys, edges = explore_side_chain(t, r, side)
    terms = [i for i, (p, q) in enumerate(keys) if p in t.terminals and q in r.terminals]
    return Transducer(t.alphabet, len(keys), edges, 0, terms), keys


def coreachable_masks_chain(t, r, side, targets):
    """Per state p of t, the bit set of the r-states q whose pair (p, q) in
    explore_side_chain(t, r, side) reaches a target: a backward worklist
    over t's edges, each tape letter mapping a set through r's
    predecessors, r's ε edges closing every set."""
    eps = nfa_mod._arrows(r.n, [e for e in r.edges if e[1] is None], False)
    closed = [sum(1 << v for v in nfa_mod._search(eps, [q])) for q in range(r.n)]
    back = [[0] * r.n for _ in range(len(r.alphabet))]
    for q, x, q2 in r.edges:
        if x is not None:
            back[x][q2] |= closed[q]
    tback = [[] for _ in range(t.n)]
    for p, lab, p2 in t.edges:
        tback[p2].append((lab[side], p))
    mask = [0] * t.n
    for f, q in targets:
        mask[f] |= closed[q]
    stack = [f for f in range(t.n) if mask[f]]
    while stack:
        p2 = stack.pop()
        for x, p in tback[p2]:
            m = mask[p2] if x is None else 0
            for q2 in range(r.n):
                if x is not None and mask[p2] >> q2 & 1:
                    m |= back[x][q2]
            if m & ~mask[p]:
                mask[p] |= m
                stack.append(p)
    return mask


def intersect_regular_chain(l, r):
    """linear.intersect_regular through the automata chain: the tape-0
    product a Transducer, its masks and the masked tape-1 product read off
    it, the rectangles trimmed and united."""
    r = nfa_mod.trim(r)
    y_side = nfa_mod.inverse_lang(r) if l.mode == "inverse" else nfa_mod.reverse(r)
    first, first_keys = product_side_chain(l.t, r, 0)
    split_at = [q if p in l.t.terminals else None for p, q in first_keys]
    targets = [(f, q) for f, q in enumerate(split_at) if q is not None]
    live = coreachable_masks_chain(first, y_side, 1, targets)
    keys, edges = explore_side_chain(first, y_side, 1, live)
    term_sets = [[] for _ in range(r.n)]
    for i, (f, q) in enumerate(keys):
        if split_at[f] == q:
            term_sets[q].append(i)
    return LinearLanguage(_built_union(Transducer, r.alphabet, len(keys), edges, 0, term_sets), l.mode)


def extract_generators_chain(c, o, ft_bound):
    """structures.extract_generators through the automata chain: the pair
    product by its definition, the union of the per-letter trims built as
    a Transducer, then intersect_regular_chain with the nonempty freely
    reduced words."""
    c = nfa_mod.remove_epsilon(nfa_mod.trim(c))
    bl = ball(o, ft_bound)
    statelist, edges = pair_product_bf(c, c, o, bl)
    n = len(statelist)
    term_sets = []
    for a in range(len(c.alphabet)):
        terms = [
            i
            for i, (p, q, h) in enumerate(statelist)
            if h == o.letter_element(a) and p in c.terminals and q in c.terminals
        ]
        if terms:
            edges += [(i, (None, None), n) for i in terms] + [(n, (a, None), n + 1)]
            term_sets.append([n + 1])
            n += 2
    u = _built_union(Transducer, c.alphabet, n, edges, 0, term_sets)
    reduced = nfa_mod.freely_reduced_lang(c.alphabet, include_empty=False)
    return intersect_regular_chain(LinearLanguage(u, "inverse"), reduced)


def coreachable_pairs_bf(t, r, side, targets):
    """The pairs (t-state, r-state) that can reach some pair in targets in
    the product restricting tape `side` of t to r, taken over every pair,
    reachable or not: each pair's moves listed from the definition (a t-edge
    reading x on the tape moves r along an x edge, or leaves it in place
    when x is ε; an ε edge of r moves alone), then a backward search."""
    pred = {}
    for p in range(t.n):
        for q in range(r.n):
            nexts = [(p, q2) for q1, y, q2 in r.edges if q1 == q and y is None]
            for s, lab, p2 in t.edges:
                if s != p:
                    continue
                x = lab[side]
                if x is None:
                    nexts.append((p2, q))
                else:
                    nexts.extend((p2, q2) for q1, y, q2 in r.edges if q1 == q and y == x)
            for key in nexts:
                pred.setdefault(key, []).append((p, q))
    return _closure(pred, set(targets))


def pair_product_bf(c1, c2, o, bl):
    """structures._pair_product by its definition: a breadth-first walk over
    states (p, q, h), each move reading a letter x of c1, a letter y of c2
    or both, with h going to x⁻¹·h·y as the oracle's mul computes it from
    the letters' elements, kept when that lies in the ball bl.  Each
    automaton's moves are its edges out of the state sorted by letter and
    then target, then staying put.  Returns the states and the edges, as
    _explore does."""
    inv = c1.alphabet.inv
    start = (c1.initial, c2.initial, o.identity_element())
    ids = {start: 0}
    keys = [start]
    edges = []
    for i, (p, q, h) in enumerate(keys):
        for x, p2 in sorted((x, d) for s, x, d in c1.edges if s == p) + [(None, p)]:
            for y, q2 in sorted((y, d) for s, y, d in c2.edges if s == q) + [(None, q)]:
                if x is None and y is None:
                    continue
                h2 = h if x is None else o.mul(o.letter_element(inv[x]), h)
                h2 = h2 if y is None else o.mul(h2, o.letter_element(y))
                if h2 not in bl.dist:
                    continue
                key = (p2, q2, h2)
                if key not in ids:
                    ids[key] = len(keys)
                    keys.append(key)
                edges.append((i, (x, y), ids[key]))
    return keys, edges


def shared_masks_by_elements(c0, statelist, prod_edges):
    """structures._shared_difference by its definition, with each mask as
    the set of its classes: the breadth-first product of DFA(C0), as
    _eager_dfa numbers it, with the subsets of the pair product's first
    tape, each step closed by _closure over _nfa_tables; a vertex where C0
    accepts collects, one element at a time, the class h of every (p, q, h)
    in its subset with p and q terminal in C0.  Returns the vertex count,
    the class sets and the total size of the subsets."""
    proj = Nfa(c0.alphabet, len(statelist), [(s, lab[0], d) for s, lab, d in prod_edges], 0, [])
    ta, fa = _eager_dfa(c0)
    eps, step = _nfa_tables(proj)
    start = (0, _closure(eps, {0}))
    ids = {start: 0}
    order = [start]
    for pa, sub in order:
        for x, qa in enumerate(ta[pa]):
            if qa == -1:
                continue
            key = (qa, _closure(eps, {q for p in sub for q in step.get((p, x), ())}))
            if key not in ids:
                ids[key] = len(order)
                order.append(key)
    ends = c0.terminals
    masks = {}
    for i, (pa, sub) in enumerate(order):
        if fa[pa]:
            m = set()
            for j in sub:
                p, q, h = statelist[j]
                if p in ends and q in ends:
                    m.add(h)
            masks[i] = m
    return len(order), masks, sum(len(sub) for _pa, sub in order)


def _staircases(m, n):
    """Every monotone path of grid cells from (0, 0) to (m, n) with steps
    right, down or diagonal."""
    if (m, n) == (0, 0):
        return [[(0, 0)]]
    out = []
    for di, dj in ((1, 0), (0, 1), (1, 1)):
        if m >= di and n >= dj:
            out.extend(path + [(m, n)] for path in _staircases(m - di, n - dj))
    return out


def ft_distance_by_staircases(o, mode, u, v, cap):
    """structures' ft_distance by its definition, with cell (i, j) at the
    oracle's distance between the prefixes u[:i] and v[:j].  sync: the
    largest distance over the lockstep cells (min(i, |u|), min(i, |v|)).
    async: the least such largest distance over every staircase.  A cell
    the oracle gives no distance blocks its staircase; None above cap."""

    @functools.cache
    def d(i, j):
        return o.distance_from_identity(o.element(invert_word(u[:i]) + v[:j]))

    if mode == "sync":
        n = max(len(u), len(v))
        paths = [[(min(i, len(u)), min(i, len(v))) for i in range(n + 1)]]
    else:
        paths = _staircases(len(u), len(v))
    values = [[d(i, j) for i, j in path] for path in paths]
    worst = [max(ds) for ds in values if None not in ds]
    return min((x for x in worst if x <= cap), default=None)


def ft_bound_all_pairs(c, o, mode, maxlen):
    """ft_bound_of_combing by testing every pair of sampled members for
    adjacency: d(ē_u⁻¹·ē_v) <= 1 by the oracle's own distance.  Reads
    FT_MAX_MEMBERS, FT_CAP and ft_distance from structures at call time, so
    a patch there applies to both."""
    members = nfa_mod.enumerate_words(c, maxlen)[: structures.FT_MAX_MEMBERS]
    elems = [(w, o.element(w)) for w in members]
    inverses = [o.inv_element(e) for _w, e in elems]
    worst = 0
    for i, (u, _eu) in enumerate(elems):
        for v, ev in elems[i + 1 :]:
            d = o.distance_from_identity(o.mul(inverses[i], ev))
            if d is None or d > 1:
                continue
            f = structures.ft_distance(o, mode, u, v, structures.FT_CAP)
            if f is None:
                return None
            worst = max(worst, f)
    return worst


def tail_classes_by_paths(t, core_v, o):
    """structures._tail_classes by its definition.  Every off-core path is
    walked on its own: from a core vertex through an edge that leaves the
    core, or from the initial vertex when the core is empty, tracking the
    classes (ex, ey) of what each tape has read, starting at the identity
    e0.  The classes are e0, every ex on every path, and for a path that
    ends at a terminal vertex, base·ey(s) for each point s of the path,
    where base = ex·ey⁻¹ at the end."""
    e0 = o.identity_element()
    adj = {}
    for s, lab, d in t.edges:
        adj.setdefault(s, []).append((lab, d))
    classes = {e0}

    def read(point, lab):
        (ex, ey), (x, y) = point, lab
        return (ex if x is None else o.mul_right(ex, x), ey if y is None else o.mul_right(ey, y))

    def walk(v, path):
        ex, ey = path[-1]
        classes.add(ex)
        if v in t.terminals:
            base = o.mul(ex, o.inv_element(ey))
            classes.update(o.mul(base, hy) for _hx, hy in path)
        for lab, q in adj.get(v, ()):
            walk(q, path + [read(path[-1], lab)])

    if core_v:
        for s, lab, d in t.edges:
            if s in core_v and d not in core_v:
                walk(d, [(e0, e0), read((e0, e0), lab)])
    else:
        walk(t.initial, [(e0, e0)])
    return classes


def concat_sets(xs, ys, maxlen):
    out = set()
    for u in xs:
        if len(u) > maxlen:
            continue
        for v in ys:
            if len(u) + len(v) <= maxlen:
                out.add(u + v)
    return out


def reverse_set(xs):
    return {Word(w.alphabet, tuple(reversed(w.indices))) for w in xs}


def search_significant_backtracking(words: list[Word]) -> Optional[list[SigWord]]:
    """Exhaustively search a significant-letter assignment for the words:
    the reference for structures.search_significant.

    Inverse words are constrained together (the mark mirrors), so the
    search runs over one representative per {w, w^-1} orbit, backtracking
    on the pairwise product checks.  Returns marks for the input words in
    order, or None when no assignment exists.
    """
    uniq: list[Word] = []
    seen = set()
    for w in words:
        if len(w) == 0 or not w.is_freely_reduced():
            raise ValueError(f"word {str(w) or 'ε'} is not freely reduced and nonempty")
        if w not in seen:
            seen.add(w)
            uniq.append(w)
    orbits: list[Word] = []
    orbit_of: dict[Word, tuple[int, bool]] = {}
    for w in uniq:
        if w in orbit_of:
            continue
        iw = invert_word(w)
        orbit_of[w] = (len(orbits), False)
        if iw != w:
            orbit_of[iw] = (len(orbits), True)
        orbits.append(w)

    assigned: list[SigWord] = []

    def ok_with(new: SigWord) -> bool:
        group = [new, new.inverse()]
        others = assigned + [g for a in assigned for g in [a.inverse()]]
        return all(
            _violation(s1, s2) is None
            for x in group
            for y in others + group
            for s1, s2 in ((x, y), (y, x))
        )

    def backtrack(i: int) -> bool:
        if i == len(orbits):
            return True
        w = orbits[i]
        # central positions first: they are the likeliest to survive products
        positions = sorted(range(1, len(w) + 1), key=lambda p: (abs(2 * p - (len(w) + 1)), p))
        for pos in positions:
            cand = SigWord(w, pos)
            if ok_with(cand):
                assigned.append(cand)
                if backtrack(i + 1):
                    return True
                assigned.pop()
        return False

    if not backtrack(0):
        return None
    out = []
    for w in uniq:
        idx, inverted = orbit_of[w]
        sw = assigned[idx]
        out.append(sw.inverse() if inverted else sw)
    return out
