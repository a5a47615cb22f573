import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import combings
from combings import Alphabet, Nfa, Transducer, Word, core_subgraph
from combings import linear as lin
from combings import nfa as nfa_mod
from combings import transducer as td
from bruteforce import (
    balanced_by_walks,
    concat_sets,
    core_by_reach,
    coreachable_pairs_bf,
    lang_of_nfa,
    pairs_of_transducer,
    random_nfa,
    random_transducer,
    random_word,
    strip_epsilon_cycles_fresh,
    synchronized_bound_by_walks,
    trim_fresh,
    trim_union_fresh,
    union_fold,
    words_upto,
)


def _accepts_pair(t, u, v):
    return td._pair_path(t, u, v, len(u) + len(v)) is not None


def _assert_spells(t, path, u, v):
    """path is a chain of t's edges from the initial vertex to a terminal
    whose tapes spell u and v."""
    assert all(e in t.edges for e in path)
    ends = [t.initial] + [d for _s, _lab, d in path]
    assert [s for s, _lab, _d in path] == ends[:-1]
    assert ends[-1] in t.terminals
    assert Word(t.alphabet, [lab[0] for _s, lab, _d in path if lab[0] is not None]) == u
    assert Word(t.alphabet, [lab[1] for _s, lab, _d in path if lab[1] is not None]) == v


def test_constructor_validation(ab2):
    """Out-of-range labels on either tape, edge ends, initial vertex and
    terminals are refused, as for Nfa (test_nfa.test_edge_validation)."""
    for bad in (
        lambda: Transducer(ab2, 2, [(0, (9, None), 1)], 0, [1]),
        lambda: Transducer(ab2, 2, [(0, (None, 4), 1)], 0, [1]),
        lambda: Transducer(ab2, 2, [(0, (0, -1), 1)], 0, [1]),
        lambda: Transducer(ab2, 2, [(0, (0, 0), 2)], 0, [1]),
        lambda: Transducer(ab2, 2, [(-1, (0, 0), 1)], 0, [1]),
        lambda: Transducer(ab2, 2, [(0, (0, 0), 1)], 2, [1]),
        lambda: Transducer(ab2, 2, [(0, (0, 0), 1)], 0, [5]),
    ):
        with pytest.raises(ValueError):
            bad()
    # every edge is checked, not only the first with a given label
    with pytest.raises(ValueError):
        Transducer(ab2, 3, [(0, (0, 0), 1), (1, (0, 0), 3)], 0, [1])


def test_transducer_is_not_an_nfa(ab2):
    t = Transducer(ab2, 1, [], 0, [0])
    assert not isinstance(t, Nfa)
    assert not isinstance(Nfa(ab2, 1, [], 0, [0]), Transducer)
    with pytest.raises(ValueError):
        nfa_mod.union(t, Nfa(ab2, 1, [], 0, [0]))


def test_accepts_pair_basics(ab2):
    t = Transducer(ab2, 2, [(0, (0, None), 0), (0, (2, 2), 1)], 0, [1])
    assert _accepts_pair(t, ab2.word("aab"), ab2.word("b"))
    assert _accepts_pair(t, ab2.word("b"), ab2.word("b"))
    assert not _accepts_pair(t, ab2.word("aab"), ab2.word("ab"))
    assert not _accepts_pair(t, ab2.word("aa"), ab2.word(""))


def test_accepts_pair_vs_bruteforce(rng, ab2):
    for _ in range(25):
        t = random_transducer(rng, ab2, max_states=4)
        want = pairs_of_transducer(t, 6)
        for u, v in want:
            assert _accepts_pair(t, u, v)
        for _ in range(30):
            u = random_word(rng, ab2, 3)
            v = random_word(rng, ab2, 3)
            assert _accepts_pair(t, u, v) == ((u, v) in want)


def test_pair_path_spells_the_pair(rng, ab2):
    """For an accepted pair the path is a chain of t's edges from the
    initial vertex to a terminal whose tapes spell u and v; for any other
    pair up to the same total there is no path."""
    for _ in range(40):
        t = random_transducer(rng, ab2, max_states=4)
        want = pairs_of_transducer(t, 5)
        for u, v in want:
            _assert_spells(t, td._pair_path(t, u, v, len(u) + len(v)), u, v)
        for u in words_upto(ab2, 2):
            for v in words_upto(ab2, 2):
                if (u, v) not in want:
                    assert td._pair_path(t, u, v, len(u) + len(v)) is None


AB2 = Alphabet.from_pairs([("a", "A"), ("b", "B")])
WORDS_UPTO_2 = words_upto(AB2, 2)


@settings(max_examples=150, deadline=None)
@given(hst.randoms(use_true_random=False), hst.integers(1, 5))
def test_pair_path_against_bruteforce(rnd, max_states):
    """_pair_path finds a path exactly for the pairs the brute-force
    saturation accepts, and every path it finds spells its pair."""
    t = random_transducer(rnd, AB2, max_states=max_states)
    want = pairs_of_transducer(t, 5)
    for u, v in want:
        _assert_spells(t, td._pair_path(t, u, v, len(u) + len(v)), u, v)
    for u in WORDS_UPTO_2:
        for v in WORDS_UPTO_2:
            assert _accepts_pair(t, u, v) == ((u, v) in want)


def test_trim_preserves_pairs(rng, ab2):
    for _ in range(25):
        t = random_transducer(rng, ab2)
        assert pairs_of_transducer(td.trim(t), 5) == pairs_of_transducer(t, 5)


@settings(max_examples=300, deadline=None)
@given(
    hst.randoms(use_true_random=False),
    hst.sampled_from([random_nfa, random_transducer]),
    hst.booleans(),
)
def test_trim_union_against_trim_then_union(rnd, make, explored):
    """nfa._trim_union numbers its result exactly as trimming a to each
    terminal set, dropping the empty pieces and folding union over the rest:
    on automata with unreachable and dead vertices and ε edges, with empty,
    duplicate and overlapping terminal sets, one nonempty piece (returned
    without a root) or none (a lone vertex).  An explored graph, all of whose
    vertices are reachable, gives the same answer without the forward
    search."""
    a = make(rnd, AB2, max_states=6, eps_frac=0.3)
    initial = rnd.randrange(a.n)
    if explored:
        adj = a.adjacency()
        keys, edges = nfa_mod._explore(initial, lambda p: [(lab, q) for _p, lab, q in adj[p]])
        a = type(a)(AB2, len(keys), edges, 0, [])
    else:
        a = type(a)(AB2, a.n, a.edges, initial, [])
    sets = [
        [rnd.randrange(a.n) for _ in range(rnd.randint(0, 3))]
        for _ in range(rnd.randint(0, 4))
    ]
    if sets and rnd.random() < 0.3:
        sets.append(list(sets[0]))
    got = nfa_mod._trimmed(type(a)(AB2, *nfa_mod._trim_union(type(a), a.n, a.edges, a.initial, sets, explored)))
    want = trim_union_fresh(a, sets)
    assert type(got) is type(a)
    assert (got.n, got.edges, got.initial, got.terminals) == (
        want.n,
        want.edges,
        want.initial,
        want.terminals,
    )


def test_union_concat(rng, ab2):
    for _ in range(15):
        a = random_transducer(rng, ab2, max_states=3)
        b = random_transducer(rng, ab2, max_states=3)
        pa, pb = pairs_of_transducer(a, 4), pairs_of_transducer(b, 4)
        assert pairs_of_transducer(nfa_mod.union(a, b), 4) == pa | pb
        got = pairs_of_transducer(nfa_mod.concat(a, b), 4)
        want = set()
        for u1, v1 in pa:
            for u2, v2 in pb:
                if len(u1) + len(v1) + len(u2) + len(v2) <= 4:
                    want.add((u1 + u2, v1 + v2))
        assert got == want


def test_union_all_matches_fold(rng, ab2):
    for k in range(1, 7):
        for _ in range(8):
            parts = []
            for _ in range(k):
                t = random_transducer(rng, ab2, max_states=4)
                initial = rng.randrange(t.n)  # random_transducer starts at 0
                parts.append(Transducer(ab2, t.n, t.edges, initial, t.terminals))
            got = nfa_mod.union_all(parts)
            want = union_fold(parts)
            assert (got.n, got.edges, got.initial, got.terminals) == (
                want.n,
                want.edges,
                want.initial,
                want.terminals,
            )
    with pytest.raises(ValueError):
        nfa_mod.union_all([])


def test_trim_and_strip_keep_unchanged_input(rng, ab2):
    """trim and strip_epsilon_cycles return their input when they would cut
    or merge nothing, and otherwise build what the definition gives."""
    for _ in range(60):
        t = random_transducer(rng, ab2, eps_frac=0.45)
        for op, fresh in ((td.trim, trim_fresh), (td.strip_epsilon_cycles, strip_epsilon_cycles_fresh)):
            got = op(t)
            want = fresh(t)
            assert (got.n, got.edges, got.initial, got.terminals) == (
                want.n,
                want.edges,
                want.initial,
                want.terminals,
            )
        done = td.trim(td.strip_epsilon_cycles(td.trim(t)))
        if done.terminals:
            assert td.trim(done) is done
            assert td.strip_epsilon_cycles(done) is done


def test_from_pairs(ab2):
    pairs = [
        (ab2.word("ab"), ab2.word("")),
        (ab2.word("a"), ab2.word("BB")),
        (ab2.word(""), ab2.word("")),
    ]
    t = td.from_pairs(ab2, pairs)
    assert pairs_of_transducer(t, 6) == set(pairs)


def test_project(rng, ab2):
    for _ in range(20):
        t = random_transducer(rng, ab2)
        pairs = pairs_of_transducer(t, 5)
        for side, pick in (("first", 0), ("second", 1)):
            ref = Nfa(
                ab2,
                t.n,
                [(s, lab[pick], d) for s, lab, d in t.edges],
                t.initial,
                t.terminals,
            )
            got = lang_of_nfa(td.project(t, side), 5)
            assert got == lang_of_nfa(ref, 5)
            assert {uv[pick] for uv in pairs if len(uv[pick]) <= 5} <= got
    with pytest.raises(ValueError):
        td.project(t, "third")


def test_identity_of(rng, ab2):
    for _ in range(15):
        r = random_nfa(rng, ab2, max_states=4)
        t = td.identity_of(r)
        lang = lang_of_nfa(r, 3)
        assert pairs_of_transducer(t, 6) == {(w, w) for w in lang}


def test_intersect_rect(rng, ab2):
    for _ in range(12):
        t = random_transducer(rng, ab2, max_states=3)
        r = random_nfa(rng, ab2, max_states=3)
        s = random_nfa(rng, ab2, max_states=3)
        got = pairs_of_transducer(td.intersect_rect(t, r, s), 5)
        lr = lang_of_nfa(r, 5)
        ls = lang_of_nfa(s, 5)
        want = {(u, v) for u, v in pairs_of_transducer(t, 5) if u in lr and v in ls}
        assert got == want


def test_strip_epsilon_cycles(rng, ab2):
    loop = Transducer(
        ab2, 2, [(0, (None, None), 0), (0, (0, 1), 1), (1, (None, None), 0)], 0, [1]
    )
    s = td.strip_epsilon_cycles(loop)
    assert pairs_of_transducer(s, 4) == pairs_of_transducer(loop, 4)
    for _ in range(20):
        t = random_transducer(rng, ab2, eps_frac=0.45)
        s = td.strip_epsilon_cycles(t)
        assert pairs_of_transducer(s, 4) == pairs_of_transducer(t, 4)
        # no (ε,ε) cycle is left, so stripping by the definition changes nothing
        again = strip_epsilon_cycles_fresh(s)
        assert (again.n, again.edges, again.initial, again.terminals) == (s.n, s.edges, s.initial, s.terminals)


def test_synchronized_bound_unbounded(ab2):
    t = Transducer(ab2, 1, [(0, (0, None), 0)], 0, [0])
    assert td.synchronized_bound(t) is None
    assert not td.check_balanced_cycles(t)


def test_synchronized_bound_finite(ab2):
    pairs = [
        (ab2.word("ab"), ab2.word("")),
        (ab2.word("a"), ab2.word("B")),
    ]
    t = td.from_pairs(ab2, pairs)
    k = td.synchronized_bound(t)
    assert k == 2
    assert td.check_balanced_cycles(t)
    balanced = Transducer(ab2, 1, [(0, (0, 1), 0)], 0, [0])
    assert td.synchronized_bound(balanced) == 0


def test_synchronized_bound_is_a_bound(rng, ab2):
    for _ in range(30):
        t = random_transducer(rng, ab2)
        k = td.synchronized_bound(td.trim(t))
        pairs = pairs_of_transducer(t, 8)
        if k is None:
            assert not td.check_balanced_cycles(td.trim(t))
        else:
            for u, v in pairs:
                assert abs(len(u) - len(v)) <= k


AB1 = Alphabet.from_pairs([("a", "A")])


@hst.composite
def _length_transducers(draw):
    """A transducer over the letter a alone (the bound depends only on the
    tape lengths) with up to four states and (ε,ε) edges only from a lower
    to a higher state, so no (ε,ε) cycle.  A balanced one takes each edge's
    imbalance from random state potentials, so every cycle is balanced; an
    acyclic one has edges only from lower to higher states; any other has
    any edges."""
    n = draw(hst.integers(1, 4))
    phi = draw(hst.lists(hst.integers(-1, 1), min_size=n, max_size=n))
    kind = draw(hst.sampled_from(["balanced", "acyclic", "any"]))
    by_weight = {0: [(0, 0), (None, None)], 1: [(0, None)], -1: [(None, 0)]}
    edges = []
    for _ in range(draw(hst.integers(n - 1, 2 * n + 2))):
        s, d = draw(hst.integers(0, n - 1)), draw(hst.integers(0, n - 1))
        if kind == "balanced":
            labels = by_weight.get(phi[d] - phi[s], [])
        else:
            labels = [lab for labs in by_weight.values() for lab in labs]
        if s >= d and kind == "acyclic":
            labels = []
        labels = [lab for lab in labels if lab != (None, None) or s < d]
        if labels:
            edges.append((s, draw(hst.sampled_from(labels)), d))
    terms = draw(hst.lists(hst.integers(0, n - 1), min_size=1, max_size=n))
    return Transducer(AB1, n, edges, 0, terms)


@settings(max_examples=200, deadline=None)
@given(_length_transducers())
def test_synchronized_bound_matches_brute_force(t):
    """The bound against the accepted pairs with |u| + |v| <= T.  With
    every cycle balanced, removing cycles from an accepted path keeps its
    imbalance, so the largest imbalance, at most n - 1, comes from a path
    of at most n - 1 edges.  Otherwise an unbalanced simple cycle, taken
    3n - 2 times between simple paths to and from it, reaches an imbalance
    of at least n in at most 2(n - 1) + (3n - 2)·n edges of two letters
    each, which is T."""
    n = t.n
    pairs = pairs_of_transducer(t, 2 * (2 * (n - 1) + (3 * n - 2) * n))
    worst = max((abs(len(u) - len(v)) for u, v in pairs), default=0)
    assert td.synchronized_bound(t) == (None if worst >= n else worst)


CYCLE_LABELS = [(None, None), (0, None), (None, 1), (0, 1), (2, 3)]


@hst.composite
def _shaped_transducers(draw):
    """Up to five states over two letter pairs, in one of five shapes:
    acyclic (edges only to higher states); with a ring of (ε,ε) edges, a
    pure (ε,ε) cycle; with an ε and a letter self-loop; with a ring of
    (a, ε) edges, an unbalanced cycle; or any edges.  A ring of one state
    is a self-loop."""
    n = draw(hst.integers(1, 5))
    state = hst.integers(0, n - 1)
    shape = draw(hst.sampled_from(["acyclic", "eps-ring", "self-loops", "unbalanced-ring", "any"]))
    edges = draw(hst.lists(hst.tuples(state, hst.sampled_from(CYCLE_LABELS), state), max_size=2 * n + 2))
    if shape == "acyclic":
        edges = [(s, lab, d) for s, lab, d in edges if s < d]
    ring = draw(hst.lists(state, min_size=1, max_size=n, unique=True))
    ring_edges = list(zip(ring, ring[1:] + ring[:1]))
    if shape == "eps-ring":
        edges += [(p, (None, None), q) for p, q in ring_edges]
    elif shape == "unbalanced-ring":
        edges += [(p, (0, None), q) for p, q in ring_edges]
    elif shape == "self-loops":
        letter_loop = draw(hst.sampled_from(CYCLE_LABELS[1:]))
        edges += [(ring[0], (None, None), ring[0]), (ring[-1], letter_loop, ring[-1])]
    return Transducer(AB2, n, edges, draw(state), draw(hst.sets(state, max_size=n)))


def _parts(a):
    return a.n, a.edges, a.initial, a.terminals


def _check_cycle_analysis(op, x):
    if op == "strip":
        assert _parts(td.strip_epsilon_cycles(x)) == _parts(strip_epsilon_cycles_fresh(x))
    elif op == "balanced":
        assert td.check_balanced_cycles(x) == balanced_by_walks(x)
    elif op == "core":
        core_v, core_e = core_by_reach(x)
        assert core_subgraph(x) == (frozenset(core_v), frozenset(core_e))
    else:
        assert td.synchronized_bound(x) == synchronized_bound_by_walks(x)


@settings(max_examples=300, deadline=None)
@given(_shaped_transducers(), hst.permutations(["strip", "balanced", "core", "bound"]), hst.data())
def test_cycle_analyses_match_their_definitions(t, order, data):
    """strip_epsilon_cycles, check_balanced_cycles, core_subgraph and
    synchronized_bound against their definitions, called in a drawn order
    on one automaton at a time, so that a cached adjacency() or
    components() left stale by one of them would show in the next: on the
    drawn transducer, its trim and then the trim's strip, made after the
    trim's analyses.  Every automaton _trim_union builds is trimmed, and
    trim returns it as it is."""
    trimmed = td.trim(t)
    for x in (t, trimmed):
        for op in order:
            _check_cycle_analysis(op, x)
    stripped = td.strip_epsilon_cycles(trimmed)  # after the trim's analyses
    for op in order:
        _check_cycle_analysis(op, stripped)
    state = hst.integers(0, t.n - 1)
    sets = data.draw(hst.lists(hst.lists(state, max_size=3), max_size=3))
    for u in (trimmed, nfa_mod._trimmed(Transducer(AB2, *nfa_mod._trim_union(Transducer, t.n, t.edges, t.initial, sets)))):
        assert td.trim(u) is u
        assert _parts(u) == _parts(trim_fresh(u))


def test_enumerate_pairs(rng, ab2):
    for _ in range(25):
        t = random_transducer(rng, ab2)
        got = td.enumerate_pairs(t, 5)
        assert len(set(got)) == len(got)
        assert set(got) == pairs_of_transducer(t, 5)


def test_relabel(ab2):
    def inv(x):
        return ab2.inverse_index(x) if x is not None else None

    t = Transducer(ab2, 2, [(0, (0, 1), 1)], 0, [1])
    swapped = nfa_mod.relabel(t, lambda lab: (inv(lab[0]), inv(lab[1])))
    assert _accepts_pair(swapped, ab2.word("A"), ab2.word("a"))
    assert not _accepts_pair(swapped, ab2.word("a"), ab2.word("A"))


def _semantics(a, max_total):
    """The bounded language of an NFA, or the bounded relation of a
    transducer, by brute force."""
    if isinstance(a, Nfa):
        return lang_of_nfa(a, max_total)
    return pairs_of_transducer(a, max_total)


def _concat_semantics(sa, sb, max_total):
    """The concatenations of members of sa and sb within max_total: of
    words for NFAs, tape by tape for pairs."""
    if all(isinstance(w, Word) for w in sa | sb):
        return concat_sets(sa, sb, max_total)
    out = set()
    for u1, v1 in sa:
        for u2, v2 in sb:
            if len(u1) + len(v1) + len(u2) + len(v2) <= max_total:
                out.add((u1 + u2, v1 + v2))
    return out


def _with_initial(rnd, a):
    """a with a random initial vertex: the random automata start at 0."""
    return type(a)(a.alphabet, a.n, a.edges, rnd.randrange(a.n), a.terminals)


@settings(max_examples=200, deadline=None)
@given(
    hst.randoms(use_true_random=False),
    hst.sampled_from([random_nfa, random_transducer]),
    hst.integers(1, 4),
)
def test_union_all_against_semantics(rnd, make, k):
    """union_all accepts exactly what some part accepts."""
    parts = [_with_initial(rnd, make(rnd, AB2, max_states=4, eps_frac=0.3)) for _ in range(k)]
    want = set().union(*(_semantics(p, 4) for p in parts))
    assert _semantics(nfa_mod.union_all(parts), 4) == want


@settings(max_examples=200, deadline=None)
@given(hst.randoms(use_true_random=False), hst.sampled_from([random_nfa, random_transducer]))
def test_concat_against_semantics(rnd, make):
    """concat accepts exactly the concatenations of a member of a with a
    member of b."""
    a = _with_initial(rnd, make(rnd, AB2, max_states=4, eps_frac=0.3))
    b = _with_initial(rnd, make(rnd, AB2, max_states=4, eps_frac=0.3))
    want = _concat_semantics(_semantics(a, 4), _semantics(b, 4), 4)
    assert _semantics(nfa_mod.concat(a, b), 4) == want


@settings(max_examples=200, deadline=None)
@given(hst.randoms(use_true_random=False), hst.sampled_from([random_nfa, random_transducer]))
def test_relabel_against_semantics(rnd, make):
    """relabel with a letter map f, not necessarily injective, accepts
    exactly the images of the members under f, letter by letter and, on a
    transducer, tape by tape; ε stays ε."""
    a = make(rnd, AB2, max_states=4, eps_frac=0.3)
    f = [rnd.randrange(len(AB2)) for _ in range(len(AB2))]

    def image(w):
        return Word(AB2, [f[x] for x in w.indices])

    if isinstance(a, Nfa):
        got = nfa_mod.relabel(a, lambda x: f[x])
        want = {image(w) for w in _semantics(a, 4)}
    else:
        got = nfa_mod.relabel(a, lambda lab: tuple(None if x is None else f[x] for x in lab))
        want = {(image(u), image(v)) for u, v in _semantics(a, 4)}
    assert type(got) is type(a)
    assert _semantics(got, 4) == want


@settings(max_examples=300, deadline=None)
@given(
    hst.randoms(use_true_random=False),
    hst.sampled_from(lin.MODES),
    hst.sampled_from([0, 1]),
)
def test_coreachable_masks_against_backward_search(rnd, mode, side):
    """_coreachable_masks sets bit q of mask p exactly for the pairs (p, q)
    of the full product, reachable or not, that reach a target, as a
    backward search over the product's moves finds them; r carries ε edges
    as intersect_regular's r' does, and so does t on either tape.
    _explore_side on those masks explores the full product cut to those
    pairs plus the initial one, numbering and edge order included."""
    t = random_transducer(rnd, AB2, max_states=5, eps_frac=0.3)
    r = random_nfa(rnd, AB2, max_states=4, eps_frac=0.3)
    r = nfa_mod.inverse_lang(r) if mode == "inverse" else nfa_mod.reverse(r)
    targets = [(rnd.randrange(t.n), rnd.randrange(r.n)) for _ in range(rnd.randint(0, 3))]
    masks = td._coreachable_masks(t.adjacency(), r, side, targets)
    live = coreachable_pairs_bf(t, r, side, targets)
    assert len(masks) == t.n
    assert {(p, q) for p in range(t.n) for q in range(r.n) if masks[p] >> q & 1} == live
    assert all(0 <= m < 1 << r.n for m in masks)

    keys, edges = td._explore_side(t.adjacency(), t.initial, r, side, masks)
    full_keys, full_edges = td._explore_side(t.adjacency(), t.initial, r, side)
    at = {key: i for i, key in enumerate(k for k in full_keys if k in live or k == full_keys[0])}
    assert keys == list(at)
    cut = [
        (at[full_keys[s]], lab, at[full_keys[d]])
        for s, lab, d in full_edges
        if full_keys[s] in at and full_keys[d] in at
    ]
    assert edges == cut


def test_explore_side_keeps_edges_into_an_initial_pair_without_targets(ab2):
    """The initial pair is explored even when it reaches no target, and so
    are its edges back into itself; a pair that reaches a target but is not
    reachable sets its bit and changes nothing."""
    t = Transducer(ab2, 2, [(0, (0, 1), 0), (1, (1, None), 0)], 0, [1])
    r = Nfa(ab2, 1, [(0, 0, 0), (0, 1, 0)], 0, [0])
    for side in (0, 1):
        masks = td._coreachable_masks(t.adjacency(), r, side, [(1, 0)])
        assert masks == [0, 1]
        assert td._explore_side(t.adjacency(), 0, r, side, masks) == ([(0, 0)], [(0, (0, 1), 0)])
        assert td._explore_side(t.adjacency(), 0, r, side, [0, 0]) == ([(0, 0)], [(0, (0, 1), 0)])


@settings(max_examples=300, deadline=None)
@given(hst.randoms(use_true_random=False), hst.sampled_from([random_nfa, random_transducer]))
def test_adjacency_rows_are_the_sorted_edges(rnd, make):
    """Row v of adjacency() holds v's own edge triples, the very tuples of
    the edge set, by label key and then by target."""
    a = make(rnd, AB2, max_states=6, eps_frac=0.3)
    want = [
        sorted((e for e in a.edges if e[0] == v), key=lambda e: (a.label_key(e[1]), e[2]))
        for v in range(a.n)
    ]
    got = a.adjacency()
    assert got == want
    own = {id(e) for e in a.edges}
    assert all(id(e) in own for row in got for e in row)


# Row 0 holds labels with None, whose hash, before Python 3.12, follows the
# address of None.  The pair (a, a) has three paths of two edges: through 1,
# through 2, and by the (a, a) loop at 0 and the (ε, ε) edge to 3.
WALK_ORDER_SCRIPT = """
import sys
sys.path[:0] = [{src!r}]
from combings import Alphabet, Transducer, Word
from combings import transducer as td
ab = Alphabet.from_pairs([("a", "A")])
edges = [(0, (0, None), 1), (0, (None, 0), 2), (1, (None, 0), 3), (2, (0, None), 3),
         (0, (None, None), 3), (0, (1, 1), 0), (0, (0, 0), 0), (0, (None, 1), 1)]
t = Transducer(ab, 4, edges, 0, [3])
u = Word(ab, [0])
print(t.adjacency()[0])
print(td._pair_path(t, u, u, 2))
"""


def test_walk_order_is_the_same_in_every_process():
    """Two processes list row 0 and find the path of (a, a) alike, in the
    sorted order: ε on the first tape before a, so the path goes through 2."""
    src = str(Path(combings.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", WALK_ORDER_SCRIPT.format(src=src)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        for _ in range(2)
    ]
    row = [
        (0, (None, None), 3), (0, (None, 0), 2), (0, (None, 1), 1),
        (0, (0, None), 1), (0, (0, 0), 0), (0, (1, 1), 0),
    ]
    path = [(0, (None, 0), 2), (2, (0, None), 3)]
    assert outs == [f"{row}\n{path}\n"] * 2
