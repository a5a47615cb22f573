import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from combings import Alphabet, Nfa, Word, free_reduce, invert_word, shortlex_key
from combings import nfa as nfa_mod
from bruteforce import (
    _closure,
    _eager_dfa,
    _nfa_tables,
    accepts_bf,
    bfs_order,
    concat_sets,
    difference_eager,
    lang_of_nfa,
    random_nfa,
    random_transducer,
    random_word,
    reverse_set,
    trim_fresh,
    words_upto,
)


def test_accepts_basics(ab2):
    a = Nfa(ab2, 3, [(0, 0, 1), (1, None, 2), (2, 2, 2)], 0, [2])
    assert nfa_mod.accepts(a, ab2.word("a"))
    assert nfa_mod.accepts(a, ab2.word("abbb"))
    assert not nfa_mod.accepts(a, ab2.word(""))
    assert not nfa_mod.accepts(a, ab2.word("b"))


def test_accepts_vs_bruteforce(rng, ab2):
    for _ in range(30):
        a = random_nfa(rng, ab2)
        for _ in range(20):
            w = random_word(rng, ab2, 5)
            assert nfa_mod.accepts(a, w) == accepts_bf(a, w)


def test_edge_validation(ab2):
    with pytest.raises(ValueError):
        Nfa(ab2, 2, [(0, 9, 1)], 0, [1])
    with pytest.raises(ValueError):
        Nfa(ab2, 2, [(0, 0, 5)], 0, [1])
    with pytest.raises(ValueError):
        Nfa(ab2, 2, [(0, 0, 1)], 3, [1])


def test_trim(rng, ab2):
    for _ in range(40):
        a = random_nfa(rng, ab2)
        t = nfa_mod.trim(a)
        assert lang_of_nfa(t, 5) == lang_of_nfa(a, 5)
    dead = Nfa(ab2, 3, [(0, 0, 1), (2, 1, 1)], 0, [1])
    t = nfa_mod.trim(dead)
    assert t.n == 2


def test_trim_keeps_trimmed_input(rng, ab2):
    """trim returns its input when it would cut nothing, and otherwise
    builds what the definition gives."""
    for _ in range(60):
        a = random_nfa(rng, ab2)
        t = nfa_mod.trim(a)
        want = trim_fresh(a)
        assert (t.n, t.edges, t.initial, t.terminals) == (
            want.n,
            want.edges,
            want.initial,
            want.terminals,
        )
        if t.terminals:
            assert nfa_mod.trim(t) is t


def test_trim_empty_language(ab2):
    a = Nfa(ab2, 2, [(0, 0, 0)], 0, [1])
    t = nfa_mod.trim(a)
    assert nfa_mod.is_empty_language(t)
    assert t.n == 1


def test_reverse(rng, ab2):
    for _ in range(25):
        a = random_nfa(rng, ab2)
        got = lang_of_nfa(nfa_mod.reverse(a), 5)
        assert got == reverse_set(lang_of_nfa(a, 5))


def test_inverse_lang(rng, ab2):
    for _ in range(25):
        a = random_nfa(rng, ab2)
        got = lang_of_nfa(nfa_mod.inverse_lang(a), 5)
        assert got == {invert_word(w) for w in lang_of_nfa(a, 5)}


def test_union_concat(rng, ab2):
    for _ in range(20):
        a = random_nfa(rng, ab2)
        b = random_nfa(rng, ab2)
        la, lb = lang_of_nfa(a, 5), lang_of_nfa(b, 5)
        assert lang_of_nfa(nfa_mod.union(a, b), 5) == la | lb
        assert lang_of_nfa(nfa_mod.concat(a, b), 5) == concat_sets(la, lb, 5)


def test_split_decomposition(rng, ab2):
    for _ in range(12):
        a = nfa_mod.trim(random_nfa(rng, ab2))
        pieces = nfa_mod.split_decomposition(a)
        covered = set()
        for x, y in pieces:
            covered |= concat_sets(lang_of_nfa(x, 4), lang_of_nfa(y, 4), 4)
        assert covered == lang_of_nfa(a, 4)


def test_enumerate_words_shortlex(rng, ab2):
    for _ in range(25):
        a = random_nfa(rng, ab2)
        ws = nfa_mod.enumerate_words(a, 5)
        assert ws == sorted(ws, key=shortlex_key)
        assert set(ws) == lang_of_nfa(a, 5)


def test_equivalence_and_witness(rng, ab2):
    astar = Nfa(ab2, 1, [(0, 0, 0)], 0, [0])
    astar2 = Nfa(ab2, 2, [(0, 0, 1), (1, 0, 0)], 0, [0, 1])
    assert nfa_mod.equivalent(astar, astar2)
    aplus = Nfa(ab2, 2, [(0, 0, 1), (1, 0, 1)], 0, [1])
    w = nfa_mod.difference_witness(astar, aplus)
    assert w is not None and len(w) == 0
    assert nfa_mod.difference_witness(aplus, astar) == ab2.word("")
    assert nfa_mod.difference_witness(astar, astar2) is None


def test_difference_intersection(rng, ab2):
    for _ in range(15):
        a = random_nfa(rng, ab2)
        b = random_nfa(rng, ab2)
        la, lb = lang_of_nfa(a, 5), lang_of_nfa(b, 5)
        assert lang_of_nfa(nfa_mod.difference(a, b), 5) == la - lb


def test_difference_matches_eager_product(rng, ab2):
    # One lazy product answers every terminal set of b; the ids, edges and
    # terminals must be those of the eager product for each of them.
    for _ in range(60):
        a = random_nfa(rng, ab2)
        b = random_nfa(rng, ab2)
        for _ in range(4):
            terms = [q for q in range(b.n) if rng.random() < 0.5]
            bt = Nfa(ab2, b.n, b.edges, b.initial, terms)
            got = nfa_mod.difference(a, bt)
            want = difference_eager(a, bt)
            assert (got.n, got.edges, got.initial, got.terminals) == (
                want.n,
                want.edges,
                want.initial,
                want.terminals,
            )


def test_witness_is_shortest(rng, ab2):
    for _ in range(15):
        a = random_nfa(rng, ab2)
        b = random_nfa(rng, ab2)
        w = nfa_mod.difference_witness(a, b)
        if w is None:
            assert lang_of_nfa(a, 5) == lang_of_nfa(b, 5)
        else:
            assert accepts_bf(a, w) != accepts_bf(b, w)
            if len(w) <= 5:
                diff = lang_of_nfa(a, len(w)) ^ lang_of_nfa(b, len(w))
                assert min(len(u) for u in diff) == len(w)


def test_freely_reduced_lang(ab2):
    fr = nfa_mod.freely_reduced_lang(ab2)
    for w in words_upto(ab2, 4):
        assert nfa_mod.accepts(fr, w) == w.is_freely_reduced()
    fr0 = nfa_mod.freely_reduced_lang(ab2, include_empty=False)
    assert not nfa_mod.accepts(fr0, ab2.word(""))
    assert nfa_mod.accepts(fr0, ab2.word("ab"))


def test_remove_epsilon(rng, ab2):
    for _ in range(25):
        a = random_nfa(rng, ab2, eps_frac=0.4)
        r = nfa_mod.remove_epsilon(a)
        assert all(x is not None for _, x, _ in r.edges)
        assert lang_of_nfa(r, 5) == lang_of_nfa(a, 5)


def test_renumber_bfs(rng, ab2):
    """Vertices are numbered in the order of a plain deque BFS.  The
    automata are untrimmed and of both kinds, so some vertices are
    unreached."""
    for make in (random_nfa, random_transducer):
        for _ in range(30):
            a = make(rng, ab2)
            order = bfs_order(a)
            assert sorted(order) == list(range(a.n))
            new = {old: i for i, old in enumerate(order)}
            r = nfa_mod.renumber_bfs(a)
            assert type(r) is type(a)
            assert r.n == a.n
            assert r.initial == new[a.initial] == 0
            assert r.edges == {(new[s], lab, new[d]) for s, lab, d in a.edges}
            assert r.terminals == {new[t] for t in a.terminals}


def test_dfa_matches_eager_subset_construction(rng, ab2):
    for _ in range(60):
        a = random_nfa(rng, ab2, max_states=6, eps_frac=0.3)
        assert nfa_mod._dfa(a) == _eager_dfa(a)


AB2 = Alphabet.from_pairs([("a", "A"), ("b", "B")])


@hst.composite
def _eps_nfas(draw):
    """An NFA over a A b B with up to six states, frequent ε edges, an ε
    cycle through distinct states (a self-loop when it has one) and more
    self-loops; the last letter, B, labels no edge."""
    n = draw(hst.integers(1, 6))
    state = hst.integers(0, n - 1)
    label = hst.one_of(hst.none(), hst.integers(0, len(AB2) - 2))
    edges = draw(hst.lists(hst.tuples(state, label, state), max_size=3 * n))
    cycle = draw(hst.lists(state, min_size=1, max_size=n, unique=True))
    edges += [(p, None, q) for p, q in zip(cycle, cycle[1:] + cycle[:1])]
    edges += [(p, lab, p) for p, lab in draw(hst.lists(hst.tuples(state, label), max_size=3))]
    return Nfa(AB2, n, edges, 0, [])


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_step_and_closure_match_bruteforce(data):
    """The level-by-level ε-closure and the letter rows give the sets of the
    definition, also from no state at all and for a letter without edges."""
    a = data.draw(_eps_nfas())
    states = data.draw(hst.sets(hst.integers(0, a.n - 1)))
    eps, step = _nfa_tables(a)
    assert nfa_mod.eps_closure(a, states) == _closure(eps, states)
    for x in range(len(AB2)):
        want = _closure(eps, {q for p in states for q in step.get((p, x), ())})
        assert nfa_mod.step(a, frozenset(states), x) == want


def test_minimize(rng, ab2):
    astar2 = Nfa(ab2, 3, [(0, 0, 1), (1, None, 2), (2, 0, 1)], 0, [0, 1, 2])
    m = nfa_mod.minimize(astar2)
    assert m.n == 1
    assert nfa_mod.equivalent(m, astar2)
    for _ in range(20):
        a = random_nfa(rng, ab2)
        m = nfa_mod.minimize(a)
        assert nfa_mod.equivalent(m, a)
        seen = set()
        for s, x, d in m.edges:
            assert x is not None
            assert (s, x) not in seen
            seen.add((s, x))


def test_minimize_is_minimal(rng, ab2):
    for _ in range(10):
        a = random_nfa(rng, ab2)
        m = nfa_mod.minimize(a)
        again = nfa_mod.minimize(m)
        assert again.n == m.n


def test_union_all_of_from_word(ab2):
    ws = [ab2.word(s) for s in ("ab", "A", "")]
    a = nfa_mod.union_all([nfa_mod.from_word(ab2, w) for w in ws])
    assert lang_of_nfa(a, 4) == set(ws)
