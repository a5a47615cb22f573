import pytest

from combings import LinearLanguage, Word, invert_word, shortlex_key
from combings import linear as lin
from combings import nfa as nfa_mod
from combings import transducer as td
from bruteforce import (
    accepts_bf,
    intersect_regular_per_rectangle,
    pairs_of_transducer,
    random_nfa,
    random_transducer,
    random_word,
    rectangle_product_unpruned,
    words_upto,
)


def _members_bf(t, mode, max_total):
    out = set()
    for u, v in pairs_of_transducer(t, max_total):
        if mode == "inverse":
            out.add(u + invert_word(v))
        else:
            out.add(u + Word(v.alphabet, tuple(reversed(v.indices))))
    return out


def test_member_inverse_mode(ab2):
    t = td.from_pairs(ab2, [(ab2.word("ab"), ab2.word("b"))])
    l = LinearLanguage(t, "inverse")
    assert lin.member(l, ab2.word("abB"))
    assert not lin.member(l, ab2.word("ab"))
    assert not lin.member(l, ab2.word("abb"))


def test_member_reversal_mode(ab2):
    t = td.from_pairs(ab2, [(ab2.word("ab"), ab2.word("ba"))])
    l = LinearLanguage(t, "reversal")
    assert lin.member(l, ab2.word("abab"))
    assert not lin.member(l, ab2.word("abba"))


def test_mode_validation(ab2):
    t = td.from_pairs(ab2, [])
    with pytest.raises(ValueError):
        LinearLanguage(t, "palindrome")


def test_member_vs_bruteforce(rng, ab2):
    for mode in lin.MODES:
        for _ in range(12):
            t = random_transducer(rng, ab2, max_states=4)
            l = LinearLanguage(t, mode)
            want = _members_bf(t, mode, 6)
            for w in want:
                assert lin.member(l, w)
            for w in words_upto(ab2, 4):
                assert lin.member(l, w) == (w in want)


def test_enumerate_members(rng, ab2):
    for mode in lin.MODES:
        for _ in range(12):
            t = random_transducer(rng, ab2, max_states=4)
            l = LinearLanguage(t, mode)
            got = lin.enumerate_members(l, 5)
            assert got == sorted(set(got), key=shortlex_key)
            assert set(got) == {w for w in _members_bf(t, mode, 5) if len(w) <= 5}


def test_combine_linear_union(rng, ab2):
    """Two presentations in one mode combine by the union of their transducers."""
    for _ in range(8):
        a = random_transducer(rng, ab2, max_states=3)
        b = random_transducer(rng, ab2, max_states=3)
        u = nfa_mod.union(a, b)
        assert _members_bf(u, "inverse", 5) == _members_bf(a, "inverse", 5) | _members_bf(b, "inverse", 5)


def test_intersect_regular(rng, ab2):
    for _ in range(8):
        t = random_transducer(rng, ab2, max_states=3)
        r = nfa_mod.freely_reduced_lang(ab2)
        l = LinearLanguage(t, "inverse")
        got = lin.intersect_regular(l, r)
        want = {w for w in _members_bf(t, "inverse", 5) if w.is_freely_reduced()}
        assert {w for w in lin.enumerate_members(got, 5)} == {w for w in want if len(w) <= 5}


def test_intersect_regular_random_nfa(rng, ab2):
    for mode in lin.MODES:
        for _ in range(10):
            t = random_transducer(rng, ab2, max_states=3)
            r = random_nfa(rng, ab2, max_states=4)
            got = lin.intersect_regular(LinearLanguage(t, mode), r)
            assert got.mode == mode
            want = {w for w in _members_bf(t, mode, 5) if accepts_bf(r, w)}
            assert set(lin.enumerate_members(got, 5)) == want


def test_intersect_regular_matches_per_rectangle(rng, ab2):
    """The shared product reproduces the per-rectangle construction exactly,
    numbering included, in both modes and with epsilon edges on both sides."""
    for mode in lin.MODES:
        for _ in range(40):
            t = random_transducer(rng, ab2, max_states=5, eps_frac=0.3)
            r = random_nfa(rng, ab2, max_states=5, eps_frac=0.25)
            l = LinearLanguage(t, mode)
            got = lin.intersect_regular(l, r).t
            want = intersect_regular_per_rectangle(l, r).t
            assert (got.n, got.edges, got.initial, got.terminals) == (
                want.n,
                want.edges,
                want.initial,
                want.terminals,
            )


def test_rectangle_product_is_the_pruned_full_product(rng, ab2):
    """The pruned rectangle product holds exactly the states of the full one
    that reach a rectangle terminal, plus the initial state, in the full
    product's relative order and with its edges between them."""
    for mode in lin.MODES:
        for _ in range(40):
            t = random_transducer(rng, ab2, max_states=5, eps_frac=0.3)
            r = nfa_mod.trim(random_nfa(rng, ab2, max_states=5, eps_frac=0.25))
            keys, edges, _split_at = lin._rectangle_product(t.adjacency(), t.initial, t.terminals, r, mode)
            want_keys, want_edges, want_initial = rectangle_product_unpruned(t, r, mode)
            assert keys == want_keys
            assert all(0 <= s < len(keys) and 0 <= d < len(keys) for s, _lab, d in edges)
            # the explored product's initial vertex is 0
            assert (set(edges), 0) == (want_edges, want_initial)


def test_invert_linear(rng, ab2):
    for _ in range(10):
        t = random_transducer(rng, ab2, max_states=4)
        l = LinearLanguage(t, "inverse")
        li = lin.invert_linear(l)
        assert _members_bf(li.t, "inverse", 5) == {
            invert_word(w) for w in _members_bf(t, "inverse", 5)
        }
        back = lin.invert_linear(li)
        assert lin.enumerate_members(back, 5) == lin.enumerate_members(l, 5)
    with pytest.raises(ValueError):
        lin.invert_linear(LinearLanguage(t, "reversal"))


