import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from combings import (
    AbelianOracle,
    Alphabet,
    FiniteOracle,
    FreeOracle,
    LinearLanguage,
    Nfa,
    SigWord,
    Transducer,
    Word,
    ball,
    build_combing,
    check_central,
    check_combing,
    check_significant,
    core_subgraph,
    extract_generators,
    ft_bound_of_combing,
    free_reduce,
    ft_distance,
    invert_word,
    search_significant,
)
from combings import linear as lin
from combings import nfa as nfa_mod
from combings import structures
from combings import transducer as td
from bruteforce import (
    REF,
    closed_generators,
    core_by_reach,
    extract_generators_chain,
    first_tape_core,
    ft_bound_all_pairs,
    ft_distance_by_staircases,
    intersect_regular_chain,
    inversion_closure,
    oracles,
    pair_product_bf,
    random_transducer,
    search_significant_backtracking,
    shared_masks_by_elements,
    tail_classes_by_paths,
)


def test_sigword_validation(ab2):
    with pytest.raises(ValueError):
        SigWord(ab2.word(""), 1)
    with pytest.raises(ValueError):
        SigWord(ab2.word("aA"), 1)
    with pytest.raises(ValueError):
        SigWord(ab2.word("ab"), 3)
    sw = SigWord(ab2.word("abA"), 2)
    assert sw.inverse() == SigWord(ab2.word("aBA"), 2)
    assert sw.inverse().inverse() == sw


def test_check_significant_passes(ab2):
    sample = [SigWord(ab2.word("ab"), 2), SigWord(ab2.word("ba"), 1)]
    assert check_significant(sample) is None


def test_check_significant_violation(ab3):
    sample = [SigWord(ab3.word("ab"), 2), SigWord(ab3.word("Bc"), 1)]
    v = check_significant(sample)
    assert v is not None
    assert "cancels the marked letter" in str(v)


def test_check_significant_exempts_full_collapse(ab2):
    sample = [SigWord(ab2.word("aaa"), 2)]
    assert check_significant(sample) is None


def test_search_significant_finds(ab2):
    marks = search_significant([ab2.word("aaa")])
    assert marks is not None
    assert [sw.word for sw in marks] == [ab2.word("aaa")]
    assert check_significant(marks) is None


def test_search_significant_conjugates(ab2):
    words = [ab2.word(s) for s in ("b", "abA", "aabAA", "Aba", "AAbaa")]
    marks = search_significant(words)
    assert marks is not None
    assert check_significant(marks) is None
    assert [sw.word for sw in marks] == words


def test_search_significant_none(ab3):
    assert search_significant([ab3.word("ab"), ab3.word("BAc")]) is None


def test_search_significant_validation(ab2):
    with pytest.raises(ValueError):
        search_significant([ab2.word("")])
    with pytest.raises(ValueError):
        search_significant([ab2.word("aA")])


AB2 = Alphabet.from_pairs([("a", "A"), ("b", "B")])
_reduced_words = (
    hst.lists(hst.integers(0, 3), min_size=1, max_size=5)
    .map(lambda letters: free_reduce(AB2.word_of(AB2.symbols[i] for i in letters)))
    .filter(len)
)


@settings(max_examples=150, deadline=None)
@given(hst.lists(_reduced_words, min_size=1, max_size=3))
def test_search_significant_against_every_assignment(words):
    """search_significant finds marks exactly when some assignment of marks
    to the distinct words passes check_significant, and what it finds
    passes."""
    distinct = list(dict.fromkeys(words))
    exists = any(
        check_significant([SigWord(w, i) for w, i in zip(distinct, marks)]) is None
        for marks in itertools.product(*(range(1, len(w) + 1) for w in distinct))
    )
    found = search_significant(words)
    assert (found is not None) == exists
    if found is not None:
        assert [sw.word for sw in found] == distinct
        assert check_significant(found) is None


PAIRS3 = [("a", "A"), ("b", "B"), ("c", "C")]


@hst.composite
def _word_sets(draw):
    """1–6 freely reduced words of length 1–6 over 1–3 letter pairs, with
    the inverses of some of them."""
    ab = Alphabet.from_pairs(PAIRS3[: draw(hst.integers(1, 3))])
    letters = hst.lists(hst.integers(0, len(ab) - 1), min_size=1, max_size=6)
    reduced = (free_reduce(Word(ab, ls)) for ls in draw(hst.lists(letters, min_size=1, max_size=6)))
    words = [w for w in reduced if len(w)]
    words += [invert_word(w) for w in words if draw(hst.booleans())]
    return words or [Word(ab, [0])]


@settings(max_examples=400, deadline=None)
@given(_word_sets())
def test_search_significant_matches_the_backtracking(words):
    """The prefix-interval search returns exactly the marks of the
    backtracking search it replaced, or None where that found none."""

    def marks(found):
        return None if found is None else [(sw.word, sw.sig) for sw in found]

    want = marks(search_significant_backtracking(words))
    event("no assignment" if want is None else "assignment")
    assert marks(search_significant(words)) == want


def test_check_central(ab2):
    sample = [SigWord(ab2.word("abA"), 2), SigWord(ab2.word("ab"), 1)]
    rep = check_central(sample)
    assert rep.max_distance == Fraction(1, 2)
    assert rep.passed is None
    rep0 = check_central(sample, k=0)
    assert rep0.passed is False
    rep1 = check_central(sample, k=1)
    assert rep1.passed is True
    assert "pass" in str(rep1)


def test_check_combing_passes(slex_z2, z2_oracle):
    rep = check_combing(slex_z2, z2_oracle, ball_radius=3, maxlen=3)
    assert rep.passed
    assert rep.prefix_closed and rep.unique and rep.surjective
    assert rep.no_identity_subwords
    assert rep.violations == []


def _finite(alphabet, words):
    return nfa_mod.union_all([nfa_mod.from_word(alphabet, w) for w in words])


def test_check_combing_prefix_violation(ab2, z2_oracle):
    c = nfa_mod.from_word(ab2, ab2.word("ab"))
    rep = check_combing(c, z2_oracle, ball_radius=1, maxlen=2)
    assert not rep.prefix_closed
    assert any("prefix" in v for v in rep.violations)


def test_check_combing_uniqueness_violation(ab2, z2_oracle):
    ws = [ab2.word(s) for s in ("", "a", "b", "ab", "ba")]
    rep = check_combing(_finite(ab2, ws), z2_oracle, 2, 2)
    assert not rep.unique
    assert any("same element" in v for v in rep.violations)


def test_check_combing_surjectivity_violation(ab1, z_oracle):
    astar = Nfa(ab1, 1, [(0, 0, 0)], 0, [0])
    rep = check_combing(astar, z_oracle, ball_radius=2, maxlen=4)
    assert not rep.surjective
    assert any("no member" in v for v in rep.violations)


def test_check_combing_identity_subword(ab1, z_oracle):
    ws = [ab1.word(s) for s in ("", "a", "aA")]
    rep = check_combing(_finite(ab1, ws), z_oracle, 1, 2)
    assert not rep.no_identity_subwords
    assert any("identity" in v for v in rep.violations)


def test_check_combing_rejects_negative_maxlen(ab1, z_oracle):
    """A negative maxlen is refused, as ft_bound_of_combing refuses it,
    instead of a FAIL report whose witness is hit by no member of length
    <= -1."""
    c = Nfa(ab1, 1, [(0, 0, 0), (0, 1, 0)], 0, [0])
    with pytest.raises(ValueError, match="maxlen"):
        check_combing(c, z_oracle, ball_radius=1, maxlen=-1)
    assert check_combing(c, z_oracle, ball_radius=0, maxlen=0).passed


def test_ft_bound_of_combing(ab1, z_oracle):
    c = nfa_mod.union(
        Nfa(ab1, 1, [(0, 0, 0)], 0, [0]), Nfa(ab1, 1, [(0, 1, 0)], 0, [0])
    )
    assert ft_bound_of_combing(c, z_oracle, "sync", 5) == 1
    assert ft_bound_of_combing(c, z_oracle, "async", 5) == 1


def test_ft_bound_of_combing_rejects_bad_arguments(ab1, z_oracle):
    c = Nfa(ab1, 1, [(0, 0, 0), (0, 1, 0)], 0, [0])
    with pytest.raises(ValueError, match="mode"):
        ft_bound_of_combing(c, z_oracle, "bogus", 0)
    with pytest.raises(ValueError, match="maxlen"):
        ft_bound_of_combing(c, z_oracle, "sync", -1)


AB1 = Alphabet.from_pairs([("a", "A")])


@hst.composite
def _nfas(draw, ab):
    """An NFA with up to four states, ε edges allowed; half of them accept
    at every state."""
    n = draw(hst.integers(1, 4))
    state = hst.integers(0, n - 1)
    label = hst.one_of(hst.integers(0, len(ab) - 1), hst.none())
    edges = draw(hst.lists(hst.tuples(state, label, state), min_size=n, max_size=3 * n + 3))
    terms = draw(hst.one_of(hst.just(range(n)), hst.sets(state, min_size=1)))
    return Nfa(ab, n, edges, 0, terms)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_ft_bound_of_combing_matches_all_pairs(data):
    """Pairing members by group element measures the same pairs as testing
    every member pair for adjacency, so the bound is the same."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    c = data.draw(_nfas(ab))
    o = data.draw(oracles(ab))
    mode = data.draw(hst.sampled_from(["sync", "async"]))
    maxlen = data.draw(hst.integers(1, 5 if ab is AB1 else 3))
    assert ft_bound_of_combing(c, o, mode, maxlen) == ft_bound_all_pairs(c, o, mode, maxlen)


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_ft_distance_matches_staircases(data):
    """The one-pass grid and the lockstep walk agree with the definition:
    the best of every monotone staircase, and the lockstep cells."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    o = data.draw(oracles(ab))
    words = hst.lists(hst.integers(0, len(ab) - 1), max_size=5).map(lambda xs: Word(ab, xs))
    u, v = data.draw(words), data.draw(words)
    mode = data.draw(hst.sampled_from(["sync", "async"]))
    cap = data.draw(hst.integers(0, 6))
    assert ft_distance(o, mode, u, v, cap) == ft_distance_by_staircases(o, mode, u, v, cap)


def test_ft_bound_of_combing_over_the_cap(slex_z2, z2_oracle, monkeypatch):
    """With FT_CAP below the sync bound 2 of the ℤ² shortlex combing, the
    first pair at distance 2 makes both the lookup and the all-pairs loop
    answer None."""
    assert ft_bound_of_combing(slex_z2, z2_oracle, "sync", 4) == 2
    monkeypatch.setattr(structures, "FT_CAP", 1)
    assert ft_bound_of_combing(slex_z2, z2_oracle, "sync", 4) is None
    assert ft_bound_all_pairs(slex_z2, z2_oracle, "sync", 4) is None


class _CountingAbelian(AbelianOracle):
    """Counts the mul and distance_from_identity calls made while
    `counting` is set; the mul inside a letter product is not counted."""

    counting = True
    calls = 0

    def mul(self, e, f):
        self.calls += self.counting
        return super().mul(e, f)

    def _uncounted(self, product, *args):
        counting, self.counting = self.counting, False
        try:
            return product(*args)
        finally:
            self.counting = counting

    def mul_right(self, e, letter):
        return self._uncounted(super().mul_right, e, letter)

    def mul_left(self, letter, e):
        return self._uncounted(super().mul_left, letter, e)

    def distance_from_identity(self, e):
        self.calls += self.counting
        return super().distance_from_identity(e)


def test_ft_bound_of_combing_work_is_linear_in_members(monkeypatch):
    """On the ℤ³ shortlex combing (377 members up to length 6) the pairing
    costs at most one product per member and letter plus one more per
    member; the calls inside ft_distance, which measures the adjacent
    pairs, are not counted.  Testing every pair, as the all-pairs loop
    does, takes about 70 000 products."""
    ab = Alphabet.from_pairs([("a", "A"), ("b", "B"), ("c", "C")])
    o = _CountingAbelian(ab, 3, {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
    n, edges = REF.shortlex_abelian_edges(3)
    slex = Nfa(ab, n, edges, 0, range(n))
    ft_distance = structures.ft_distance

    def uncounted(*args):
        o.counting = False
        try:
            return ft_distance(*args)
        finally:
            o.counting = True

    monkeypatch.setattr(structures, "ft_distance", uncounted)
    members = len(nfa_mod.enumerate_words(slex, 6))
    budget = members * (len(ab) + 1)
    assert ft_bound_of_combing(slex, o, "sync", 6) == 2
    assert o.calls <= budget
    o.calls = 0
    assert ft_bound_all_pairs(slex, o, "sync", 6) == 2
    assert o.calls > budget


def test_core_subgraph_loop_and_tail(ab2):
    t = Transducer(ab2, 2, [(0, (0, 0), 0), (0, (2, None), 1)], 0, [1])
    core_v, core_e = core_subgraph(t)
    assert core_v == frozenset({0})
    assert core_e == frozenset({(0, (0, 0), 0)})


def test_core_subgraph_acyclic(ab2):
    t = td.from_pairs(ab2, [(ab2.word("ab"), ab2.word("a"))])
    core_v, core_e = core_subgraph(t)
    assert core_v == frozenset()
    assert core_e == frozenset()


def _reach(t):
    """reach[v]: the vertices at the end of a path of one or more edges
    from v."""
    reach = [{d for s, _lab, d in t.edges if s == v} for v in range(t.n)]
    changed = True
    while changed:
        changed = False
        for v in range(t.n):
            grown = reach[v].union(*(reach[u] for u in reach[v]))
            if grown != reach[v]:
                reach[v], changed = grown, True
    return reach


def test_core_subgraph_property(rng, ab2):
    """v is in the core exactly when some vertex reachable from v (v
    included) reaches itself in one or more steps."""
    seen_kinds = set()
    for i in range(60):
        if i % 3 == 0:
            t = random_transducer(rng, ab2)
        else:
            # acyclic: edges only from lower to higher vertices; then, on
            # every other one, self-loops
            n = rng.randint(1, 7)
            edges = [
                (s, (0, 1), d) for s in range(n) for d in range(s + 1, n) if rng.random() < 0.4
            ]
            if i % 3 == 2:
                edges += [(v, (2, None), v) for v in range(n) if rng.random() < 0.3]
            t = Transducer(ab2, n, edges, 0, [n - 1])
        reach = _reach(t)
        want = {v for v in range(t.n) if any(u in reach[u] for u in reach[v] | {v})}
        seen_kinds.add((bool(want), want == set(range(t.n))))
        core_v, core_e = core_subgraph(t)
        assert core_v == want
        assert core_e == {e for e in t.edges if e[2] in want}
    assert seen_kinds == {(False, False), (True, False), (True, True)}


@hst.composite
def _transducers(draw, ab):
    """A transducer with up to four states, ε allowed on either tape; half
    of them have edges only from lower to higher vertices, so their core
    is empty."""
    n = draw(hst.integers(1, 4))
    state = hst.integers(0, n - 1)
    letter = hst.one_of(hst.integers(0, len(ab) - 1), hst.none())
    edge = hst.tuples(state, hst.tuples(letter, letter), state)
    edges = draw(hst.lists(edge, max_size=3 * n + 3))
    if draw(hst.booleans()):
        edges = [(s, lab, d) for s, lab, d in edges if s < d]
    return Transducer(ab, n, edges, 0, draw(hst.sets(state)))


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_tail_classes_match_every_off_core_path(data):
    """_tail_classes reads the classes of the inversion closure off one
    half, trimmed or not."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    t = data.draw(_transducers(ab))
    o = data.draw(oracles(ab))
    core_v, core_e = core_subgraph(t)
    closure = inversion_closure(t)
    want = tail_classes_by_paths(closure, core_by_reach(closure)[0], o)
    assert structures._tail_classes(t, core_v, core_e, o) == want


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_build_stages_keep_automata_trimmed(data):
    """What extract and build rely on instead of trimming again, for
    nonempty languages: stripping (ε,ε) cycles keeps a trimmed transducer
    trimmed; a union of trimmed pieces, each followed by a fixed word, is
    trimmed; a minimal automaton is trimmed and has no ε edges."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    t = td.strip_epsilon_cycles(td.trim(data.draw(_transducers(ab))))
    if t.terminals:
        assert td.trim(t) is t
    tail = td.from_pairs(ab, [(ab.word("a"), ab.word(""))])
    parts = [td.trim(x) for x in data.draw(hst.lists(_transducers(ab), min_size=1, max_size=4))]
    pieces = [nfa_mod.concat(x, tail) for x in parts if x.terminals]
    if pieces:
        union = nfa_mod.union_all(pieces)
        assert td.trim(union) is union
    nfas = data.draw(hst.lists(_nfas(ab), min_size=1, max_size=4))
    minimal = [nfa_mod.minimize(a) for a in nfas if not nfa_mod.is_empty_language(a)]
    for m in minimal:
        assert nfa_mod.trim(m) is m
        assert all(lab is not None for _s, lab, _d in m.edges)
    if minimal:
        x = nfa_mod.from_word(ab, ab.word("a"))
        union = nfa_mod.union_all([nfa_mod.concat(m, x) for m in minimal])
        assert nfa_mod.trim(union) is union


@settings(max_examples=500, deadline=None)
@given(hst.data())
def test_build_stages_read_off_the_half_match_the_closure(data):
    """Every quantity build_combing reads off the trimmed, stripped half
    equals the one computed on the closed generator automaton: the sorted
    pairs, the sizes behind K, the minimized C0, the tail classes and the
    cycle balance; an empty language is refused.  Extra (ε,ε) edges make
    (ε,ε) cycles common; before they are added, half the drawn transducers
    have no cycle.  The pairs here stop at length 5, the build's at
    SIG_SAMPLE_LEN."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    t = data.draw(_transducers(ab))
    state = hst.integers(0, t.n - 1)
    eps = data.draw(hst.lists(hst.tuples(state, state), max_size=t.n + 1))
    terms = t.terminals | data.draw(hst.sets(state, max_size=1))
    t = Transducer(ab, t.n, t.edges | {(s, (None, None), d) for s, d in eps}, 0, terms)
    l = LinearLanguage(t, "inverse")
    o = data.draw(oracles(ab))
    closed = closed_generators(l)
    if not closed.terminals:
        with pytest.raises(ValueError, match="generator language is empty"):
            build_combing(l, o)
        return
    half = td.strip_epsilon_cycles(td.trim(t))
    core_v, core_e = core_subgraph(half)
    closed_v, closed_e = core_by_reach(closed)

    assert structures._closure_pairs(half, 5) == td.enumerate_pairs(closed, 5)
    sizes = structures._closure_sizes(half, core_v, core_e)
    assert sizes == (closed.n, len(closed.edges), len(closed_v), len(closed_e))
    got_c0 = nfa_mod.minimize(structures._core_projections(half, core_v, core_e))
    want_c0 = nfa_mod.minimize(first_tape_core(closed))
    assert (got_c0.n, got_c0.edges, got_c0.initial, got_c0.terminals) == (
        want_c0.n,
        want_c0.edges,
        want_c0.initial,
        want_c0.terminals,
    )
    got_tails = structures._tail_classes(half, core_v, core_e, o)
    assert got_tails == tail_classes_by_paths(closed, closed_v, o)
    assert td.check_balanced_cycles(half) == td.check_balanced_cycles(closed)


def test_upto_check_flags_a_marked_letter_on_a_core_edge(ab2):
    """In BBAbb, read as (BB, BBa), the centered mark 3 falls on A, which
    the edge (2, (ε, a), 3) reads; 3 lies on the cycle 1 → 2 → 3 → 1, so
    the edge is a core edge."""
    edges = [
        (0, (3, 3), 1),
        (1, (3, 3), 2),
        (2, (3, 3), 2),
        (2, (None, 0), 3),
        (3, (3, None), 1),
    ]
    t = Transducer(ab2, 4, edges, 0, [3])
    o = AbelianOracle(ab2, 1, {"a": [0], "b": [1]})
    _cprime, report = build_combing(LinearLanguage(t, "inverse"), o)
    assert not report.upto_ok
    assert "upto check: VIOLATED" in str(report)
    assert report.warnings == [
        "significant letter of BBAbb (position 3) is carried by a core edge"
    ]


def test_upto_check_without_a_core_walks_no_path(z3_oracle, monkeypatch):
    """An empty core has no edge to carry a marked letter, so no path is
    recovered."""

    def no_walk(*args):
        raise AssertionError("the upto check recovered a path without a core")

    monkeypatch.setattr(td, "_pair_path", no_walk)
    ab = z3_oracle.alphabet
    t = td.from_pairs(ab, [(ab.word("aaa"), ab.word(""))])
    _cprime, report = build_combing(LinearLanguage(t, "inverse"), z3_oracle)
    assert report.core_edges == 0
    assert report.upto_ok


def test_tail_classes_of_one_tail(ab2, free2_oracle):
    """One edge (a, b) leaves the core {0} for the terminal 1: the tails
    are the prefixes of a·b⁻¹, and in the tape swap those of b·a⁻¹, so the
    classes are e0, a, a·b⁻¹, b and b·a⁻¹."""
    t = Transducer(ab2, 2, [(0, (0, 0), 0), (0, (0, 2), 1)], 0, [1])
    core_v, core_e = core_subgraph(t)
    want = {(), (0,), (0, 3), (2,), (2, 1)}
    assert structures._tail_classes(t, core_v, core_e, free2_oracle) == want
    closure = inversion_closure(t)
    assert tail_classes_by_paths(closure, core_by_reach(closure)[0], free2_oracle) == want


def test_extract_generators_z_conjugates(z_conj_oracle):
    ab = z_conj_oracle.alphabet
    astar = Nfa(ab, 1, [(0, 0, 0)], 0, [0])
    Astar = Nfa(ab, 1, [(0, 1, 0)], 0, [0])
    c = nfa_mod.union(astar, Astar)
    gens = extract_generators(c, z_conj_oracle, ft_bound=2)
    got = [str(w) for w in lin.enumerate_members(gens, 5)]
    assert got == [
        "b", "B", "abA", "aBA", "Aba", "ABa",
        "aabAA", "aaBAA", "AAbaa", "AABaa",
    ]
    assert lin.member(gens, ab.word("abA"))
    assert not lin.member(gens, ab.word("ab"))
    assert not lin.member(gens, ab.word("aabAA" * 2))


def test_extract_generators_free_group_is_empty(ab2, free2_oracle):
    c = nfa_mod.freely_reduced_lang(ab2)
    gens = extract_generators(c, free2_oracle, ft_bound=2)
    assert lin.enumerate_members(gens, 6) == []


# the README's shortlex combing of ℤ² over a A b B
Z2_SHORTLEX_EDGES = [
    (0, 0, 1), (1, 0, 1), (0, 1, 2), (2, 1, 2),
    (0, 2, 3), (1, 2, 3), (2, 2, 3), (3, 2, 3),
    (0, 3, 4), (1, 3, 4), (2, 3, 4), (4, 3, 4),
]


@pytest.mark.parametrize(
    "pairs, weights",
    [
        ([("a", "A")], {"a": [1, 0]}),
        ([("x", "X"), ("y", "Y")], {"x": [1, 0], "y": [0, 1]}),
    ],
    ids=["fewer letters", "other letters"],
)
def test_extract_generators_refuses_an_oracle_over_another_alphabet(
    ab2, monkeypatch, pairs, weights
):
    """An oracle over fewer letters used to fail inside the pair product
    with an IndexError, and one over as many other letters matched the
    letters by index; both are refused before any product is built."""
    c = Nfa(ab2, 5, Z2_SHORTLEX_EDGES, 0, range(5))
    o = AbelianOracle(Alphabet.from_pairs(pairs), 2, weights)

    def no_product(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(structures, "_pair_product", no_product)
    with pytest.raises(ValueError, match="different alphabets"):
        extract_generators(c, o, ft_bound=2)


@pytest.mark.parametrize(
    "pairs, weights",
    [([("a", "A")], {"a": [1]}), ([("x", "X"), ("y", "Y")], {"x": [1], "y": [0]})],
    ids=["fewer letters", "other letters"],
)
def test_build_combing_refuses_an_oracle_over_another_alphabet(
    z_generators, monkeypatch, pairs, weights
):
    """An oracle over other letters than the generator language's is
    refused before any stage runs, not inside the member sampling."""
    o = AbelianOracle(Alphabet.from_pairs(pairs), 1, weights)

    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(structures.td, "trim", no_stage)
    with pytest.raises(ValueError) as err:
        build_combing(LinearLanguage(z_generators, "inverse"), o)
    assert str(err.value) == "the generator language and the oracle are over different alphabets"


def test_s5_extract_builds_only_its_answer(monkeypatch):
    """The S₅ extract of the benchmark constructs five automata: the ε-free
    combing, the freely reduced words, their reversal and its relabelling
    to inverses, and the answer, the only transducer.  The pair product,
    the union of the letter pieces and both rectangle products pass from
    stage to stage as explored edges and rows; building the union and the
    tape-0 product as transducers took seven constructions."""
    table, gens = REF.symmetric(5, None)
    n, edges, diameter = REF.shortlex_trie(table, REF.letter_images(table, gens))
    o = FiniteOracle(AB2, table, dict(zip("ab", gens)))
    c = Nfa(AB2, n, edges, 0, range(n))
    built = []
    init = nfa_mod.Automaton.__init__

    def counted(self, *args, **kw):
        init(self, *args, **kw)
        built.append(self)

    monkeypatch.setattr(nfa_mod.Automaton, "__init__", counted)
    gens_lang = extract_generators(c, o, diameter)
    assert len(built) == 5
    assert [a for a in built if isinstance(a, Transducer)] == [gens_lang.t]


def _graph(a):
    return a.n, a.edges, a.initial, a.terminals


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_extract_and_intersect_match_the_automata_chain(data):
    """extract_generators and intersect_regular return the very automata,
    ids included, that the chain of built automata gives
    (bruteforce.extract_generators_chain and intersect_regular_chain): on
    small automata with ε edges that need not be combings, over every
    oracle kind of bruteforce.oracles, in both modes, and with a regular
    side whose language may be empty."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    o = data.draw(oracles(ab))
    c = data.draw(_nfas(ab))
    k = data.draw(hst.integers(0, 2))
    assert _graph(extract_generators(c, o, k).t) == _graph(extract_generators_chain(c, o, k).t)
    l = LinearLanguage(data.draw(_transducers(ab)), data.draw(hst.sampled_from(lin.MODES)))
    r = data.draw(_nfas(ab))
    if data.draw(hst.booleans()):
        r = Nfa(ab, r.n, r.edges, r.initial, [])
    assert _graph(lin.intersect_regular(l, r).t) == _graph(intersect_regular_chain(l, r).t)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_pair_product_matches_oracle_products(data):
    """The step table of _pair_product gives the states and edges, in
    order, of the walk that multiplies every move x^-1·h·y through the
    oracle: on free, L1 and non-L1 abelian and finite-table oracles."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    o = data.draw(oracles(ab))
    c = nfa_mod.remove_epsilon(data.draw(_nfas(ab)))
    bl = ball(o, data.draw(hst.integers(0, 3)))
    assert structures._pair_product(c, o, bl) == pair_product_bf(c, c, o, bl)


def test_pair_product_keeps_a_move_whose_middle_leaves_the_ball(ab1, z_oracle):
    """In ℤ at radius 1, the move (A, A) from h = a passes through
    A^-1·a = a² outside the ball and ends at a² · A = a inside it."""
    c = Nfa(ab1, 1, [(0, 0, 0), (0, 1, 0)], 0, [0])
    bl = ball(z_oracle, 1)
    keys, edges = structures._pair_product(c, z_oracle, bl)
    assert (keys, edges) == pair_product_bf(c, c, z_oracle, bl)
    a = keys.index((0, 0, (1,)))
    assert (a, (1, 1), a) in edges


def mask_classes(shared):
    """_shared_difference's vertex count, each mask as the set of classes
    whose bits it holds, and its subset-element count."""
    n, _edges, bit, masks, elements = shared
    return n, {i: {h for h, b in bit.items() if m & b} for i, m in masks.items()}, elements


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_shared_masks_match_the_per_element_loop(data):
    """The shared subset product's masks, each one OR over its subset, hold
    the classes that the definition collects element by element, at the
    same vertex ids; the vertex and subset-element counts agree too.  C0 is
    minimal, as in build_combing, and need not accept everywhere."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    o = data.draw(oracles(ab))
    c0 = nfa_mod.minimize(data.draw(_nfas(ab)))
    statelist, prod_edges = structures._pair_product(c0, o, ball(o, data.draw(hst.integers(0, 3))))
    got = mask_classes(structures._shared_difference(c0, statelist, prod_edges))
    assert got == shared_masks_by_elements(c0, statelist, prod_edges)


@pytest.mark.parametrize("enabled", [True, False])
def test_extract_and_build_restore_the_gc_state(enabled, ab2, z_generators, z_conj_oracle, monkeypatch):
    """extract_generators and build_combing run with the cyclic collector
    paused and leave it as they found it: enabled or disabled by the
    caller, also when they raise."""
    seen = []
    pair_product = structures._pair_product

    def watched(*args):
        seen.append(gc.isenabled())
        return pair_product(*args)

    monkeypatch.setattr(structures, "_pair_product", watched)
    o = AbelianOracle(ab2, 1, {"a": [1], "b": [0]})
    c = Nfa(ab2, 3, [(0, 0, 1), (1, 0, 1), (0, 1, 2), (2, 1, 2)], 0, [0, 1, 2])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        extract_generators(c, o, ft_bound=1)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="different alphabets"):
            extract_generators(c, FreeOracle(AB1), ft_bound=1)
        assert gc.isenabled() is enabled
        build_combing(LinearLanguage(z_generators, "inverse"), z_conj_oracle, central=True)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="free on the images"):
            build_combing(LinearLanguage(Transducer(ab2, 1, [], 0, []), "inverse"), o)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_build_combing_z(z_generators, z_conj_oracle):
    l = LinearLanguage(z_generators, "inverse")
    cprime, report = build_combing(l, z_conj_oracle, central=True)
    ab = z_conj_oracle.alphabet
    astar = Nfa(ab, 1, [(0, 0, 0)], 0, [0])
    Astar = Nfa(ab, 1, [(0, 1, 0)], 0, [0])
    assert nfa_mod.equivalent(cprime, nfa_mod.union(astar, Astar))
    assert report.upto_ok
    assert report.balanced_cycles
    assert report.c0_contained
    assert report.cprime_ft_sync == 1
    rep = check_combing(cprime, z_conj_oracle, ball_radius=8, maxlen=8)
    assert rep.passed


def test_build_combing_z3(ab1, z3_oracle):
    t = td.from_pairs(ab1, [(ab1.word("aaa"), ab1.word(""))])
    l = LinearLanguage(t, "inverse")
    cprime, report = build_combing(l, z3_oracle)
    members = nfa_mod.enumerate_words(cprime, 4)
    assert [str(w) for w in members] == ["", "a", "A"]
    rep = check_combing(cprime, z3_oracle, ball_radius=1, maxlen=2)
    assert rep.passed


@pytest.mark.parametrize("margin", [-1, -3])
def test_build_combing_rejects_negative_margin(z_generators, z_conj_oracle, monkeypatch, margin):
    """Refused on entry: -1 would build with k below the sampled bound and
    -3 would fail inside the ball search."""

    def no_stage(*args):
        raise AssertionError("a build stage ran before the margin was checked")

    monkeypatch.setattr(td, "trim", no_stage)
    with pytest.raises(ValueError, match=f"margin must be nonnegative, not {margin}"):
        build_combing(LinearLanguage(z_generators, "inverse"), z_conj_oracle, margin=margin)


def test_build_combing_rejects_reversal_mode(ab1, z3_oracle):
    t = td.from_pairs(ab1, [(ab1.word("aaa"), ab1.word(""))])
    with pytest.raises(ValueError):
        build_combing(LinearLanguage(t, "reversal"), z3_oracle)


def test_build_combing_empty_input(ab2, z2_oracle):
    t = Transducer(ab2, 1, [], 0, [])
    with pytest.raises(ValueError, match="free on the images"):
        build_combing(LinearLanguage(t, "inverse"), z2_oracle)


def test_build_combing_unreduced_member(ab1, z_oracle):
    t = td.from_pairs(ab1, [(ab1.word("aA" + "a"), ab1.word(""))])
    with pytest.raises(ValueError):
        build_combing(LinearLanguage(t, "inverse"), z_oracle)


def test_build_combing_no_significant_letters(ab3):
    from combings import AbelianOracle

    o = AbelianOracle(ab3, 1, {"a": [1], "b": [2], "c": [3]})
    t = td.from_pairs(ab3, [(ab3.word("ab"), ab3.word("")), (ab3.word("BAc"), ab3.word(""))])
    with pytest.raises(ValueError, match="significant"):
        build_combing(LinearLanguage(t, "inverse"), o)


def test_build_combing_central_requires_balance(ab1, z_oracle):
    edges = [(0, (0, None), 0)] + [
        (i, (0, None), i + 1) for i in range(0, 9)
    ]
    t = Transducer(ab1, 10, edges, 0, [9])
    with pytest.raises(ValueError, match="unbalanced|equal length"):
        build_combing(LinearLanguage(t, "inverse"), z_oracle, central=True)
