import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from combings import (
    AbelianOracle,
    Alphabet,
    CapExceeded,
    FiniteOracle,
    FreeOracle,
    GroupOracle,
    Nfa,
    Word,
    ball,
    check_combing,
    free_reduce,
    ft_distance,
    invert_word,
    shortlex_key,
)
from combings import oracle as orc
from bruteforce import oracles, random_word, word_metric, words_upto

AB1 = Alphabet.from_pairs([("a", "A")])
AB2 = Alphabet.from_pairs([("a", "A"), ("b", "B")])


def test_free_oracle_elements(ab2, free2_oracle):
    o = free2_oracle
    assert o.element(ab2.word("aA")) == o.identity_element()
    assert o.element(ab2.word("abBA")) == o.identity_element()
    w = ab2.word("abA")
    assert o.element(w) == tuple(w.indices)
    assert o.inv_element(o.element(w)) == o.element(invert_word(w))
    assert o.distance_from_identity(o.element(w)) == 3


def test_free_oracle_ball(ab2, free2_oracle):
    bl = ball(free2_oracle, 2)
    assert len(bl) == 17
    for e, w in bl.rep.items():
        assert free2_oracle.element(w) == e
        assert w.is_freely_reduced()
        assert len(w) == bl.dist[e]


def test_abelian_oracle_z2(ab2, z2_oracle):
    o = z2_oracle
    assert o.element(ab2.word("abAB")) == (0, 0)
    assert o.element(ab2.word("aab")) == (2, 1)
    assert o.distance_from_identity((2, 1)) == 3
    assert o.distance_from_identity((-1, -1)) == 2
    bl = ball(o, 2)
    assert len(bl) == 13
    assert str(bl.rep[(1, 1)]) == "ab"
    assert str(bl.rep[(-1, 0)]) == "A"


def test_abelian_oracle_weighted(ab2):
    o = AbelianOracle(ab2, 1, {"a": [2], "b": [3]})
    assert o.element(ab2.word("ab")) == (5,)
    assert o.element(ab2.word("aB")) == (-1,)
    assert o.distance_from_identity((1,)) == 2
    assert o.distance_from_identity((6,)) == 2


def test_abelian_oracle_validation(ab2):
    with pytest.raises(ValueError):
        AbelianOracle(ab2, 2, {"a": [1, 0]})
    with pytest.raises(ValueError):
        AbelianOracle(ab2, 2, {"a": [1], "b": [0, 1]})
    with pytest.raises(ValueError, match="^rank -1 is negative$"):
        AbelianOracle(ab2, -1, {"a": [], "b": []})


def _message(make):
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


def test_abelian_letter_value_errors(ab2):
    """The texts the CLI prints for a bad weight, and which of two faults
    is reported: the given weights are checked in the order given, each
    one's length before its letter, then the letters in alphabet order,
    each for a missing weight before its inverse's."""
    cases = [
        ({"a": [1], "b": [0, 1]}, "weight for a has length 1, want 2"),
        ({"a": [1, 0], "z": [0, 1]}, "unknown letter 'z'"),
        ({"a": [1, 0]}, "no weight given for letter b"),
        ({"a": [1, 0], "A": [1, 0], "b": [0, 1]}, "weights of a and A are not negatives of each other"),
        # two faults
        ({"z": [1], "a": [1, 0]}, "weight for z has length 1, want 2"),
        ({"z": [1, 0], "a": [1]}, "unknown letter 'z'"),
        ({"a": [1], "z": [1, 0]}, "weight for a has length 1, want 2"),
        ({"b": [0, 1], "B": [0, 1]}, "no weight given for letter a"),
        ({"a": [1, 0], "A": [1, 0]}, "weights of a and A are not negatives of each other"),
    ]
    for weights, text in cases:
        assert _message(lambda: AbelianOracle(ab2, 2, weights)) == text


def test_finite_letter_value_errors(ab2):
    """The same for the letter images of a finite table (ℤ/4 here): each
    given image is range-checked before its letter."""
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    cases = [
        ({"a": 5, "b": 2}, "letter a maps to 5, out of range"),
        ({"a": 1, "z": 1}, "unknown letter 'z'"),
        ({"a": 1}, "no image given for letter b"),
        ({"a": 1, "A": 1, "b": 2}, "images of a and A are not mutually inverse"),
        # two faults
        ({"z": 9, "a": 1}, "letter z maps to 9, out of range"),
        ({"z": 1, "a": 9}, "unknown letter 'z'"),
        ({"a": -1, "z": 1}, "letter a maps to -1, out of range"),
        ({"b": 2, "B": 1}, "no image given for letter a"),
        ({"a": 1, "b": 2, "B": 1}, "images of b and B are not mutually inverse"),
    ]
    for images, text in cases:
        assert _message(lambda: FiniteOracle(ab2, z4, images)) == text


def test_finite_oracle_z3(ab1, z3_oracle):
    o = z3_oracle
    assert o.element(ab1.word("aaa")) == 0
    assert o.element(ab1.word("A")) == 2
    assert o.distance_from_identity(2) == 1
    assert o.distance_from_identity(1) == 1
    bl = ball(o, 1)
    assert len(bl) == 3


def test_finite_oracle_validation(ab1):
    with pytest.raises(ValueError):
        FiniteOracle(ab1, [[1, 0], [0, 0]], letter_images={"a": 1})
    with pytest.raises(ValueError):
        FiniteOracle(ab1, [[0, 1], [1, 1]], letter_images={"a": 1})
    with pytest.raises(ValueError):
        FiniteOracle(ab1, [[0, 1], [1, 0]], letter_images={"a": 2})


def test_finite_oracle_rejects_one_sided_inverse(ab1):
    # 1·2 = 0 but 2·1 = 1: element 1 has a right inverse and no left one
    with pytest.raises(ValueError, match="two-sided inverse"):
        FiniteOracle(ab1, [[0, 1, 2], [1, 2, 0], [2, 1, 0]], letter_images={"a": 2})


def test_finite_oracle_rejects_nonassociative_loop(ab1):
    # a Latin square with identity 0 and every element its own inverse: a
    # loop of order 5, which cannot be a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="not associative"):
        FiniteOracle(ab1, loop, letter_images={"a": 1})
    # the same loop with an image that reaches nothing but itself: the
    # unreached elements are tested directly
    with pytest.raises(ValueError, match="not associative"):
        FiniteOracle(ab1, loop, letter_images={"a": 0})


def test_finite_oracle_accepts_nonabelian_group(ab1):
    # S3 as permutations of {0,1,2}, composed left to right
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    o = FiniteOracle(ab1, table, letter_images={"a": idx[(1, 2, 0)]})
    assert o.element(ab1.word("aaa")) == 0
    assert o.distance_from_identity(idx[(1, 0, 2)]) is None


def test_mul_matches_concatenation(rng, ab2, z2_oracle, free2_oracle):
    """mul on stored elements agrees with evaluating the concatenated word,
    on a free, an abelian and a nonabelian finite oracle."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    s3 = FiniteOracle(ab2, table, letter_images={"a": idx[(1, 0, 2)], "b": idx[(1, 2, 0)]})
    for o in (free2_oracle, z2_oracle, s3):
        for _ in range(100):
            u = random_word(rng, ab2, 6)
            v = random_word(rng, ab2, 6)
            assert o.mul(o.element(u), o.element(v)) == o.element(u + v)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_letter_products_agree_with_mul(data):
    """mul_right and mul_left, which every oracle derives from mul, agree
    with mul on a letter's image, with evaluating the longer word, and with
    each other through inversion, for elements of a small ball."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    o = data.draw(oracles(ab))
    reps = ball(o, 2).rep
    e = data.draw(hst.sampled_from(list(reps)))
    w = reps[e]
    letter = data.draw(hst.integers(0, len(ab) - 1))
    x, inv = o.letter_element(letter), ab.inv[letter]
    right, left = o.mul_right(e, letter), o.mul_left(letter, e)
    assert right == o.mul(e, x) == o.element(w + Word(ab, [letter]))
    assert left == o.mul(x, e) == o.element(Word(ab, [letter]) + w)
    assert left == o.inv_element(o.mul_right(o.inv_element(e), inv))
    assert o.mul_left(inv, left) == e == o.mul_right(right, inv)


class _Cyclic(GroupOracle):
    """ℤ/n on the letters a -> 1, A -> -1, defining only the four operations
    a subclass must define."""

    def __init__(self, alphabet, n):
        self.alphabet = alphabet
        self.n = n

    def identity_element(self):
        return 0

    def letter_element(self, letter):
        return 1 if letter == 0 else self.n - 1

    def inv_element(self, e):
        return -e % self.n

    def mul(self, e, f):
        return (e + f) % self.n


def test_an_oracle_of_four_operations_matches_its_table(rng, ab1):
    """A GroupOracle subclass that defines only identity_element,
    letter_element, inv_element and mul gives the same balls, distances,
    fellow-traveler distances and combing reports as the finite table of
    the same group."""
    n = 5
    derived = _Cyclic(ab1, n)
    table = FiniteOracle(ab1, [[(i + j) % n for j in range(n)] for i in range(n)], {"a": 1})
    for k in range(4):
        d, t = ball(derived, k), ball(table, k)
        assert (d.dist, d.rep) == (t.dist, t.rep)
    assert [derived.distance_from_identity(e) for e in range(n)] == [0, 1, 2, 2, 1]
    assert [table.distance_from_identity(e) for e in range(n)] == [0, 1, 2, 2, 1]
    for _ in range(50):
        u, v = random_word(rng, ab1, 6), random_word(rng, ab1, 6)
        for mode in ("sync", "async"):
            assert ft_distance(derived, mode, u, v) == ft_distance(table, mode, u, v)
    normal = Nfa(ab1, 5, [(0, 0, 1), (1, 0, 2), (0, 1, 3), (3, 1, 4)], 0, range(5))
    star = Nfa(ab1, 1, [(0, 0, 0)], 0, [0])
    for c in (normal, star):
        assert check_combing(c, derived, 3, 6) == check_combing(c, table, 3, 6)
    assert check_combing(normal, derived, 3, 6).passed
    assert not check_combing(star, derived, 3, 6).passed


def test_abelian_distance_unit_weights_is_l1(ab3):
    o = AbelianOracle(ab3, 3, {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
    far = ab3.word("a" * 20 + "b" * 20 + "c" * 20)
    assert ft_distance(o, "sync", far, ab3.word(""), cap=64) == 60
    assert o.distance_from_identity((20, -20, 20)) == 60
    assert ft_distance(o, "sync", far, ab3.word(""), cap=60) == 60
    assert ft_distance(o, "sync", far, ab3.word(""), cap=59) is None
    # a zero-weight letter leaves the metric alone; an axis no letter
    # reaches is out of the group's image
    flat = AbelianOracle(ab3, 3, {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 0]})
    assert flat.distance_from_identity((2, -3, 0)) == 5
    assert flat.distance_from_identity((0, 0, 1)) is None


def test_abelian_distance_ball_overflow_is_unknown(ab2, monkeypatch):
    monkeypatch.setattr(orc, "DEFAULT_BALL_CAP", 30)
    o = AbelianOracle(ab2, 2, {"a": [2, 0], "b": [1, 1]})
    assert o.distance_from_identity((3, 1)) == 2
    assert o.distance_from_identity((40, 0)) is None
    assert o.distance_from_identity((3, 1)) == 2


class _CountingDict(dict):
    """A dict that counts the entries read from it: one per membership
    test or lookup, one per entry an iteration yields."""

    reads = 0

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item

    def keys(self):
        for key in super().keys():
            self.reads += 1
            yield key

    def values(self):
        for value in super().values():
            self.reads += 1
            yield value

    def __iter__(self):
        return iter(self.keys())


def test_abelian_ball_growth_reads_each_entry_a_bounded_number_of_times(ab2, monkeypatch):
    """The image of a -> (1, 1), b -> 0 is a line, so the non-L1 ball
    adds two elements per level; asking for (1, 0), outside the image,
    grows its cached ball to the cap.  Each level reads only the last one,
    so the reads of the ball's distances stay linear in its size (a rescan
    of the whole ball per level would read about size² / 4 entries)."""
    monkeypatch.setattr(orc, "DEFAULT_BALL_CAP", 400)
    o = AbelianOracle(ab2, 2, {"a": [1, 1], "b": [0, 0]})
    assert o.distance_from_identity((0, 0)) == 0
    bl = o._ball
    bl.dist = _CountingDict(bl.dist)
    assert o.distance_from_identity((1, 0)) is None
    size = len(bl.dist)
    assert size > 400
    assert bl.dist.reads <= 2 * len(ab2) * size
    assert o.distance_from_identity((-3, -3)) == 3
    assert o.distance_from_identity((200, 200)) == 200


def test_distance_search_spells_no_words_until_rep_is_read(ab2, monkeypatch):
    """A distance search to the cap records parent links only, so its cost
    stays linear in the ball's size; the representatives are spelled out
    when rep is read, and again after the ball grows further."""
    made = []

    class CountingWord(Word):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(orc, "DEFAULT_BALL_CAP", 400)
    monkeypatch.setattr(orc, "Word", CountingWord)
    o = AbelianOracle(ab2, 1, {"a": [2], "b": [0]})
    assert o.distance_from_identity((1,)) is None
    bl = o._ball
    assert len(bl) > 400 and not made
    for _ in range(2):
        reps = bl.rep
        assert len(reps) == len(bl) == len(made) + 1
        for e, w in reps.items():
            assert o.element(w) == e and len(w) == bl.dist[e]
            assert w.indices == (0,) * len(w) or w.indices == (1,) * len(w)
        bl.grow()


def _searches_a_ball(o):
    """Whether o's distances come from growing its cached ball: a non-L1
    abelian oracle.  A finite table's ball is whole from the start, and the
    free and L1 oracles use closed forms."""
    return isinstance(o, AbelianOracle) and any(sum(map(abs, v)) > 1 for v in o.weights)


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_distance_and_ball_match_the_brute_force_word_metric(data):
    """distance_from_identity and ball() against word_metric on every
    oracle kind, with the ball cap patched small.  A searched distance
    finds an element at distance d exactly when every ball of radius below
    d fits in the cap, and ball(o, k) raises CapExceeded exactly when the
    radius-k ball does not fit."""
    ab = data.draw(hst.sampled_from([AB1, AB2]))
    o = data.draw(oracles(ab))  # a finite table builds its whole ball here
    finite = isinstance(o, FiniteOracle)
    radius = len(o.table) if finite else 4
    bf = word_metric(o, radius)
    sizes = [sum(d <= r for d in bf.values()) for r in range(radius + 1)]
    if finite:
        probes = list(range(len(o.table)))
    elif isinstance(o, FreeOracle):
        probes = [o.element(w) for w in words_upto(ab, 5)]
    else:
        vec = hst.tuples(*[hst.integers(-6, 6)] * o.rank)
        probes = data.draw(hst.lists(vec, max_size=12)) + list(bf)
    cap = data.draw(hst.integers(1, 150))
    searched = _searches_a_ball(o)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orc, "DEFAULT_BALL_CAP", cap)
        for e in probes:
            got = o.distance_from_identity(e)
            if e in bf:
                d = bf[e]
                assert got == (None if searched and d and sizes[d - 1] > cap else d)
            elif finite or (searched and sizes[radius] > cap):
                assert got is None
            else:
                assert got is None or got > radius
        for k in range(radius + 1):
            if sizes[k] > cap:
                with pytest.raises(CapExceeded):
                    ball(o, k)
            else:
                bl = ball(o, k)
                assert bl.radius == k
                assert bl.dist == {e: d for e, d in bf.items() if d <= k}


def test_ball_reps_are_shortlex_least(ab2, z2_oracle):
    bl = ball(z2_oracle, 3)
    for w in words_upto(ab2, 3):
        e = z2_oracle.element(w)
        assert shortlex_key(bl.rep[e]) <= shortlex_key(w)


def test_ball_cap(ab2, free2_oracle, monkeypatch):
    monkeypatch.setattr(orc, "DEFAULT_BALL_CAP", 10)
    with pytest.raises(CapExceeded):
        ball(free2_oracle, 4)


def _distance(o, u, v):
    """d(ū, v̄) in the Cayley graph over the letter images."""
    return o.distance_from_identity(o.element(invert_word(u) + v))


def test_distance(ab2, z2_oracle, free2_oracle):
    assert _distance(z2_oracle, ab2.word("a"), ab2.word("b")) == 2
    assert _distance(z2_oracle, ab2.word("ab"), ab2.word("ba")) == 0
    assert _distance(free2_oracle, ab2.word("ab"), ab2.word("ba")) == 4
    assert _distance(free2_oracle, ab2.word("a"), ab2.word("a")) == 0


def test_distance_symmetry(rng, ab2, z2_oracle):
    for _ in range(50):
        u = random_word(rng, ab2, 5)
        v = random_word(rng, ab2, 5)
        assert _distance(z2_oracle, u, v) == _distance(z2_oracle, v, u)


def test_ft_distance_examples(ab2, z2_oracle):
    u, v = ab2.word("ab"), ab2.word("ba")
    assert ft_distance(z2_oracle, "sync", u, v) == 2
    assert ft_distance(z2_oracle, "async", u, v) == 1
    assert ft_distance(z2_oracle, "sync", u, u) == 0
    assert ft_distance(z2_oracle, "async", u, u) == 0


def test_ft_distance_sync_stalls_at_end(ab2, z2_oracle):
    u, v = ab2.word("a"), ab2.word("aab")
    assert ft_distance(z2_oracle, "sync", u, v) == 2
    assert ft_distance(z2_oracle, "async", u, v) == 2
    assert ft_distance(z2_oracle, "sync", ab2.word("aa"), ab2.word("aab")) == 1


def test_ft_distance_cap(ab2, free2_oracle):
    u = ab2.word("a" * 10)
    v = ab2.word("A" * 10)
    assert ft_distance(free2_oracle, "async", u, v, cap=3) is None


def test_ft_distance_mode_validation(ab2, z2_oracle):
    with pytest.raises(ValueError):
        ft_distance(z2_oracle, "diagonal", ab2.word("a"), ab2.word("a"))


def test_async_at_most_sync(rng, ab2, z2_oracle, free2_oracle):
    for o in (z2_oracle, free2_oracle):
        for _ in range(60):
            u = random_word(rng, ab2, 5)
            v = random_word(rng, ab2, 5)
            s = ft_distance(o, "sync", u, v, cap=64)
            a = ft_distance(o, "async", u, v, cap=64)
            assert s is not None and a is not None
            assert a <= s
