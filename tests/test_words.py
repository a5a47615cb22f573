from fractions import Fraction

import pytest

from combings import (
    Alphabet,
    Word,
    center_distance,
    free_reduce,
    invert_word,
    shortlex_key,
)
from bruteforce import random_word


def test_alphabet_basics(ab2):
    assert len(ab2) == 4
    assert ab2.symbols == ("a", "A", "b", "B")
    assert ab2.index("b") == 2
    assert ab2.inverse_index(0) == 1
    assert ab2.inverse_index(1) == 0


def test_alphabet_rejects_bad_involutions():
    with pytest.raises(ValueError):
        Alphabet.from_pairs([("a", "a")])
    with pytest.raises(ValueError):
        Alphabet.from_pairs([("a", "A"), ("a", "B")])
    with pytest.raises(ValueError):
        Alphabet(["a", "A", "b"], [("a", "A")])
    with pytest.raises(ValueError):
        Alphabet(["a", "A", "b", "B"], [("a", "A"), ("a", "B")])


def test_word_parse_and_str(ab2):
    w = ab2.word("abBA")
    assert str(w) == "abBA"
    assert len(w) == 4
    assert w.indices == (0, 2, 3, 1)
    assert ab2.word("") == ab2.empty_word()
    with pytest.raises(ValueError):
        ab2.word("ax")


def test_word_slicing_and_concat(ab2):
    w = ab2.word("abAB")
    assert isinstance(w[1:3], Word)
    assert str(w[1:3]) == "bA"
    assert w[0] == 0
    assert str(w[:2] + w[2:]) == "abAB"
    assert hash(ab2.word("ab")) == hash(ab2.word("ab"))


def test_word_rejects_cross_alphabet_concat(ab1, ab2):
    with pytest.raises(ValueError):
        ab1.word("a") + ab2.word("b")


def test_free_reduce(ab2):
    assert str(free_reduce(ab2.word("aA"))) == ""
    assert str(free_reduce(ab2.word("aabBAA"))) == ""
    assert str(free_reduce(ab2.word("abA"))) == "abA"
    assert str(free_reduce(ab2.word("abBA" * 3))) == ""
    assert str(free_reduce(ab2.word("baAB" + "ab"))) == "ab"
    assert ab2.word("abA").is_freely_reduced()
    assert not ab2.word("abBA").is_freely_reduced()


def test_free_reduce_idempotent(rng, ab2):
    for _ in range(200):
        w = random_word(rng, ab2, 10)
        r = free_reduce(w)
        assert r.is_freely_reduced()
        assert free_reduce(r) == r


def test_invert_word(ab2):
    assert str(invert_word(ab2.word("ab"))) == "BA"
    assert str(invert_word(ab2.word(""))) == ""
    w = ab2.word("aBab")
    assert invert_word(invert_word(w)) == w


def test_invert_reduce_commute(rng, ab2):
    for _ in range(200):
        w = random_word(rng, ab2, 10)
        assert free_reduce(invert_word(w)) == invert_word(free_reduce(w))


def test_shortlex_order(ab2):
    ws = [ab2.word(s) for s in ("", "a", "A", "b", "B", "aa", "aA", "ba")]
    assert sorted(ws, key=shortlex_key) == ws
    assert shortlex_key(ab2.word("a")) < shortlex_key(ab2.word("aa"))
    assert shortlex_key(ab2.word("b")) > shortlex_key(ab2.word("A"))
    assert shortlex_key(ab2.word("ab")) == shortlex_key(ab2.word("ab"))


def test_shortlex_key_total(rng, ab2):
    for _ in range(200):
        u = random_word(rng, ab2, 6)
        v = random_word(rng, ab2, 6)
        # shorter first, then the alphabet's letter order at the first difference
        first = next((i for i, (x, y) in enumerate(zip(u, v)) if x != y), None)
        if len(u) != len(v):
            before = len(u) < len(v)
        elif first is not None:
            before = u[first] < v[first]
        else:
            assert u == v and shortlex_key(u) == shortlex_key(v)
            continue
        assert (shortlex_key(u) < shortlex_key(v)) == before
        assert (shortlex_key(v) < shortlex_key(u)) == (not before)


def test_center_distance_exact(ab2):
    w = ab2.word("abab")
    assert center_distance(w, 2) == Fraction(1, 2)
    assert center_distance(w, 1) == Fraction(3, 2)
    assert center_distance(w, 4) == Fraction(3, 2)
    v = ab2.word("ababa")
    assert center_distance(v, 3) == 0
    assert center_distance(v, 1) == 2


def test_center_distance_bounds(ab2):
    w = ab2.word("ab")
    with pytest.raises(ValueError):
        center_distance(w, 0)
    with pytest.raises(ValueError):
        center_distance(w, 3)
