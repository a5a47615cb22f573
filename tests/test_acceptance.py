"""Acceptance run: nine end-to-end criteria, one verdict line each.

Every criterion is self-contained (fixed seeds, cached heavy builds) so the
tests pass in any order and each stays well under a minute.  Run with -s to
see the verdict lines on success; on failure the line is in the captured
output together with the first few concrete problems.
"""

import random
from functools import lru_cache

from combings import Alphabet, Nfa, Transducer
from combings import nfa as nfa_mod
from combings import oracle as orc
from combings import structures as st
from combings import transducer as td
from combings.linear import LinearLanguage, enumerate_members, invert_linear, member
from combings.oracle import AbelianOracle, FiniteOracle, FreeOracle
from combings.structures import SigWord
from combings.words import invert_word

from bruteforce import (
    concat_sets,
    lang_of_nfa,
    pairs_of_transducer,
    random_nfa,
    random_transducer,
    random_word,
    reverse_set,
    words_upto,
)


def _verdict(num: int, label: str, problems: list) -> None:
    print(f"criterion {num} ({label}): {'FAIL' if problems else 'PASS'}")
    assert not problems, f"criterion {num} ({label}): " + "; ".join(
        str(p) for p in problems[:5]
    )


@lru_cache(maxsize=None)
def _ab2() -> Alphabet:
    return Alphabet.from_pairs([("a", "A"), ("b", "B")])


@lru_cache(maxsize=None)
def _z_combing():
    """C' for Z = <a,b | b, [a,b]> via the conjugates-of-b generator language.

    The transducer accepts (a^n b, a^n) and (A^n b, A^n), so the members
    a^n b a^-n and a^-n b a^n generate the kernel of a->1, b->0 as a
    subgroup, not merely as a normal subgroup.
    """
    ab = _ab2()
    gen = Transducer(
        ab,
        4,
        [
            (0, (None, None), 1),
            (1, (0, 0), 1),
            (1, (2, None), 3),
            (0, (None, None), 2),
            (2, (1, 1), 2),
            (2, (2, None), 3),
        ],
        0,
        [3],
    )
    o = AbelianOracle(ab, 1, {"a": [1], "b": [0]})
    cprime, report = st.build_combing(LinearLanguage(gen, "inverse"), o, central=True)
    return o, cprime, report


@lru_cache(maxsize=None)
def _z3_combing():
    ab = Alphabet.from_pairs([("a", "A")])
    o = FiniteOracle(
        ab,
        [[(i + j) % 3 for j in range(3)] for i in range(3)],
        letter_images={"a": 1},
    )
    gen = td.from_pairs(ab, [(ab.word("aaa"), ab.word(""))])
    cprime, report = st.build_combing(LinearLanguage(gen, "inverse"), o, central=True)
    return o, cprime, report


@lru_cache(maxsize=None)
def _z2_oracle_and_slex():
    ab = _ab2()
    o = AbelianOracle(ab, 2, {"a": [1, 0], "b": [0, 1]})
    # shortlex normal forms a^{±m} b^{±n} under a < A < b < B
    slex = Nfa(
        ab,
        5,
        [
            (0, 0, 1), (1, 0, 1),
            (0, 1, 2), (2, 1, 2),
            (0, 2, 3), (1, 2, 3), (2, 2, 3), (3, 2, 3),
            (0, 3, 4), (1, 3, 4), (2, 3, 4), (4, 3, 4),
        ],
        0,
        [0, 1, 2, 3, 4],
    )
    return o, slex


@lru_cache(maxsize=None)
def _z2_extraction() -> LinearLanguage:
    o, slex = _z2_oracle_and_slex()
    return st.extract_generators(slex, o, ft_bound=2)


@lru_cache(maxsize=None)
def _z2_rebuilt():
    o, _slex = _z2_oracle_and_slex()
    return st.build_combing(_z2_extraction(), o, central=True)


def test_criterion_1_closure_laws():
    rng = random.Random(0xAC01)
    ab = _ab2()
    problems = []

    nfas = [nfa_mod.trim(random_nfa(rng, ab, max_states=5)) for _ in range(25)]
    trans = [td.trim(random_transducer(rng, ab, max_states=5)) for _ in range(25)]
    langs = [lang_of_nfa(a, 6) for a in nfas]
    rels = [pairs_of_transducer(t, 6) for t in trans]

    for i, a in enumerate(nfas):
        j = (i + 1) % len(nfas)
        b = nfas[j]
        if lang_of_nfa(nfa_mod.union(a, b), 6) != langs[i] | langs[j]:
            problems.append(f"nfa union #{i}")
        if lang_of_nfa(nfa_mod.concat(a, b), 6) != concat_sets(langs[i], langs[j], 6):
            problems.append(f"nfa concat #{i}")
        if lang_of_nfa(nfa_mod.reverse(a), 6) != reverse_set(langs[i]):
            problems.append(f"nfa reverse #{i}")
        covered = set()
        for left, right in nfa_mod.split_decomposition(a):
            covered |= concat_sets(lang_of_nfa(left, 6), lang_of_nfa(right, 6), 6)
        if covered != langs[i]:
            problems.append(f"split_decomposition #{i}")

    for i, t in enumerate(trans):
        j = (i + 1) % len(trans)
        if pairs_of_transducer(nfa_mod.union(t, trans[j]), 6) != rels[i] | rels[j]:
            problems.append(f"transducer union #{i}")
        want = {
            (u + x, v + y)
            for (u, v) in rels[i]
            for (x, y) in rels[j]
            if len(u) + len(x) + len(v) + len(y) <= 6
        }
        if pairs_of_transducer(nfa_mod.concat(t, trans[j]), 6) != want:
            problems.append(f"transducer concat #{i}")
        for coordinate, pick in (("first", 0), ("second", 1)):
            reference = Nfa(
                ab,
                t.n,
                [(s, lab[pick], d) for (s, lab, d) in t.edges],
                t.initial,
                t.terminals,
            )
            if lang_of_nfa(td.project(t, coordinate), 6) != lang_of_nfa(reference, 6):
                problems.append(f"project {coordinate} #{i}")
        r, s = nfas[i], nfas[j]
        want = {(u, v) for (u, v) in rels[i] if u in langs[i] and v in langs[j]}
        if pairs_of_transducer(td.intersect_rect(t, r, s), 6) != want:
            problems.append(f"intersect_rect #{i}")
        want = {(w, w) for w in langs[i] if len(w) <= 3}
        if pairs_of_transducer(td.identity_of(r), 6) != want:
            problems.append(f"identity_of #{i}")

    _verdict(1, "closure laws", problems)


def test_criterion_2_linear_membership():
    rng = random.Random(0xAC02)
    ab = _ab2()
    problems = []

    for i in range(20):
        t = td.trim(random_transducer(rng, ab, max_states=4))
        lang = LinearLanguage(t, "inverse")
        want = {u + invert_word(v) for (u, v) in pairs_of_transducer(t, 8)}
        if set(enumerate_members(lang, 8)) != want:
            problems.append(f"enumerate #{i}")
        for w in want:
            if not member(lang, w):
                problems.append(f"member rejects {w} #{i}")
                break
        for w in words_upto(ab, 3):
            if member(lang, w) != (w in want):
                problems.append(f"member disagrees on {str(w) or 'ε'} #{i}")
                break
        for _ in range(150):
            w = random_word(rng, ab, 8, minlen=4)
            if member(lang, w) != (w in want):
                problems.append(f"member disagrees on {w} #{i}")
                break

        inverted = invert_linear(lang)
        want6 = {w for w in want if len(w) <= 6}
        if set(enumerate_members(inverted, 6)) != {invert_word(w) for w in want6}:
            problems.append(f"invert members #{i}")
        if set(enumerate_members(invert_linear(inverted), 6)) != want6:
            problems.append(f"invert not an involution #{i}")

    _verdict(2, "linear membership", problems)


def test_criterion_3_integers_end_to_end():
    o, cprime, report = _z_combing()
    ab = _ab2()
    problems = []

    a_star_union = Nfa(ab, 3, [(0, 0, 1), (1, 0, 1), (0, 1, 2), (2, 1, 2)], 0, [0, 1, 2])
    if not nfa_mod.equivalent(cprime, a_star_union):
        problems.append("C' is not a* ∪ A*")
    check = st.check_combing(cprime, o, 8, 8)
    if not check.passed:
        problems.append(str(check))

    _verdict(3, "Z end to end", problems)


def test_criterion_4_cyclic_of_order_three():
    o, cprime, report = _z3_combing()
    problems = []

    members = [str(w) for w in nfa_mod.enumerate_words(cprime, 6)]
    if members != ["", "a", "A"]:
        problems.append(f"members {members}")
    check = st.check_combing(cprime, o, 1, 2)
    if not (check.passed and check.ball_size == 3):
        problems.append(str(check))

    _verdict(4, "Z/3 from {aaa}", problems)


def test_criterion_5_z2_round_trip():
    o, slex = _z2_oracle_and_slex()
    gens = _z2_extraction()
    problems = []

    marks: dict = {}
    for u, v in td.enumerate_pairs(gens.t, 12):
        w = u + invert_word(v)
        # the distinguished letter is the last one on the first tape
        marks.setdefault(w, SigWord(w, len(u)))
    sample = list(marks.values())
    if not sample:
        problems.append("no members up to length 12")
    violation = st.check_significant(sample)
    if violation is not None:
        problems.append(str(violation))
    central = st.check_central(sample, k=1)
    if not central.passed:
        problems.append(str(central))

    rebuilt, report = _z2_rebuilt()
    check = st.check_combing(rebuilt, o, 5, 6)
    if not check.passed:
        problems.append(str(check))
    bound = st.ft_bound_of_combing(rebuilt, o, "sync", 8)
    if bound is None or bound > 4:
        problems.append(f"synchronous bound {bound} exceeds 4")
    if bound != 2:
        problems.append(f"observed synchronous bound drifted from 2 to {bound}")

    _verdict(5, "Z^2 round trip", problems)


def test_criterion_6_no_significant_assignment():
    ab3 = Alphabet.from_pairs([("a", "A"), ("b", "B"), ("c", "C")])
    words = [ab3.word("ab"), ab3.word("BAc")]
    problems = []

    if st.search_significant(words) is not None:
        problems.append("search found an assignment")
    witness = None
    for i in (1, 2):
        for j in (1, 2, 3):
            v = st.check_significant([SigWord(words[0], i), SigWord(words[1], j)])
            if v is None:
                problems.append(f"marks ({i},{j}) unexpectedly pass")
            elif witness is None:
                witness = v
    print(f"violating product: {witness}")

    _verdict(6, "no assignment for {ab, BAc}", problems)


def test_criterion_7_synchronized_bounds():
    ab = _ab2()
    problems = []

    loop = Transducer(ab, 1, [(0, (0, None), 0)], 0, [0])
    if td.synchronized_bound(loop) is not None:
        problems.append("(a,ε) loop reported a finite bound")

    gens = _z2_extraction()
    stripped = td.trim(td.strip_epsilon_cycles(td.trim(gens.t)))
    bound = td.synchronized_bound(stripped)
    if bound is None:
        problems.append("extraction transducer reported unbounded")
    elif bound != 2:
        problems.append(f"extraction bound drifted from 2 to {bound}")
    if not td.check_balanced_cycles(stripped):
        problems.append("extraction cycles not balanced")

    _verdict(7, "synchronized bounds", problems)


def test_criterion_8_no_trivial_subwords():
    combings = [
        ("Z", _z_combing()),
        ("Z/3", _z3_combing()),
        ("Z^2", (_z2_oracle_and_slex()[0],) + _z2_rebuilt()),
    ]
    problems = []

    for name, (o, c, _report) in combings:
        for w in nfa_mod.enumerate_words(c, 8):
            prefixes = [o.identity_element()]
            for letter in w.indices:
                prefixes.append(o.mul_right(prefixes[-1], letter))
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    if prefixes[i] == prefixes[j]:
                        problems.append(f"{name}: {w}[{i}:{j}] is trivial")

    _verdict(8, "no trivial subwords", problems)


def test_criterion_9_metric_inequalities():
    ab2 = _ab2()
    ab1 = Alphabet.from_pairs([("a", "A")])
    oracles = [
        ("free", FreeOracle(ab2)),
        ("Z^2", AbelianOracle(ab2, 2, {"a": [1, 0], "b": [0, 1]})),
        ("Z/3", FiniteOracle(
            ab1,
            [[(i + j) % 3 for j in range(3)] for i in range(3)],
            letter_images={"a": 1},
        )),
    ]
    problems = []

    for name, o in oracles:
        rng = random.Random(0xAC09)
        ab = o.alphabet
        for _ in range(500):
            u = random_word(rng, ab, 6)
            v = random_word(rng, ab, 6)
            da = orc.ft_distance(o, "async", u, v)
            ds = orc.ft_distance(o, "sync", u, v)
            if ds is not None and (da is None or da > ds):
                problems.append(f"{name}: D_a({u},{v})={da} > D_s={ds}")
        for _ in range(200):
            u = random_word(rng, ab, 5)
            v = random_word(rng, ab, 5)
            w = random_word(rng, ab, 5)
            for mode in ("async", "sync"):
                d_uv = orc.ft_distance(o, mode, u, v)
                d_vw = orc.ft_distance(o, mode, v, w)
                d_uw = orc.ft_distance(o, mode, u, w)
                if d_uv is None or d_vw is None:
                    continue
                if d_uw is None or d_uw > d_uv + d_vw:
                    problems.append(f"{name} {mode}: triangle fails on ({u},{v},{w})")
        for u in words_upto(ab, 4):
            for v in words_upto(ab, 4):
                ds = orc.ft_distance(o, "sync", u, u + v)
                if ds is None or ds > len(v):
                    problems.append(f"{name}: D_s({u},{u}{v})={ds} > {len(v)}")

    _verdict(9, "metric inequalities", problems)
