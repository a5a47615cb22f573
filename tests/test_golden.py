"""Golden builds: the canonical text of C' for the ℤ, ℤ/3 and ℤ² round trips,
fixed so that a faster construction must reproduce it byte for byte."""

from combings import Alphabet, Nfa, Transducer, fileformat
from combings import structures as st
from combings import transducer as td
from combings.linear import LinearLanguage
from combings.oracle import AbelianOracle, FiniteOracle

Z_CPRIME = """\
alphabet a A b B
inverse a A
inverse b B
nfa
states 4
initial 0
final 1
edge 0 - 1
edge 0 a 2
edge 0 A 3
edge 2 - 1
edge 2 a 2
edge 3 - 1
edge 3 A 3
"""

Z3_CPRIME = """\
alphabet a A
inverse a A
nfa
states 10
initial 0
final 6 8 9
edge 0 - 1
edge 0 - 2
edge 1 - 3
edge 1 - 4
edge 2 - 5
edge 3 - 6
edge 4 - 7
edge 5 A 8
edge 7 a 9
"""

Z2_CPRIME = """\
alphabet a A b B
inverse a A
inverse b B
nfa
states 6
initial 0
final 1
edge 0 - 1
edge 0 a 2
edge 0 A 3
edge 0 b 4
edge 0 B 5
edge 2 - 1
edge 2 a 2
edge 2 b 4
edge 2 B 5
edge 3 - 1
edge 3 A 3
edge 3 b 4
edge 3 B 5
edge 4 - 1
edge 4 b 4
edge 5 - 1
edge 5 B 5
"""


AB2 = Alphabet.from_pairs([("a", "A"), ("b", "B")])


def test_golden_z():
    """The README session: the conjugates of b under a -> 1, b -> 0."""
    ab = AB2
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
    cprime, _report = st.build_combing(LinearLanguage(gen, "inverse"), o, central=True)
    assert fileformat.write(cprime) == Z_CPRIME


def test_golden_z3():
    ab = Alphabet.from_pairs([("a", "A")])
    o = FiniteOracle(ab, [[(i + j) % 3 for j in range(3)] for i in range(3)], {"a": 1})
    gen = td.from_pairs(ab, [(ab.word("aaa"), ab.word(""))])
    cprime, _report = st.build_combing(LinearLanguage(gen, "inverse"), o, central=True)
    assert fileformat.write(cprime) == Z3_CPRIME


def test_golden_z2():
    """The README shortlex combing of ℤ², extracted at ft_bound 2 and
    rebuilt centrally."""
    ab = AB2
    o = AbelianOracle(ab, 2, {"a": [1, 0], "b": [0, 1]})
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
    gens = st.extract_generators(slex, o, ft_bound=2)
    cprime, report = st.build_combing(gens, o, central=True)
    assert fileformat.write(cprime) == Z2_CPRIME
    assert (
        report.vertices,
        report.core_vertices,
        report.c0_states,
        report.x_candidates,
        report.product_states,
        report.cprime_states,
    ) == (503, 419, 5, 35, 2717, 6)
