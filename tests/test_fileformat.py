import tracemalloc

import pytest

from combings import (
    AbelianOracle,
    Alphabet,
    FiniteOracle,
    FreeOracle,
    LinearLanguage,
    Nfa,
    Transducer,
)
from combings import fileformat as ff
from combings import linear as lin
from combings import nfa as nfa_mod
from combings import transducer as td
from bruteforce import pairs_of_transducer, random_nfa, random_transducer


def test_nfa_round_trip(rng, ab2):
    for _ in range(15):
        a = nfa_mod.trim(random_nfa(rng, ab2))
        back = ff.parse(ff.write(a))
        assert isinstance(back, Nfa)
        assert back.alphabet == ab2
        assert nfa_mod.equivalent(back, a)


def test_transducer_round_trip(rng, ab2):
    for _ in range(15):
        t = td.trim(random_transducer(rng, ab2))
        back = ff.parse(ff.write(t))
        assert isinstance(back, Transducer)
        assert pairs_of_transducer(back, 5) == pairs_of_transducer(t, 5)


def test_linear_round_trip(rng, ab2):
    for mode in lin.MODES:
        t = td.from_pairs(ab2, [(ab2.word("ab"), ab2.word("b"))])
        l = LinearLanguage(t, mode)
        back = ff.parse(ff.write(l))
        assert isinstance(back, LinearLanguage)
        assert back.mode == mode
        assert lin.enumerate_members(back, 6) == lin.enumerate_members(l, 6)


def test_oracle_round_trips(ab1, ab2, z3_oracle):
    free = FreeOracle(ab2)
    back = ff.parse(ff.write(free))
    assert isinstance(back, FreeOracle)
    assert back.alphabet == ab2

    o = AbelianOracle(ab2, 2, {"a": [1, 0], "b": [0, 1]})
    back = ff.parse(ff.write(o))
    assert isinstance(back, AbelianOracle)
    assert back.rank == 2
    assert back.weights == o.weights

    back = ff.parse(ff.write(z3_oracle))
    assert isinstance(back, FiniteOracle)
    assert back.table == z3_oracle.table
    assert back.letter_images == z3_oracle.letter_images


def test_write_is_canonical_up_to_renumbering(ab2):
    a = Nfa(ab2, 3, [(0, 0, 2), (2, 1, 1)], 0, [1])
    perm = {0: 1, 2: 0, 1: 2}
    b = Nfa(
        ab2,
        3,
        [(perm[s], x, perm[d]) for s, x, d in a.edges],
        perm[0],
        [perm[1]],
    )
    assert ff.write(a) == ff.write(b)


def test_comments_and_blanks_ignored(ab2):
    text = """# a machine
alphabet a A b B
inverse a A

inverse b B   # pairs
nfa
states 1
initial 0
final 0
edge 0 a 0
"""
    a = ff.parse(text)
    assert isinstance(a, Nfa)
    assert nfa_mod.accepts(a, ab2.word("aaa"))


def test_epsilon_dash(ab2):
    text = (
        "alphabet a A b B\ninverse a A\ninverse b B\n"
        "transducer\nstates 2\ninitial 0\nfinal 1\nedge 0 a - 1\nedge 1 - - 1\n"
    )
    t = ff.parse(text)
    assert (ab2.word("a"), ab2.word("")) in pairs_of_transducer(t, 1)


def _sigma_star(ab):
    return Nfa(ab, 1, [(0, x, 0) for x in range(len(ab))], 0, [0])


def test_parse_file_round_trip(tmp_path, ab2):
    a = _sigma_star(ab2)
    path = tmp_path / "machine.nfa"
    ff.write_file(path, a)
    back = ff.parse_file(path)
    assert nfa_mod.equivalent(back, a)


def test_error_reports_line_numbers():
    with pytest.raises(ff.FormatError) as err:
        ff.parse("nfa\nstates 1\ninitial 0\nfinal 0\n")
    assert err.value.lineno == 1

    base = "alphabet a A\ninverse a A\n"
    with pytest.raises(ff.FormatError) as err:
        ff.parse(base + "widget\nstates 1\n")
    assert err.value.lineno == 3

    with pytest.raises(ff.FormatError) as err:
        ff.parse(base + "nfa\nstates 1\ninitial 0\nfinal 0\nedge 0 q 0\n")
    assert err.value.lineno == 7

    with pytest.raises(ff.FormatError) as err:
        ff.parse(base + "nfa\nstates 1\ninitial 0\nfinal 0\nedge 0 a 4\n")
    assert err.value.lineno == 7

    with pytest.raises(ff.FormatError) as err:
        ff.parse(base + "nfa\nstates one\n")
    assert err.value.lineno == 4


NFA_2 = "alphabet a A\ninverse a A\nnfa\nstates 2\n"
FINITE_2 = "alphabet a A\ninverse a A\noracle finite\nelements 2\n"
ABELIAN_1 = "alphabet a A\ninverse a A\noracle abelian\nrank 1\n"
Z2_TABLE = "table 0 1\ntable 1 0\n"
# (file text, line at fault, message): each fault sits before other lines
LINE_FAULTS = [
    pytest.param(NFA_2 + "initial 5\nfinal 0\nedge 0 a 1\n", 5, "initial vertex 5 out of range", id="initial"),
    pytest.param(
        NFA_2 + "initial 0\nfinal 7\nedge 0 a 1\nedge 1 a 0\n", 6, "terminal vertex 7 out of range", id="final"
    ),
    pytest.param(
        NFA_2 + "initial 0\nfinal 0\nedge 0 a 9\nedge 1 a 0\nedge 0 A 1\n", 7, "edge (0,0,9) out of range", id="edge"
    ),
    pytest.param(
        NFA_2.replace("nfa", "transducer") + "initial 0\nfinal 0\nedge 9 a - 0\nedge 0 - a 1\n",
        7,
        "edge (9,(0, None),0) out of range",
        id="transducer-edge",
    ),
    pytest.param(
        FINITE_2 + "letter a 1\ntable 0 1 0\ntable 1 0\n", 6, "table row 0 has length 3, want 2", id="row-length"
    ),
    pytest.param(FINITE_2 + "letter a 1\ntable 0 2\ntable 1 0\n", 6, "table entry 2 out of range", id="row-entry"),
    pytest.param(FINITE_2 + "letter a 5\n" + Z2_TABLE, 5, "letter a maps to 5, out of range", id="letter-image"),
    pytest.param(FINITE_2.replace("2", "-1") + "letter a 0\n", 4, "element count must be positive", id="elements-negative"),
    pytest.param(FINITE_2.replace("2", "0") + "letter a 0\n", 4, "element count must be positive", id="elements-zero"),
    pytest.param(FINITE_2 + "letter a 1\nletter a 0\n" + Z2_TABLE, 6, "letter a given twice", id="letter-twice"),
    pytest.param(ABELIAN_1 + "weight a 1\nweight a 2\n", 6, "weight a given twice", id="weight-twice"),
    # a fault between two letters lies at the later of their lines
    pytest.param(
        FINITE_2 + "letter a 1\nletter A 0\n" + Z2_TABLE, 6, "images of a and A are not mutually inverse", id="letter-pair"
    ),
    pytest.param(
        "alphabet a A b B\ninverse a A\ninverse b B\noracle abelian\nrank 1\nweight a 1\nweight A 1\nweight b 0\n",
        7,
        "weights of a and A are not negatives of each other",
        id="weight-pair",
    ),
]


@pytest.mark.parametrize("text, lineno, message", LINE_FAULTS)
def test_fault_is_reported_at_its_own_line(text, lineno, message):
    """A range fault or a repeated letter is reported at the line that
    holds it, not at the last line read, with the constructor's message."""
    with pytest.raises(ff.FormatError) as err:
        ff.parse(text)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: {message}"


def test_a_line_for_the_inverse_letter_is_allowed():
    """A repeated letter is refused, but a line for its inverse letter is
    not: the oracle checks that the two values are inverse."""
    z2 = ff.parse(FINITE_2 + "letter a 1\nletter A 1\n" + Z2_TABLE)
    assert z2.letter_images == (1, 1)
    z = ff.parse(ABELIAN_1 + "weight a 1\nweight A -1\n")
    assert z.weights == ((1,), (-1,))
    with pytest.raises(ff.FormatError, match="weights of a and A are not negatives"):
        ff.parse(ABELIAN_1 + "weight a 1\nweight A 2\n")


def test_absurd_state_count_rejected():
    """A state count beyond MAX_STATES fails on its own line, before
    anything is allocated per state."""
    base = "alphabet a A\ninverse a A\n"
    for kind, edge in (("nfa", "edge 0 a 0"), ("transducer", "edge 0 a - 0")):
        text = base + f"{kind}\nstates 1000000000000\ninitial 0\nfinal 0\n{edge}\n"
        tracemalloc.start()
        try:
            with pytest.raises(ff.FormatError) as err:
                ff.parse(text)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.lineno == 4
        assert peak < 1_000_000
    at_limit = f"nfa\nstates {ff.MAX_STATES}\ninitial 0\nfinal 0\n"
    assert ff.parse(base + at_limit).n == ff.MAX_STATES


def test_error_on_bad_oracle_bodies():
    base = "alphabet a A\ninverse a A\n"
    with pytest.raises(ff.FormatError):
        ff.parse(base + "oracle finite\nelements 2\nletter a 1\ntable 0 1\n")
    with pytest.raises(ff.FormatError):
        ff.parse(base + "oracle abelian\nrank 1\n")
    with pytest.raises(ff.FormatError):
        ff.parse(base + "oracle sporadic\n")


@pytest.mark.parametrize("body", ["rank -1\nweight\n", "rank -2\nweight a 1\n", "rank -1\n"])
def test_negative_rank_refused_at_the_rank_line(body):
    base = "alphabet a A\ninverse a A\noracle abelian\n"
    with pytest.raises(ff.FormatError) as err:
        ff.parse(base + body)
    assert err.value.lineno == 4
    assert "is negative" in str(err.value)


def test_trailing_garbage_rejected(ab2):
    text = ff.write(_sigma_star(ab2)) + "edge 0 a 0\nbogus line\n"
    with pytest.raises(ff.FormatError):
        ff.parse(text)
