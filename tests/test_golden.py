"""Golden builds: the canonical text of C' for the ℤ, ℤ/3, ℤ², S₃ and
non-L1 ℤ round trips, of the ℤ², ℤ³ and S₃ extracts, and of the extract,
C' and report of each table group of the benchmark, fixed so that a faster
or simpler construction must reproduce it byte for byte."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import combings
from combings import Alphabet, Nfa, Transducer, fileformat
from combings import structures as st
from combings import transducer as td
from combings.linear import LinearLanguage
from combings.oracle import AbelianOracle, FiniteOracle
from bruteforce import shared_masks_by_elements
from test_structures import REF, mask_classes

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

Z2_EXTRACT = (Path(__file__).parent / "data" / "z2_extract.txt").read_text(encoding="utf-8")


def z2_extract():
    """The README shortlex combing of ℤ², extracted at ft_bound 2."""
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
    return st.extract_generators(slex, o, ft_bound=2), o


# sha256 of fileformat.write of the ℤ³ extract, 1226 states and 4299 edges
Z3_EXTRACT_SHA256 = "850e79a9e3110fcb9ff0bbdda2be3c6e55c9d6dc7c2e453fe94306202ecadf88"


def z3_extract():
    """The shortlex combing of ℤ³ under a < A < b < B < c < C (each power
    spelled by one letter, generators in order), extracted at ft_bound 2."""
    ab = Alphabet.from_pairs([("a", "A"), ("b", "B"), ("c", "C")])
    o = AbelianOracle(ab, 3, {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
    edges = []
    for i in range(6):
        edges.append((0, i, 1 + i))
        edges.extend((1 + i, j, 1 + j) for j in range(6) if j == i or j // 2 > i // 2)
    slex = Nfa(ab, 7, edges, 0, range(7))
    return st.extract_generators(slex, o, ft_bound=2), o


# sha256 of fileformat.write of C' of the ℤ³ extract built centrally, and of
# its BuildReport text
Z3_CPRIME_SHA256 = "b91262bac20df4ed1eb7b65cbbfbb331d495f2b3e8a117b7ea2e54a39d35b46f"
Z3_REPORT_SHA256 = "eef156aea97bd04128a64179dd881775665fd7a5d94bedad93af81097ca8cf84"

# sha256 of fileformat.write of the S₃ extract and of its C'
S3_EXTRACT_SHA256 = "e044b1b15c3eaede7f020d303f7a503b869e0804170993c17b719c8ee4329b76"
S3_CPRIME_SHA256 = "c3c4142ee651c4344bd861b48e23ce92ca425e62b27801de202df73d2859838b"


def s3_extract():
    """S₃ by its table (permutations of 0, 1, 2 composed left to right) with
    a ↦ the transposition (0 1) and b ↦ the 3-cycle (0 1 2), combed by the
    shortlex tree of its Cayley graph and extracted at the tree's depth."""
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    o = FiniteOracle(AB2, table, {"a": idx[(1, 0, 2)], "b": idx[(1, 2, 0)]})
    ids, depth, edges = {0: 0}, [0], []
    queue = [0]
    for g in queue:  # breadth first, letters in alphabet order
        for x in range(len(AB2)):
            h = o.mul_right(g, x)
            if h not in ids:
                ids[h] = len(ids)
                depth.append(depth[ids[g]] + 1)
                edges.append((ids[g], x, ids[h]))
                queue.append(h)
    trie = Nfa(AB2, len(ids), edges, 0, range(len(ids)))
    return st.extract_generators(trie, o, max(depth)), o


# The full BuildReport texts of the ℤ² central build and the S₃ build: the
# suffix bound, the ball radius, the candidates and the kept suffixes.
Z2_REPORT = """\
K=2010 (vertices 503, edges 1506)
core: 419 vertices, 1186 edges; C0 has 5 states
fellow-traveler bound: empirical 2, used 4
suffix bound 'AAAB'; 35 candidates, kept 1: ['ε']
cayley ball radius 12; product 2717 states
upto check: ok; balanced cycles: True; C0 contained in C': True
C' has 6 states
C' synchronous ft bound (sampled): 2"""

S3_REPORT = """\
K=814 (vertices 297, edges 516)
core: 0 vertices, 0 edges; C0 has 1 states
fellow-traveler bound: empirical 0, used 2
suffix bound 'aB'; 6 candidates, kept 6: ['ε', 'a', 'b', 'B', 'ab', 'aB']
cayley ball radius 6; product 1 states
upto check: ok; balanced cycles: True; C0 contained in C': True
C' has 24 states"""


# The README ℤ generators built through the non-L1 weights a -> (1, 1),
# b -> (0, 1): the tail radius is read off the oracle's cached ball.
NON_L1_CPRIME = """\
alphabet a A b B
inverse a A
inverse b B
nfa
states 16
initial 0
final 8 14 15
edge 0 - 1
edge 0 - 2
edge 1 - 3
edge 1 - 4
edge 2 - 5
edge 2 a 6
edge 2 A 7
edge 3 - 8
edge 3 a 9
edge 3 A 10
edge 4 - 11
edge 4 a 12
edge 4 A 13
edge 5 B 14
edge 6 - 5
edge 6 a 6
edge 7 - 5
edge 7 A 7
edge 9 - 8
edge 9 a 9
edge 10 - 8
edge 10 A 10
edge 11 b 15
edge 12 - 11
edge 12 a 12
edge 13 - 11
edge 13 A 13
"""

NON_L1_REPORT = """\
K=24 (vertices 9, edges 14)
core: 7 vertices, 10 edges; C0 has 3 states
fellow-traveler bound: empirical 1, used 3
suffix bound 'B'; 5 candidates, kept 3: ['ε', 'b', 'B']
cayley ball radius 5; product 51 states
upto check: ok; balanced cycles: True; C0 contained in C': True
C' has 16 states"""

# sha256 of fileformat.write of the extract and of C', and of the
# BuildReport text, for the benchmark's table groups in their seed-0
# configuration: the shortlex trie extracted at the Cayley graph's diameter,
# then built
TABLE_GROUPS = [
    ("Z/3", "cyclic", 3,
     "93098e9ce3ec29e509a2f801e1438536b6deccc1b3686784da140e6e135913ee",
     "dc3269e7816a72b1d494e01f11fb8163336e0576989b1562b3985b173a7f5dde",
     "848696ccc8963b1d97873b3b7c4e068a15e2a00efebf5f13f8bcdfdae0f60421"),
    ("Z/7", "cyclic", 7,
     "6aeeb024a18a1796235b06bfae21b7a0418df1c5636ebc41e26d04a47dd98c3e",
     "197e27f50a2886ae2a9488e4714013b7d4efcf6be093d47bd982b9bdeba48abd",
     "dba749fae944a27e2e58f1ff8c59898996c9b25c0e17bf8fa4e29995bfe5845d"),
    ("Z/12", "cyclic", 12,
     "9951165a4fc9c6a502587e727e3b7d4cd3ef4407cb7e6eae8c821717746d5ff2",
     "38b75cb9d8336f1cb38064aa56f9b969fdaafab3b507dc9d8df94a8d240f0e76",
     "c073531d572b551a617c657c268c11991d4f2f7323c369cd149fe90554610687"),
    ("D5", "dihedral", 5,
     "376d57a0aa247fa37111740bd3e33eeafcaeca35bdc9f7e4efbb919a253d4510",
     "621ea69cc8d45ce4d0310c749211f83879f30fde157dcf7afc7cacd8a6478235",
     "06207446b445a52a5dcb4a58616f9ef2796e957fbc539c3b8b62503805531afa"),
    ("D6", "dihedral", 6,
     "132299a9a813a97157cff8ea49881ef6e26edb8d30acf0a5704233f84ab6eeea",
     "ff71cc37b4ca1b0f4567c1baf603b7adae967bd4c4b450f155ebf01498e27519",
     "df6260f794e59ecfdd1db0b7604e01f022612f23dfe8ce31fa4e35758e7a63b7"),
    ("D8", "dihedral", 8,
     "7e9b1ee65b74782efa3b7b4ab484b8c2dac37e91bb43b4e1802e0098e9da4408",
     "25c0419b5103f6e08b2e6a79082adae006dfe71ab7674e84598e01a8d829b2ec",
     "4ef71e7e881ee133d464807e5cb018a3d2a0f9bff0ae5125715618b0b13a86ec"),
    ("S3", "symmetric", 3,
     "e044b1b15c3eaede7f020d303f7a503b869e0804170993c17b719c8ee4329b76",
     "c3c4142ee651c4344bd861b48e23ce92ca425e62b27801de202df73d2859838b",
     "4be8f5d0c405cdf2b4842501584b7b8ba41575dfca6f7f03146171ffd90a28b2"),
    ("S4", "symmetric", 4,
     "17342dd3ed4de45eb514a197c823bacd480d364187a402b0a7c76ee1a9a8d8ab",
     "c9e6183a36fb4ecebe9fa1007ae0412334383ca3cdbba43e6f058fbc405e6a34",
     "cfc541cf020649640a0baacf187bae6182dcf4b9a7904d05b9ad22fdb0b3090c"),
    ("S5", "symmetric", 5,
     "7aa7d310651efe1123c46bafd75698be5ae88bbfd40abc5d8d0b3dfe25c192e2",
     "1240566fedca791e9147d6b552045488dd10994a8e949a854f67e12abe206f2f",
     "3e7feaed663578795043ff5002bad696a67fa188fde3395de1e88828c9e4c6f0"),
]


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def z_generators():
    """The README session's generator language: the conjugates aⁿbAⁿ and
    Aⁿbaⁿ of b."""
    edges = [
        (0, (None, None), 1),
        (1, (0, 0), 1),
        (1, (2, None), 3),
        (0, (None, None), 2),
        (2, (1, 1), 2),
        (2, (2, None), 3),
    ]
    return LinearLanguage(Transducer(AB2, 4, edges, 0, [3]), "inverse")


def test_golden_z():
    """The README session: the conjugates of b under a -> 1, b -> 0."""
    o = AbelianOracle(AB2, 1, {"a": [1], "b": [0]})
    cprime, _report = st.build_combing(z_generators(), o, central=True)
    assert fileformat.write(cprime) == Z_CPRIME


def test_golden_z_non_l1():
    o = AbelianOracle(AB2, 2, {"a": [1, 1], "b": [0, 1]})
    cprime, report = st.build_combing(z_generators(), o)
    assert fileformat.write(cprime) == NON_L1_CPRIME
    assert str(report) == NON_L1_REPORT
    cprime, report = st.build_combing(z_generators(), o, central=True)
    assert fileformat.write(cprime) == NON_L1_CPRIME
    assert str(report) == NON_L1_REPORT + "\nC' synchronous ft bound (sampled): 2"


@pytest.mark.parametrize(
    "make, order, extract_sha, cprime_sha, report_sha",
    [row[1:] for row in TABLE_GROUPS],
    ids=[row[0] for row in TABLE_GROUPS],
)
def test_golden_table_group(make, order, extract_sha, cprime_sha, report_sha):
    table, gens = getattr(REF, make)(order, None)
    n, edges, diameter = REF.shortlex_trie(table, REF.letter_images(table, gens))
    ab = AB2 if len(gens) == 2 else Alphabet.from_pairs([("a", "A")])
    o = FiniteOracle(ab, table, dict(zip("ab", gens)))
    gens_lang = st.extract_generators(Nfa(ab, n, edges, 0, range(n)), o, diameter)
    assert _sha256(fileformat.write(gens_lang)) == extract_sha
    cprime, report = st.build_combing(gens_lang, o)
    assert _sha256(fileformat.write(cprime)) == cprime_sha
    assert _sha256(str(report)) == report_sha


def test_golden_z3():
    ab = Alphabet.from_pairs([("a", "A")])
    o = FiniteOracle(ab, [[(i + j) % 3 for j in range(3)] for i in range(3)], {"a": 1})
    gen = td.from_pairs(ab, [(ab.word("aaa"), ab.word(""))])
    cprime, _report = st.build_combing(LinearLanguage(gen, "inverse"), o, central=True)
    assert fileformat.write(cprime) == Z3_CPRIME


def test_golden_z2():
    """The ℤ² extract rebuilt centrally."""
    gens, o = z2_extract()
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
    assert (report.subset_vertices, report.subset_elements) == (365, 114245)
    assert str(report) == Z2_REPORT


def test_z2_shared_masks_match_the_per_element_loop(monkeypatch):
    """The masks of the ℤ² build's shared subset product, against the
    definition collected element by element."""
    calls = []
    shared_difference = st._shared_difference

    def spy(c0, statelist, prod_edges):
        shared = shared_difference(c0, statelist, prod_edges)
        calls.append((mask_classes(shared), shared_masks_by_elements(c0, statelist, prod_edges)))
        return shared

    monkeypatch.setattr(st, "_shared_difference", spy)
    gens, o = z2_extract()
    st.build_combing(gens, o, central=True)
    assert len(calls) == 1
    got, want = calls[0]
    assert got == want
    assert (got[0], got[2]) == (365, 114245)


def test_golden_z3_build():
    """The ℤ³ extract rebuilt centrally: the largest build the tests run,
    with a shared subset product of 3303 subsets of 2625 states each."""
    gens, o = z3_extract()
    cprime, report = st.build_combing(gens, o, central=True)
    assert (report.subset_vertices, report.subset_elements) == (3303, 8670375)
    assert _sha256(fileformat.write(cprime)) == Z3_CPRIME_SHA256
    assert _sha256(str(report)) == Z3_REPORT_SHA256


def test_golden_z2_extract():
    gens, _o = z2_extract()
    assert (gens.t.n, len(gens.t.edges)) == (251, 752)
    assert fileformat.write(gens) == Z2_EXTRACT


def test_golden_z3_extract():
    gens, _o = z3_extract()
    assert (gens.t.n, len(gens.t.edges)) == (1226, 4299)
    assert _sha256(fileformat.write(gens)) == Z3_EXTRACT_SHA256


# sha256 of the in-memory S₅ and ℤ³ extracts, (n, edges ordered by source,
# label key and target, initial, sorted terminals): fileformat.write
# renumbers, so only these pin the extract's own ids
EXTRACT_IDS_SHA256 = {
    "S5": "4a5110761626686839e30401b91c403037d294c07e494fb40acb3f66904b41dc",
    "Z3": "450bac6c3d346b86cb8f1598a04632752802c44dee46ec28e25063fb6ed5b22d",
}


def s5_extract():
    """The benchmark's S₅: the shortlex trie extracted at the diameter."""
    table, gens = REF.symmetric(5, None)
    n, edges, diameter = REF.shortlex_trie(table, REF.letter_images(table, gens))
    o = FiniteOracle(AB2, table, dict(zip("ab", gens)))
    return st.extract_generators(Nfa(AB2, n, edges, 0, range(n)), o, diameter), o


@pytest.mark.parametrize("name, make", [("S5", s5_extract), ("Z3", z3_extract)])
def test_extract_ids(name, make):
    t = make()[0].t
    edges = sorted(t.edges, key=lambda e: (e[0], t.label_key(e[1]), e[2]))
    graph = (t.n, edges, t.initial, sorted(t.terminals))
    assert _sha256(repr(graph)) == EXTRACT_IDS_SHA256[name]


def test_golden_s3_table_group():
    gens, o = s3_extract()
    assert (gens.t.n, len(gens.t.edges)) == (148, 257)
    assert _sha256(fileformat.write(gens)) == S3_EXTRACT_SHA256
    cprime, report = st.build_combing(gens, o)
    assert report.cprime_states == 24
    assert str(report) == S3_REPORT
    assert _sha256(fileformat.write(cprime)) == S3_CPRIME_SHA256


@pytest.mark.parametrize("cap, fails", [(328, True), (329, False)])
def test_s3_tail_guard_threshold(monkeypatch, cap, fails):
    """The S₃ build's tail walk of the inversion closure holds 329 states:
    its root and 164 in each half.  The guard fails the build past the cap,
    and it counts those states whichever half it walks."""
    gens, o = s3_extract()
    monkeypatch.setattr(st, "DEFAULT_BALL_CAP", cap)
    if fails:
        with pytest.raises(RuntimeError, match=f"tail search exceeded {cap} states"):
            st.build_combing(gens, o)
    else:
        _cprime, report = st.build_combing(gens, o)
        assert str(report) == S3_REPORT


def test_build_leaves_no_adjacency_on_its_input():
    """The S₃ extract is trimmed and has no (ε,ε) cycle, so the build's
    half is the input's transducer; the adjacency lists its walks cache
    must not outlive the build on it."""
    gens, o = s3_extract()
    assert td.strip_epsilon_cycles(td.trim(gens.t)) is gens.t
    st.build_combing(gens, o)
    assert gens.t._adj is None
    assert gens.t._comp is None


def _record_products(monkeypatch, o) -> list:
    """The (element, letter) of every mul_right that o makes from now on."""
    products = []
    mul_right = o.mul_right

    def recorded(e, letter):
        products.append((e, letter))
        return mul_right(e, letter)

    monkeypatch.setattr(o, "mul_right", recorded)
    return products


def test_tail_walk_multiplies_once_per_class_and_letter(monkeypatch):
    """The tail walk reads its letter products off a step table filled on
    first use, so it makes at most one mul_right per class and letter: 19
    on the S₃ extract, whose core is empty, where a product on every edge
    walked made 173, and 1 on the README's ℤ generators, whose tails leave
    a core."""
    gens, s3 = s3_extract()
    z = AbelianOracle(AB2, 1, {"a": [1], "b": [0]})
    for t, o, want in ((gens.t, s3, 19), (z_generators().t, z, 1)):
        half = td.strip_epsilon_cycles(td.trim(t))
        core_v, core_e = st.core_subgraph(half)
        products = _record_products(monkeypatch, o)
        st._tail_classes(half, core_v, core_e, o)
        assert len(products) == len(set(products)) == want


def test_z2_extract_same_in_every_process():
    """The extracts' texts must not depend on the process: before Python
    3.12, hash(None) follows the object's address, so any id that follows
    the iteration order of a set of edges with epsilon labels would vary.
    Each process prints the ℤ² extract and the digest of the ℤ³ one."""
    src = str(Path(combings.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "from combings import fileformat\n"
        "from test_golden import _sha256, z2_extract, z3_extract\n"
        "sys.stdout.write(fileformat.write(z2_extract()[0]))\n"
        "sys.stdout.write(_sha256(fileformat.write(z3_extract()[0])))\n"
    )
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        outs.append(run.stdout)
    assert outs == [Z2_EXTRACT + Z3_EXTRACT_SHA256] * 2
