"""Combing checks, generator extraction, and combing construction.

The two directions of the correspondence live here: extract_generators
produces, from a combing C of a group G = F/N, a linear language of
freely reduced normal generators of N; build_combing goes the other way,
producing from such a language (with significant letters) a regular
prefix-closed combing with uniqueness.
"""

from __future__ import annotations

import copy
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_
from typing import Optional

from . import nfa as nfa_mod
from . import transducer as td
from .linear import LinearLanguage, _intersect, invert_linear
from .nfa import Nfa
from .oracle import DEFAULT_BALL_CAP, CayleyBall, GroupOracle, ball, ft_distance
from .transducer import Transducer
from .words import Word, invert_word, shortlex_key

# Sample sizes and caps of the sampled stages (see build_combing and
# ft_bound_of_combing).
SIG_SAMPLE_LEN = 8  # |u| + |v| of the pairs searched for significant letters
FT_SAMPLE_LEN = 6  # member length of the fellow-traveler samples of a build
FT_CAP = 64  # largest fellow-traveler distance ft_bound_of_combing measures
FT_MAX_MEMBERS = 2000  # members ft_bound_of_combing pairs up, shortlex first
UPTO_PAIRS = 60  # sampled pairs whose marked letter's edge is checked off-core


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector, and resume it on exit only if it
    ran on entry, also when the body raises.  Extract and build allocate
    large acyclic graphs that each collection would rescan for nothing;
    reference counting still frees everything they drop."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------- significant


@dataclass(frozen=True)
class SigWord:
    """A freely reduced nonempty word with a marked letter (1-based)."""

    word: Word
    sig: int

    def __post_init__(self):
        if len(self.word) == 0:
            raise ValueError("empty word cannot carry a significant letter")
        if not self.word.is_freely_reduced():
            raise ValueError(f"word {self.word} is not freely reduced")
        if not 1 <= self.sig <= len(self.word):
            raise ValueError(f"position {self.sig} outside word of length {len(self.word)}")

    def inverse(self) -> "SigWord":
        return SigWord(invert_word(self.word), len(self.word) + 1 - self.sig)


@dataclass
class SigViolation:
    left: SigWord
    right: SigWord
    reduced: Word
    cancelled: str  # "left", "right" or "both"

    def __str__(self) -> str:
        where = "both sides" if self.cancelled == "both" else f"{self.cancelled} side"
        return (
            f"product {self.left.word}·{self.right.word} reduces to "
            f"{str(self.reduced) or 'ε'} and cancels the marked letter "
            f"({where})"
        )


def _violation(s1: SigWord, s2: SigWord) -> Optional[SigViolation]:
    """The violation in the product s1·s2, or None when both marked letters
    survive its free reduction or the product reduces to the empty word."""
    a, b = s1.word, s2.word
    m, n = len(a), len(b)
    inv = a.alphabet.inv
    t = 0  # length of the block cancelled at the junction
    while t < m and t < n and a.indices[m - 1 - t] == inv[b.indices[t]]:
        t += 1
    if t == m and t == n:
        return None  # the product collapses entirely; allowed
    hit_left = s1.sig > m - t
    hit_right = s2.sig <= t
    if not (hit_left or hit_right):
        return None
    which = "both" if (hit_left and hit_right) else ("left" if hit_left else "right")
    return SigViolation(s1, s2, a[: m - t] + b[t:], which)


def check_significant(sample: list[SigWord]) -> Optional[SigViolation]:
    """Check the marked letters over every ordered product of sample words.

    A marked letter must survive free reduction of w1·w2 unless the product
    reduces to the empty word.  The sample is first completed with the
    mirrored marks on the inverses, which covers all sign combinations of
    the products.  Returns None on success or the first violation found.
    """
    items = list(sample)
    present = {sw.word for sw in items}
    for sw in sample:
        iw = sw.inverse()
        if iw.word not in present:
            items.append(iw)
            present.add(iw.word)
    for s1 in items:
        for s2 in items:
            viol = _violation(s1, s2)
            if viol is not None:
                return viol
    return None


def _common_prefix(u: tuple, v: tuple) -> int:
    n = 0
    for x, y in zip(u, v):
        if x != y:
            break
        n += 1
    return n


def search_significant(words: list[Word]) -> Optional[list[SigWord]]:
    """A significant-letter assignment for the words, or None when none
    exists.  Returns marks for the input words in order.

    The block cancelled in y·w is the longest common prefix of y^-1 and w,
    and the words seen by the check are closed under inversion.  So a mark
    p on w survives every product exactly when lo(w) <= p <= hi(w), where
    lo(w) is 1 + the longest prefix w shares with another word of the
    closed set and hi(w) is |w| minus that prefix length for w^-1 (the
    full collapse w·w^-1 is exempt).  In sorted order a word's longest
    common prefix with any other word is one it shares with a neighbour.
    Each orbit {w, w^-1} takes, on its first word, the position nearest
    the center inside [lo, hi], the left one on a tie, and mirrors it.
    """
    for w in words:
        if len(w) == 0 or not w.is_freely_reduced():
            raise ValueError(f"word {str(w) or 'ε'} is not freely reduced and nonempty")
    uniq = list(dict.fromkeys(words))
    closed = sorted({t for w in uniq for t in (w.indices, invert_word(w).indices)})
    shared = dict.fromkeys(closed, 0)
    for u, v in zip(closed, closed[1:]):
        k = _common_prefix(u, v)
        shared[u] = max(shared[u], k)
        shared[v] = max(shared[v], k)
    marks: dict[Word, SigWord] = {}
    for w in uniq:
        if w in marks:
            continue
        iw = invert_word(w)
        lo, hi = 1 + shared[w.indices], len(w) - shared[iw.indices]
        if lo > hi:
            return None
        marks[w] = SigWord(w, min(max((len(w) + 1) // 2, lo), hi))
        marks[iw] = marks[w].inverse()
    return [marks[w] for w in uniq]


# ------------------------------------------------------------------- central


@dataclass
class CentralReport:
    max_distance: Fraction
    max_ratio: Fraction
    witness: Optional[SigWord]
    k: Optional[int] = None
    passed: Optional[bool] = None

    def __str__(self) -> str:
        head = f"max center distance {self.max_distance}, max ratio {self.max_ratio}"
        if self.passed is None:
            return head + " (informational)"
        verdict = "pass" if self.passed else "FAIL"
        return f"{head}; k={self.k}: {verdict}"


def check_central(sample: list[SigWord], k: Optional[int] = None) -> CentralReport:
    """How far the marked letters sit from the word centers.

    With k, decides max distance <= k on the sample.  Without k the report
    is informational only; a bounded sample can never certify asymptotic
    centrality.
    """
    from .words import center_distance

    worst = Fraction(0)
    worst_ratio = Fraction(0)
    witness = None
    for sw in sample:
        d = center_distance(sw.word, sw.sig)
        if d > worst:
            worst, witness = d, sw
        r = Fraction(d, len(sw.word))
        worst_ratio = max(worst_ratio, r)
    rep = CentralReport(worst, worst_ratio, witness)
    if k is not None:
        rep.k = k
        rep.passed = worst <= k
    return rep


# ----------------------------------------------------------- combing checking


@dataclass
class CombingReport:
    ball_radius: int
    maxlen: int
    members: int
    ball_size: int
    prefix_closed: bool
    unique: bool
    surjective: bool
    no_identity_subwords: bool
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.prefix_closed and self.unique and self.surjective and self.no_identity_subwords

    def __str__(self) -> str:
        flags = []
        for name in ("prefix_closed", "unique", "surjective", "no_identity_subwords"):
            flags.append(f"{name}={'ok' if getattr(self, name) else 'FAIL'}")
        s = (
            f"combing check (radius {self.ball_radius}, maxlen {self.maxlen}, "
            f"{self.members} members): " + ", ".join(flags)
        )
        for v in self.violations:
            s += f"\n  witness: {v}"
        return s


def check_combing(c: Nfa, o: GroupOracle, ball_radius: int, maxlen: int) -> CombingReport:
    """Bounded verification that L(c) is a prefix-closed combing with
    uniqueness: every prefix of an enumerated member is accepted, every
    ball element is hit exactly once by enumerated members, and no
    nonempty subword of a member is oracle-trivial.  Each failed flag
    comes with a concrete witness.  A negative maxlen is refused."""
    if maxlen < 0:
        raise ValueError(f"maxlen must be nonnegative, not {maxlen}")
    members = nfa_mod.enumerate_words(c, maxlen)
    mset = set(members)
    violations: list[str] = []

    prefix_closed = True
    for w in members:
        for i in range(len(w)):
            if w[:i] not in mset:
                prefix_closed = False
                violations.append(f"prefix {str(w[:i]) or 'ε'} of member {w} is not accepted")
                break
        if not prefix_closed:
            break

    bl = ball(o, ball_radius)
    hit: dict = {}
    unique = True
    for w in members:
        e = o.element(w)
        if e not in bl:
            continue
        if e in hit and unique:
            unique = False
            violations.append(
                f"members {str(hit[e]) or 'ε'} and {str(w) or 'ε'} define the same element"
            )
        hit.setdefault(e, w)
    surjective = True
    for e in bl.dist:
        if e not in hit:
            surjective = False
            violations.append(
                f"ball element with representative {str(bl.rep[e]) or 'ε'} "
                f"is hit by no member of length <= {maxlen}"
            )
            break

    no_identity_subwords = True
    for w in members:
        if not no_identity_subwords:
            break
        prefix_elems = [o.identity_element()]
        for i in w.indices:
            prefix_elems.append(o.mul_right(prefix_elems[-1], i))
        index_of: dict = {}
        for j, e in enumerate(prefix_elems):
            if e in index_of:
                i = index_of[e]
                no_identity_subwords = False
                violations.append(f"subword {w[i:j]} of member {w} defines the identity")
                break
            index_of[e] = j

    return CombingReport(
        ball_radius=ball_radius,
        maxlen=maxlen,
        members=len(members),
        ball_size=len(bl),
        prefix_closed=prefix_closed,
        unique=unique,
        surjective=surjective,
        no_identity_subwords=no_identity_subwords,
        violations=violations,
    )


def ft_bound_of_combing(c: Nfa, o: GroupOracle, mode: str, maxlen: int) -> Optional[int]:
    """Empirical fellow-traveler bound: the max ft_distance over enumerated
    member pairs whose images lie at distance <= 1 in the group.  Sampled:
    only the first FT_MAX_MEMBERS members up to length maxlen are paired.
    None when some pair exceeds FT_CAP (no bound established).

    Cost: one element lookup per member and letter (the images at distance
    <= 1 from e are e and e·ā), then ft_distance on each adjacent pair."""
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be 'sync' or 'async', not {mode!r}")
    if maxlen < 0:
        raise ValueError(f"maxlen must be nonnegative, not {maxlen}")
    members = nfa_mod.enumerate_words(c, maxlen)[:FT_MAX_MEMBERS]
    elems = [o.element(w) for w in members]
    at: dict = {}
    for i, e in enumerate(elems):
        at.setdefault(e, []).append(i)
    steps = [o.letter_element(a) for a in range(len(o.alphabet))]
    worst = 0
    for i, e in enumerate(elems):
        near = set(at[e])
        for s in steps:
            near.update(at.get(o.mul(e, s), ()))
        for j in sorted(near):
            if j <= i:
                continue
            f = ft_distance(o, mode, members[i], members[j], FT_CAP)
            if f is None:
                return None
            worst = max(worst, f)
    return worst


# --------------------------------------------------------------- core + tails


def core_subgraph(t: Transducer) -> tuple[frozenset[int], frozenset]:
    """Vertices and edges of t from which some cycle is reachable.

    The complement contains no cycles and receives no edges back into the
    core, so every successful path is a core prefix followed by a short
    acyclic tail.  The core is what a backward search finds from the
    components of t's components() that hold a cycle, and it is empty at
    once when there is none, as in every build over a finite table.
    """
    cyclic = t.components()[1]
    if not cyclic:
        return frozenset(), frozenset()
    core = frozenset(nfa_mod._search(nfa_mod._arrows(t.n, t.edges, False), chain.from_iterable(cyclic)))
    return core, frozenset(e for e in t.edges if e[2] in core)


def _closure_pairs(t: Transducer, max_total: int) -> list[tuple[Word, Word]]:
    """enumerate_pairs of the inversion closure t ∪ t⁻¹, in its order: the
    pairs of t and their swaps, which t⁻¹ accepts."""
    pairs = td.enumerate_pairs(t, max_total)
    both = set(pairs) | {(v, u) for u, v in pairs}
    return sorted(both, key=lambda p: (p[0].indices, p[1].indices))


def _closure_sizes(t: Transducer, core_v: frozenset[int], core_e) -> tuple[int, int, int, int]:
    """Vertices, edges, core vertices and core edges of the inversion
    closure t ∪ t⁻¹ of a trimmed t.  The closure is a root with ε edges to
    t and to its tape swap, which has t's graph.  The root has no in-edges,
    and it reaches t's core exactly when that core is nonempty."""
    core = (2 * len(core_v) + 1, 2 * len(core_e) + 2) if core_v else (0, 0)
    return (1 + 2 * t.n, 2 + 2 * len(t.edges)) + core


def _core_projections(t: Transducer, core_v: frozenset[int], core_e) -> Nfa:
    """C0 before minimizing: the first-tape projection of the core of the
    inversion closure t ∪ t⁻¹, every state terminal.  The closure's root
    lies in its core exactly when t's core is nonempty, and the core of t⁻¹
    is t's core read on the second tape, so this is the union of the two
    projections of t's core, left in t's numbering: the caller minimizes
    it, and minimize yields one automaton per language.  t is trimmed, so
    its initial vertex is in a nonempty core.  An empty core yields the
    one-word language {ε}."""
    if not core_v:
        return Nfa(t.alphabet, 1, [], 0, [0])
    tapes = [
        Nfa(t.alphabet, t.n, [(s, lab[tape], d) for s, lab, d in core_e], t.initial, core_v)
        for tape in (0, 1)
    ]
    return nfa_mod.union_all(tapes)


def _tail_classes(t: Transducer, core_v: frozenset[int], core_e, o: GroupOracle) -> set:
    """Group classes of the word tails that successful paths of the
    inversion closure t ∪ t⁻¹ append beyond its core, read off t alone.

    A tail is a prefix of x1·y1^-1 where (x1, y1) labels an off-core path
    suffix.  The first-tape prefixes are collected exactly.  The mixed
    prefixes combine each accepting tail state with the second-tape head
    classes seen among its ancestors; that still over-approximates (heads
    of merging paths mix), which only enlarges the candidate set.

    The walk's states are (vertex, x-class id, y-class id) over a step
    table, as _pair_product reads its moves: nexts[c][x] is the id of class
    c times letter x, multiplied once per class and letter on first use,
    and nexts[c][None] is c.  t⁻¹ is t with the tapes swapped, so its
    states are t's with the two classes swapped, and one walk of t gives
    both halves' classes.  The closure's walk has twice as many states,
    plus its root when the core is empty, and it fails past
    DEFAULT_BALL_CAP of them; the guard counts the same way.
    """
    e0 = o.identity_element()
    root = 0 if core_v else 1  # the closure's walk starts at its root without a core
    elems = [e0]
    ids = {e0: 0}
    nexts: list[dict] = [{None: 0}]

    def to(c: int, x) -> int:
        if x not in nexts[c]:
            e = o.mul_right(elems[c], x)
            if e not in ids:
                ids[e] = len(elems)
                elems.append(e)
                nexts.append({None: ids[e]})
            nexts[c][x] = ids[e]
        return nexts[c][x]

    # states (vertex, x-class id, y-class id), each with its predecessor states
    if core_v:
        starts = {(d, to(0, x), to(0, y)) for s, (x, y), d in t.edges if s in core_v and d not in core_v}
    else:
        starts = {(t.initial, 0, 0)}
    pred: dict[tuple, list[tuple]] = {key: [] for key in starts}
    stack = list(pred)
    adj = t.adjacency()
    while stack:
        if 2 * len(pred) + root > DEFAULT_BALL_CAP:
            raise RuntimeError(
                f"tail search exceeded {DEFAULT_BALL_CAP} states; the off-core part is too wide"
            )
        key = stack.pop()
        v, cx, cy = key
        nx, ny = nexts[cx], nexts[cy]
        for _v, (x, y), q in adj[v]:
            nxt = (q, nx[x] if x in nx else to(cx, x), ny[y] if y in ny else to(cy, y))
            if nxt in pred:
                pred[nxt].append(key)
            else:
                pred[nxt] = [key]
                stack.append(nxt)

    # The x- and y-head classes on the way to each state, its own among
    # them, as bit sets of class ids, in one pass that takes predecessors
    # first: off the core every vertex is a component of its own, and a
    # successor's component closes, and is numbered, first.
    comp = t.components()[0]
    heads: dict[tuple, tuple[int, int]] = {}
    for key in sorted(pred, key=lambda key: -comp[key[0]]):
        hx, hy = 1 << key[1], 1 << key[2]
        for p in pred[key]:
            hx |= heads[p][0]
            hy |= heads[p][1]
        heads[key] = hx, hy

    classes = {e0}
    for _v, cx, cy in pred:
        classes.add(elems[cx])
        classes.add(elems[cy])
    for fkey, (hx, hy) in heads.items():
        fv, fx, fy = fkey
        if fv in t.terminals:
            # t's tail with its y-heads, then t⁻¹'s, whose y-heads are t's x-heads
            for ex, ey, bits in ((fx, fy, hy), (fy, fx, hx)):
                base = o.mul(elems[ex], o.inv_element(elems[ey]))
                bits |= 1  # the identity, class 0
                while bits:
                    low = bits & -bits
                    classes.add(o.mul(base, elems[low.bit_length() - 1]))
                    bits ^= low
    return classes


# ----------------------------------------------------------------- extraction


def _pair_product(c: Nfa, o: GroupOracle, bl: CayleyBall):
    """Reachable product of a word automaton without ε edges with itself
    and a Cayley-ball tracker: states (p, q, h) with h the class of u^-1·v
    for the prefixes u and v read so far.  Returns the state list and the
    edges over it, vertex 0 initial, as _explore does.  The walk keys a
    state by the int (p·|C| + q)·|ball| + (ball id of h), over moves read
    once per state of C.  Each move x^-1·h·y is read off a row built the
    first time the walk reaches h, mapping each letter x of c or ε, then
    each letter y of c or ε with x^-1·h·y in the ball, to the label (x, y),
    one tuple shared by every edge, and the ball id of x^-1·h·y; x^-1·h
    itself may lie outside the ball."""
    inv = c.alphabet.inv
    adj = c.adjacency()
    elems = list(bl.dist)
    nb, nc = len(elems), c.n
    ids = {e: i for i, e in enumerate(elems)}
    xs = [None, *{e[1] for e in c.edges}]
    labels = {(x, y): (x, y) for x in xs for y in xs}  # one tuple per label
    rows: list[Optional[dict]] = [None] * nb

    def row(h: int) -> dict:
        out = rows[h] = {}
        for x in xs:
            e = elems[h] if x is None else o.mul_left(inv[x], elems[h])
            out[x] = ends = {}
            for y in xs[1:] if x is None else xs:  # every move reads a letter
                h2 = ids.get(e if y is None else o.mul_right(e, y))
                if h2 is not None:
                    ends[y] = labels[x, y], h2
        return out

    # per state of C: its letter moves, then staying put, as (letter, the
    # target's share of a key) on the first tape and on the second
    xmoves = [[(x, p2 * nc * nb) for _p, x, p2 in adj[p]] + [(None, p * nc * nb)] for p in range(nc)]
    ymoves = [[(y, q2 * nb) for _q, y, q2 in adj[q]] + [(None, q * nb)] for q in range(nc)]

    def moves(key):
        pq, h = divmod(key, nb)
        steps = rows[h] or row(h)
        ys = ymoves[pq % nc]
        out = []
        for x, pbase in xmoves[pq // nc]:
            ends = steps[x]
            for y, qbase in ys:
                move = ends.get(y)
                if move is not None:
                    out.append((move[0], pbase + qbase + move[1]))
        return out

    keys, edges = nfa_mod._explore((c.initial * nc + c.initial) * nb + ids[o.identity_element()], moves)
    return [(key // nb // nc, key // nb % nc, elems[key % nb]) for key in keys], edges


@_cyclic_gc_paused()
def extract_generators(c: Nfa, o: GroupOracle, ft_bound: int) -> LinearLanguage:
    """From a combing C, the linear language {u·a·v^-1 : u,v in C, ū·ā = v̄,
    freely reduced}, whose members normally generate the kernel.

    Built per letter a as the C × C pair product over the radius-ft_bound
    Cayley ball, accepting at terminal × terminal × (class of a), with the
    pair (a, ε) appended; the union over letters is intersected with the
    nonempty freely reduced words.  One chain of explored graphs builds
    only the transducer it returns: each letter's tail, an (ε,ε) edge from
    each of its terminals to a fresh vertex and an (a, ε) edge on to
    another, is added to the pair product's explored edges;
    nfa._trim_union trims the result to each tail's last vertex and unites
    the pieces in one pass; and the rows of that union go straight into
    intersect_regular's products (linear._intersect).  Complete for pairs
    that asynchronously fellow-travel within ft_bound; garbage in, garbage
    out when c is not actually a combing.  An oracle over another alphabet
    than c's is refused before anything is built.  The cyclic garbage
    collector is paused while it runs (_cyclic_gc_paused).
    """
    if c.alphabet != o.alphabet:
        raise ValueError("the combing and the oracle are over different alphabets")
    c = nfa_mod.remove_epsilon(nfa_mod.trim(c))
    bl = ball(o, ft_bound)
    statelist, edges = _pair_product(c, o, bl)
    alphabet = c.alphabet
    n = len(statelist)
    # letter class -> the states pairing two terminals of C at it
    ends: dict = {o.letter_element(a): [] for a in range(len(alphabet))}
    for i, (p, q, h) in enumerate(statelist):
        if h in ends and p in c.terminals and q in c.terminals:
            ends[h].append(i)
    term_sets = []
    for a in range(len(alphabet)):
        terms = ends[o.letter_element(a)]
        if terms:
            edges.extend((i, (None, None), n) for i in terms)
            edges.append((n, (a, None), n + 1))
            term_sets.append([n + 1])
            n += 2
    n, edges, initial, terms = nfa_mod._trim_union(Transducer, n, edges, 0, term_sets, explored=True)
    del statelist  # free the product before the rectangle product peaks
    rows = nfa_mod._adjacency(n, edges, Transducer.label_key)
    del edges
    reduced = nfa_mod.freely_reduced_lang(alphabet, include_empty=False)
    return LinearLanguage(_intersect(rows, initial, terms, reduced, "inverse"), "inverse")


# --------------------------------------------------------------- construction


@dataclass
class BuildReport:
    K: int
    vertices: int
    edges: int
    core_vertices: int
    core_edges: int
    c0_states: int
    ft_empirical: Optional[int]
    ft_used: int
    suffix_bound: str
    x_candidates: int
    x_kept: list[str]
    ball_radius: int
    product_states: int
    upto_ok: bool
    balanced_cycles: Optional[bool]
    c0_contained: bool
    cprime_states: int
    cprime_ft_sync: Optional[int] = None
    # the shared subset product's vertices and the total size of their
    # subsets, 0 when no candidate needs it; not printed
    subset_vertices: int = 0
    subset_elements: int = 0
    warnings: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [
            f"K={self.K} (vertices {self.vertices}, edges {self.edges})",
            f"core: {self.core_vertices} vertices, {self.core_edges} edges; "
            f"C0 has {self.c0_states} states",
            f"fellow-traveler bound: empirical {self.ft_empirical}, "
            f"used {self.ft_used}",
            f"suffix bound {self.suffix_bound!r}; {self.x_candidates} candidates, "
            f"kept {len(self.x_kept)}: {self.x_kept}",
            f"cayley ball radius {self.ball_radius}; product {self.product_states} states",
            f"upto check: {'ok' if self.upto_ok else 'VIOLATED'}; "
            f"balanced cycles: {self.balanced_cycles}; "
            f"C0 contained in C': {self.c0_contained}",
            f"C' has {self.cprime_states} states",
        ]
        if self.cprime_ft_sync is not None:
            lines.append(f"C' synchronous ft bound (sampled): {self.cprime_ft_sync}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _check_upto(t: Transducer, core_e, pairs, marks: dict) -> tuple[bool, str]:
    """Sampled check that the edge carrying each significant letter lies
    off-core in the inversion closure t ∪ t⁻¹, given t and its core edges.
    Only the first UPTO_PAIRS pairs are walked; path recovery on a large
    transducer is the expensive part.  With an empty core, as for every
    finite group, no edge can carry a letter on-core, so neither the
    closure nor a path is built."""
    if not core_e:
        return True, ""
    t = nfa_mod.union(t, invert_linear(LinearLanguage(t, "inverse")).t)
    _core_v, core_e = core_subgraph(t)
    for u, v in pairs[:UPTO_PAIRS]:
        w = u + invert_word(v)
        sw = marks.get(w)
        if sw is None:
            continue
        path = td._pair_path(t, u, v, len(u) + len(v))
        if path is None:
            continue
        sig = sw.sig
        if sig <= len(u):
            want_tape, want_count = 0, sig
        else:
            want_tape, want_count = 1, len(v) - (sig - len(u)) + 1
        count = 0
        hit = None
        for edge in path:
            lab = edge[1][want_tape]
            if lab is not None:
                count += 1
                if count == want_count:
                    hit = edge
                    break
        if hit is not None and hit in core_e:
            return False, (
                f"significant letter of {w} (position {sig}) is carried by a core edge"
            )
    return True, ""


def _shared_difference(c0: Nfa, statelist, prod_edges):
    """DFA(C0) times the subset construction of the first tape of the pair
    product, given by its states and edges, shared by every suffix
    candidate x.  Returns (n, edges, bit, masks, elements): bit gives a bit
    of its own to each class h of a pair-product state (p, q, h) with p and
    q terminal in C0, masks maps each vertex where C0 accepts to the bits
    of such classes in its subset, and elements is the total size of the n
    subsets.  C0 minus N_x is this automaton accepting where the mask
    misses the bits of x's dset."""
    proj = Nfa(c0.alphabet, len(statelist), [(s, lab[0], d) for s, lab, d in prod_edges], 0, [])
    edges, c0_accepts, subsets = nfa_mod._subset_product(c0, proj)
    ends = c0.terminals
    end_hs = {h for p, q, h in statelist if p in ends and q in ends}
    bit = {h: 1 << i for i, h in enumerate(end_hs)}
    end_bit = [bit[h] if p in ends and q in ends else 0 for p, q, h in statelist]
    masks = {
        i: reduce(or_, map(end_bit.__getitem__, sub), 0)
        for i, (acc, sub) in enumerate(zip(c0_accepts, subsets))
        if acc
    }
    return len(subsets), edges, bit, masks, sum(map(len, subsets))


@_cyclic_gc_paused()
def build_combing(
    l: LinearLanguage, o: GroupOracle, central: bool = False, margin: int = 2
) -> tuple[Nfa, BuildReport]:
    """Construct a regular prefix-closed combing with uniqueness from a
    linear language of freely reduced normal generators with significant
    letters.

    The construction works on the language closed under inversion,
    t = L ∪ L⁻¹, a root with ε edges to L and to its tape swap.  Every
    stage reads t off the half L = strip(trim(l.t)) instead, since the
    swap has L's graph; t is built only for the upto check, and only when
    the core has an edge.  The half is analysed once: the balance check,
    the core and the tail walk read its cached adjacency() and components().

    Stages: trim the language and strip its (ε,ε) cycles; sample the
    members of t to confirm significant letters exist; check that the
    cycles are balanced; split off the core (the cycle-supported part) and
    project the first tape of t's core into the prefix-closed C0; measure
    an empirical fellow-traveler bound for C0 and add the margin; collect
    t's off-core tail classes to bound the suffix candidates X
    (shortlex-least class representatives); then for each x in X remove
    from C0 the starts r for which some shortlex-smaller y and some s in
    C0 satisfy r̄·x̄ = s̄·ȳ, witnessed inside the Cayley-ball product of C0
    with itself, and append x to what survives.  The union of the
    surviving pieces, each trimmed, is C'.

    These stages sample rather than decide: the significant letters are
    searched on the pairs with |u| + |v| <= SIG_SAMPLE_LEN, and the upto
    check walks the first UPTO_PAIRS of them; the fellow-traveler bounds of
    C0 and, for a central build, of C' are ft_bound_of_combing over members
    up to length FT_SAMPLE_LEN (at most FT_MAX_MEMBERS, distances up to
    FT_CAP).

    The tail radius, the largest distance of a tail class from the
    identity, is asked of the oracle without a cap: a tail class is always
    in the image, so only a non-L1 abelian oracle searches, growing its
    cached ball until the class appears, and a class beyond
    DEFAULT_BALL_CAP elements fails the build.  A negative margin is
    refused before any stage runs, and so is an oracle over another
    alphabet than the language's.  The cyclic garbage collector is paused
    while it runs (_cyclic_gc_paused).
    """
    if l.mode != "inverse":
        raise ValueError("build_combing expects the u·v^-1 convention")
    if l.t.alphabet != o.alphabet:
        raise ValueError("the generator language and the oracle are over different alphabets")
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, not {margin}")
    alphabet = l.t.alphabet
    warnings: list[str] = []

    half = td.strip_epsilon_cycles(td.trim(l.t))
    if not half.terminals:
        raise ValueError(
            "the generator language is empty: the group is free on the images "
            "of the alphabet and there is nothing to construct"
        )
    if half is l.t:
        # the stages below cache adjacency lists and components on the
        # automaton they read; a shallow copy keeps them off the caller's
        half = copy.copy(half)

    pairs = _closure_pairs(half, SIG_SAMPLE_LEN)
    members = []
    seen_members = set()
    for u, v in pairs:
        w = u + invert_word(v)
        if w in seen_members:
            continue
        seen_members.add(w)
        if len(w) == 0:
            raise ValueError("the generator language contains the empty word")
        if not w.is_freely_reduced():
            raise ValueError(f"generator {w} is not freely reduced")
        members.append(w)
    assignment = search_significant(members) if members else []
    if assignment is None:
        centered = [SigWord(w, (len(w) + 1) // 2) for w in members]
        viol = check_significant(centered)
        raise ValueError(
            "no significant-letter assignment exists for the sampled members; "
            f"for the centered marks: {viol}"
        )
    marks = {sw.word: sw for sw in assignment}

    balanced = td.check_balanced_cycles(half)
    if central and not balanced:
        raise ValueError(
            "central construction requires every cycle to read tapes of "
            "equal length, and some cycle is unbalanced"
        )

    core_v, core_e = core_subgraph(half)
    upto_ok, upto_note = _check_upto(half, core_e, pairs, marks)
    if not upto_ok:
        warnings.append(upto_note)

    c0 = nfa_mod.minimize(_core_projections(half, core_v, core_e))
    mode = "sync" if central else "async"
    ft_emp = ft_bound_of_combing(c0, o, mode, FT_SAMPLE_LEN)
    if ft_emp is None:
        raise ValueError(
            f"no empirical fellow-traveler bound within cap {FT_CAP}; "
            "the core prefixes do not fellow-travel"
        )
    k_used = ft_emp + margin

    tail_classes = _tail_classes(half, core_v, core_e, o)
    radius = 0
    for cls in tail_classes:
        d = o.distance_from_identity(cls)
        if d is None:
            raise RuntimeError(
                f"a tail class lies outside the {DEFAULT_BALL_CAP}-element distance ball"
            )
        radius = max(radius, d)
    # A breadth-first ball gives an element the same shortlex-least
    # representative at every radius that holds it, so the suffix
    # candidates, all of length <= radius, come from the product's ball.
    radius_r = k_used + 2 * radius
    bl_r = ball(o, radius_r)
    m_word = max((bl_r.rep[cls] for cls in tail_classes), key=shortlex_key)
    key_m = shortlex_key(m_word)
    xs = sorted(
        (w for w in bl_r.rep.values() if shortlex_key(w) <= key_m),
        key=shortlex_key,
    )

    # C0 is minimal: trimmed, and without the ε edges the pair product forbids
    statelist, prod_edges = _pair_product(c0, o, bl_r)
    reach_h = {h for (_p, _q, h) in statelist}

    x_elems = [(x, o.element(x)) for x in xs]
    pieces = []
    kept: list[str] = []
    shared = None  # built at the first nonempty dset
    for i, (x, ex) in enumerate(x_elems):
        dset = set()
        for y, ey in x_elems[:i]:
            diff = o.mul(ex, o.inv_element(ey))
            if diff in reach_h:
                dset.add(diff)
        if dset:
            if shared is None:
                shared = _shared_difference(c0, statelist, prod_edges)
            n, edges, bit, masks, _elements = shared
            dmask = sum(bit.get(h, 0) for h in dset)
            terms = [j for j, m in masks.items() if not m & dmask]
            # every vertex of the shared product is reachable
            cx = nfa_mod._trimmed(Nfa(alphabet, *nfa_mod._trim_union(Nfa, n, edges, 0, [terms], explored=True)))
        else:
            cx = c0  # minimal, so trimmed
        if cx.terminals:
            pieces.append(nfa_mod.concat(cx, nfa_mod.from_word(alphabet, x)))
            kept.append(str(x) or "ε")
    if not pieces:
        raise RuntimeError("no suffix candidate survived; input is not as expected")
    cprime = nfa_mod.union_all(pieces)

    c0_contained = nfa_mod.is_empty_language(nfa_mod.difference(c0, cprime))
    if not c0_contained:
        warnings.append("C0 is not contained in C'")

    vertices, t_edges, core_vertices, core_edges = _closure_sizes(half, core_v, core_e)
    report = BuildReport(
        K=vertices + t_edges + 1,
        vertices=vertices,
        edges=t_edges,
        core_vertices=core_vertices,
        core_edges=core_edges,
        c0_states=c0.n,
        ft_empirical=ft_emp,
        ft_used=k_used,
        suffix_bound=str(m_word) or "ε",
        x_candidates=len(xs),
        x_kept=kept,
        ball_radius=radius_r,
        product_states=len(statelist),
        upto_ok=upto_ok,
        balanced_cycles=balanced,
        c0_contained=c0_contained,
        cprime_states=cprime.n,
        subset_vertices=shared[0] if shared else 0,
        subset_elements=shared[4] if shared else 0,
        warnings=warnings,
    )
    if central:
        report.cprime_ft_sync = ft_bound_of_combing(cprime, o, "sync", FT_SAMPLE_LEN)
    return cprime, report
