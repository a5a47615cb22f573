"""Group oracles: free, free abelian, and finite groups given by a table.

An oracle maps letters of an inverse-closed alphabet to group elements,
multiplies and inverts elements, and answers distance and ball queries
about the Cayley graph over those images.  Elements are small hashable
values (reduced tuples, integer vectors, table indices), so they can key
dictionaries in the searches.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Hashable, Optional, Sequence

from .words import Alphabet, Word

DEFAULT_BALL_CAP = 200_000


class CapExceeded(RuntimeError):
    """A ball or distance search grew past its element cap."""


class LetterError(ValueError):
    """A letter's value is not the inverse of its inverse letter's; symbol
    is the one of the two given last."""

    def __init__(self, msg: str, symbol: str):
        super().__init__(msg)
        self.symbol = symbol


class GroupOracle:
    """Common interface.  A subclass defines four operations,
    identity_element, letter_element, inv_element and mul; the letter
    products and the default distance and ball searches derive from them."""

    alphabet: Alphabet

    def identity_element(self) -> Hashable:
        raise NotImplementedError

    def letter_element(self, letter: int) -> Hashable:
        raise NotImplementedError

    def inv_element(self, e: Hashable) -> Hashable:
        raise NotImplementedError

    def mul(self, e: Hashable, f: Hashable) -> Hashable:
        """The product e·f of two elements."""
        raise NotImplementedError

    def mul_right(self, e: Hashable, letter: int) -> Hashable:
        """The product e·a of an element and a letter's image."""
        return self.mul(e, self.letter_element(letter))

    def mul_left(self, letter: int, e: Hashable) -> Hashable:
        """The product a·e of a letter's image and an element."""
        return self.mul(self.letter_element(letter), e)

    def distance_from_identity(self, e: Hashable) -> Optional[int]:
        """The word-metric distance of e from the identity, read off a cached
        breadth-first ball grown a level at a time until it holds e.  None
        means the ball stopped growing without e, so e lies outside the
        image, or it holds more than DEFAULT_BALL_CAP elements."""
        bl = self._ball
        while e not in bl.dist and bl._last and len(bl) <= DEFAULT_BALL_CAP:
            bl.grow()
        return bl.dist.get(e)

    @cached_property
    def _ball(self) -> CayleyBall:
        return CayleyBall(self)

    def _letter_values(self, given: dict, value: Callable, noun: str, relation: str) -> tuple:
        """One value per letter: value(symbol, v) for each given symbol, in
        the order given, then the inverse of its inverse letter's value for
        a letter left out.  Raises ValueError for a letter still without a
        value, or LetterError for one whose value is not the inverse of its
        inverse letter's."""
        a = self.alphabet
        vals: list = [None] * len(a)
        for sym, v in given.items():
            vals[a.index(sym)] = value(sym, v)  # value() runs before index()
        for i in range(len(a)):
            j = a.inv[i]
            if vals[i] is None and vals[j] is not None:
                vals[i] = self.inv_element(vals[j])
        for i in range(len(a)):
            if vals[i] is None:
                raise ValueError(f"no {noun} given for letter {a.symbols[i]}")
            j = a.inv[i]
            if vals[i] != self.inv_element(vals[j]):
                later = next(s for s in reversed(given) if s in (a.symbols[i], a.symbols[j]))
                raise LetterError(f"{noun}s of {a.symbols[i]} and {a.symbols[j]} are not {relation}", later)
        return tuple(vals)

    def element(self, w: Word) -> Hashable:
        if w.alphabet != self.alphabet:
            raise ValueError("word over a different alphabet")
        e = self.identity_element()
        for i in w.indices:
            e = self.mul_right(e, i)
        return e


class FreeOracle(GroupOracle):
    """The free group on the positive letters; elements are reduced tuples."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def identity_element(self):
        return ()

    def letter_element(self, letter: int):
        return (letter,)

    def inv_element(self, e):
        inv = self.alphabet.inv
        return tuple(inv[i] for i in reversed(e))

    def mul(self, e, f):
        inv = self.alphabet.inv
        out = list(e)
        for i in f:
            if out and out[-1] == inv[i]:
                out.pop()
            else:
                out.append(i)
        return tuple(out)

    def distance_from_identity(self, e) -> Optional[int]:
        return len(e)


class AbelianOracle(GroupOracle):
    """Free abelian group of a given rank; letters carry integer weight
    vectors, with weight(x^-1) = -weight(x)."""

    def __init__(self, alphabet: Alphabet, rank: int, weights: dict[str, Sequence[int]]):
        if rank < 0:
            raise ValueError(f"rank {rank} is negative")
        self.alphabet = alphabet
        self.rank = rank

        def weight(sym, vec):
            v = tuple(int(c) for c in vec)
            if len(v) != rank:
                raise ValueError(f"weight for {sym} has length {len(v)}, want {rank}")
            return v

        self.weights = self._letter_values(weights, weight, "weight", "negatives of each other")
        # With every weight zero or a signed unit vector ±e_i, the word
        # metric is the L1 norm, and the axes no weight reaches lie outside
        # the image.
        self._l1 = all(sum(map(abs, v)) <= 1 for v in self.weights)
        self._off_axes = tuple(i for i in range(rank) if not any(v[i] for v in self.weights))
        self._dist: dict[tuple[int, ...], Optional[int]] = {}

    def identity_element(self):
        return (0,) * self.rank

    def letter_element(self, letter: int):
        return self.weights[letter]

    def inv_element(self, e):
        return tuple(-c for c in e)

    def mul(self, e, f):
        return tuple(a + b for a, b in zip(e, f))

    def distance_from_identity(self, e) -> Optional[int]:
        """The L1 norm where it is the word metric; otherwise the ball
        search of GroupOracle, whose ball adds an element at every level, as
        a weight of L1 norm >= 2 generates an infinite image."""
        if not self._l1:
            return GroupOracle.distance_from_identity(self, e)
        # _dist memoizes the queries; None marks an element outside the image
        if e not in self._dist:
            self._dist[e] = None if any(e[i] for i in self._off_axes) else sum(map(abs, e))
        return self._dist.get(e)


class FiniteOracle(GroupOracle):
    """A finite group by its full multiplication table; element 0 is the
    identity.  table[g][h] = g*h.  Distances are read off the whole ball,
    built here for the associativity test."""

    def __init__(self, alphabet: Alphabet, table: Sequence[Sequence[int]], letter_images: dict[str, int]):
        self.alphabet = alphabet
        n = len(table)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        for g, row in enumerate(self.table):
            if len(row) != n:
                raise ValueError(f"table row {g} has length {len(row)}, want {n}")
            for h in row:
                if not 0 <= h < n:
                    raise ValueError(f"table entry {h} out of range")
        for g in range(n):
            if self.table[0][g] != g or self.table[g][0] != g:
                raise ValueError("element 0 is not an identity for the table")
        inverse = []
        for g in range(n):
            two_sided = [h for h in range(n) if self.table[g][h] == 0 == self.table[h][g]]
            if not two_sided:
                raise ValueError(f"element {g} has no two-sided inverse in the table")
            inverse.append(two_sided[0])
        self.inverse = tuple(inverse)

        def image(sym, g):
            if not 0 <= g < n:
                raise ValueError(f"letter {sym} maps to {g}, out of range")
            return g

        self.letter_images = self._letter_values(letter_images, image, "image", "mutually inverse")
        self._ball = ball(self, n)
        # Light's associativity test: the elements g with (a·g)·b = a·(g·b)
        # for all a, b are closed under products, so checking the letter
        # images and the elements they do not reach covers the whole table.
        t = self.table
        for g in set(self.letter_images) | (set(range(n)) - set(self._ball.dist)):
            col = [t[g][b] for b in range(n)]
            for a in range(n):
                ta, tag = t[a], t[t[a][g]]
                if any(tag[b] != ta[c] for b, c in enumerate(col)):
                    raise ValueError(
                        f"the table is not associative: ({a}·{g})·b differs from {a}·({g}·b)"
                    )

    def identity_element(self):
        return 0

    def letter_element(self, letter: int):
        return self.letter_images[letter]

    def inv_element(self, e):
        return self.inverse[e]

    def mul(self, e, f):
        return self.table[e][f]


class CayleyBall:
    """The ball around the identity, grown a level at a time: distances and
    shortlex-least representative words, both keyed in discovery (shortlex)
    order.  A level records only each new element's parent link; the
    representatives are spelled out when rep is read."""

    def __init__(self, oracle: GroupOracle):
        self.oracle = oracle
        self.radius = 0
        e0 = oracle.identity_element()
        self.dist = {e0: 0}
        self._via: list = []  # (element, its parent, letter) for each element not in _rep
        self._rep = {e0: oracle.alphabet.empty_word()}
        self._last = [e0]  # the outermost level in discovery order, empty once growth stops

    def __contains__(self, e) -> bool:
        return e in self.dist

    def __len__(self) -> int:
        return len(self.dist)

    def grow(self) -> None:
        """Add the next level; scanning the last one in discovery order, and
        the letters in order, makes each parent link shortlex-least."""
        o, dist, via = self.oracle, self.dist, self._via
        r = self.radius = self.radius + 1
        letters = range(len(o.alphabet))
        nxt = []
        for e in self._last:
            for letter in letters:
                f = o.mul_right(e, letter)
                if f not in dist:
                    dist[f] = r
                    via.append((f, e, letter))
                    nxt.append(f)
        self._last = nxt

    @property
    def rep(self) -> dict:
        """The shortlex-least representative word of each element, keyed in
        discovery order; _via is in that order, so a parent is spelled first."""
        rep, a = self._rep, self.oracle.alphabet
        for f, e, letter in self._via:
            rep[f] = Word(a, rep[e].indices + (letter,))
        self._via.clear()
        return rep


def ball(o: GroupOracle, k: int) -> CayleyBall:
    """Breadth-first ball of radius k, k levels of CayleyBall.grow; raises
    CapExceeded after a level that takes it past DEFAULT_BALL_CAP elements."""
    if k < 0:
        raise ValueError("radius must be nonnegative")
    bl = CayleyBall(o)
    for _ in range(k):
        bl.grow()
        if len(bl) > DEFAULT_BALL_CAP:
            raise CapExceeded(
                f"ball of radius {k} exceeded the cap of {DEFAULT_BALL_CAP} elements; "
                "use a smaller radius"
            )
    return bl


def ft_distance(o: GroupOracle, mode: str, u: Word, v: Word, cap: int = 64) -> Optional[int]:
    """Fellow-traveler distance between the paths spelled by u and v.

    sync: the words advance in lockstep and the shorter one stalls at its
    end; the value is the max over positions i of d(u(i), v(i)).
    async: the least k admitting a monotone staircase through the prefix
    grid from (0,0) to (|u|,|v|), with steps right, down or diagonal, that
    keeps every visited prefix pair within distance k.  Diagonal steps are
    what makes every synchronous schedule a valid asynchronous one.

    Returns None when the value would exceed cap.  This is the one place a
    distance meets the cap: sync stops at the first distance past it, and
    async compares the grid's last cell with it once.
    """
    if u.alphabet != o.alphabet or v.alphabet != o.alphabet:
        raise ValueError("words over a different alphabet")
    inv = o.alphabet.inv
    if mode == "sync":
        delta = o.identity_element()
        worst = 0
        for i in range(max(len(u), len(v))):
            if i < len(u):
                delta = o.mul_left(inv[u.indices[i]], delta)
            if i < len(v):
                delta = o.mul_right(delta, v.indices[i])
            d = o.distance_from_identity(delta)
            if d is None or d > cap:
                return None
            worst = max(worst, d)
        return worst
    if mode != "async":
        raise ValueError(f"mode must be 'sync' or 'async', not {mode!r}")
    # One pass over the prefix grid, row i holding the prefix differences
    # u(i)^-1·v(j): a cell's value is the least largest distance over the
    # staircases that reach it, max(d(i,j), min(left, up, diagonal)).  A
    # cell outside the image counts as cap + 1, and so does the border
    # outside the grid, except the diagonal predecessor of (0,0), which is 0.
    over = cap + 1
    prev = [0] + [over] * (len(v) + 1)  # prev[j + 1] is the cell above (i, j)
    start = o.identity_element()
    for i in range(len(u) + 1):
        if i:
            start = o.mul_left(inv[u.indices[i - 1]], start)
        delta, row = start, [over]
        for j in range(len(v) + 1):
            if j:
                delta = o.mul_right(delta, v.indices[j - 1])
            d = o.distance_from_identity(delta)
            row.append(max(over if d is None else d, min(row[j], prev[j], prev[j + 1])))
        prev = row
    return prev[-1] if prev[-1] <= cap else None
