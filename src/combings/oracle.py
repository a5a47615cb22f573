"""Group oracles: free, free abelian, and finite groups given by a table.

An oracle maps letters of an inverse-closed alphabet to group elements,
multiplies and inverts elements, and answers distance and ball queries
about the Cayley graph over those images.  Elements are small hashable
values (reduced tuples, integer vectors, table indices), so they can key
dictionaries in the searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from .words import Alphabet, Word

DEFAULT_BALL_CAP = 200_000


class CapExceeded(RuntimeError):
    """A ball or distance search grew past its element cap."""


class GroupOracle:
    """Common interface; concrete behavior lives in the subclasses."""

    alphabet: Alphabet

    def identity_element(self) -> Hashable:
        raise NotImplementedError

    def letter_element(self, letter: int) -> Hashable:
        raise NotImplementedError

    def mul_right(self, e: Hashable, letter: int) -> Hashable:
        raise NotImplementedError

    def mul_left(self, letter: int, e: Hashable) -> Hashable:
        raise NotImplementedError

    def inv_element(self, e: Hashable) -> Hashable:
        raise NotImplementedError

    def mul(self, e: Hashable, f: Hashable) -> Hashable:
        """The product e·f of two elements."""
        raise NotImplementedError

    def distance_from_identity(self, e: Hashable) -> Optional[int]:
        """The word-metric distance of e from the identity; None means e lies
        outside the image, or past the ball cap where a ball is searched."""
        raise NotImplementedError

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

    def mul_right(self, e, letter: int):
        if e and e[-1] == self.alphabet.inv[letter]:
            return e[:-1]
        return e + (letter,)

    def mul_left(self, letter: int, e):
        if e and e[0] == self.alphabet.inv[letter]:
            return e[1:]
        return (letter,) + e

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
        self.alphabet = alphabet
        self.rank = rank
        vecs: list[Optional[tuple[int, ...]]] = [None] * len(alphabet)
        for sym, vec in weights.items():
            v = tuple(int(c) for c in vec)
            if len(v) != rank:
                raise ValueError(f"weight for {sym} has length {len(v)}, want {rank}")
            vecs[alphabet.index(sym)] = v
        for i in range(len(alphabet)):
            j = alphabet.inv[i]
            if vecs[i] is None and vecs[j] is not None:
                vecs[i] = tuple(-c for c in vecs[j])
        for i in range(len(alphabet)):
            if vecs[i] is None:
                raise ValueError(f"no weight given for letter {alphabet.symbols[i]}")
            j = alphabet.inv[i]
            if vecs[i] != tuple(-c for c in vecs[j]):
                raise ValueError(
                    f"weights of {alphabet.symbols[i]} and {alphabet.symbols[j]} "
                    "are not negatives of each other"
                )
        self.weights: tuple[tuple[int, ...], ...] = tuple(vecs)  # type: ignore[arg-type]
        # With every weight zero or a signed unit vector ±e_i, the word
        # metric is the L1 norm, and the axes no weight reaches lie outside
        # the image.
        self._l1 = all(sum(map(abs, v)) <= 1 for v in self.weights)
        self._off_axes = tuple(i for i in range(rank) if not any(v[i] for v in self.weights))
        self._dist: dict[tuple[int, ...], Optional[int]] = {}
        self._dist_radius = -1
        self._frontier: list[tuple[int, ...]] = []  # the ball's last level

    def identity_element(self):
        return (0,) * self.rank

    def letter_element(self, letter: int):
        return self.weights[letter]

    def mul_right(self, e, letter: int):
        w = self.weights[letter]
        return tuple(a + b for a, b in zip(e, w))

    mul_left = lambda self, letter, e: self.mul_right(e, letter)  # abelian

    def inv_element(self, e):
        return tuple(-c for c in e)

    def mul(self, e, f):
        return tuple(a + b for a, b in zip(e, f))

    def distance_from_identity(self, e) -> Optional[int]:
        """The word-metric distance.  Unless the L1 norm applies, it is read
        off a cached breadth-first ball, None once that ball outgrows
        DEFAULT_BALL_CAP elements without e; each level adds an element, as a
        weight of L1 norm >= 2 generates an infinite image."""
        if self._l1:
            # _dist memoizes the queries here; None marks an element outside
            # the image
            if e not in self._dist:
                self._dist[e] = None if any(e[i] for i in self._off_axes) else sum(map(abs, e))
        else:
            while e not in self._dist and len(self._dist) <= DEFAULT_BALL_CAP:
                self._grow_dist_ball()
        return self._dist.get(e)

    def _grow_dist_ball(self):
        r = self._dist_radius
        if r < 0:
            self._frontier = [self.identity_element()]
            self._dist = {self._frontier[0]: 0}
            self._dist_radius = 0
            return
        nxt = []
        for e in self._frontier:
            for letter in range(len(self.alphabet)):
                f = self.mul_right(e, letter)
                if f not in self._dist:
                    self._dist[f] = r + 1
                    nxt.append(f)
        self._frontier = nxt
        self._dist_radius = r + 1


class FiniteOracle(GroupOracle):
    """A finite group by its full multiplication table; element 0 is the
    identity.  table[g][h] = g*h."""

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
        imgs: list[Optional[int]] = [None] * len(alphabet)
        for sym, g in letter_images.items():
            if not 0 <= g < n:
                raise ValueError(f"letter {sym} maps to {g}, out of range")
            imgs[alphabet.index(sym)] = g
        for i in range(len(alphabet)):
            j = alphabet.inv[i]
            if imgs[i] is None and imgs[j] is not None:
                imgs[i] = self.inverse[imgs[j]]
        for i in range(len(alphabet)):
            if imgs[i] is None:
                raise ValueError(f"no image given for letter {alphabet.symbols[i]}")
            j = alphabet.inv[i]
            if imgs[i] != self.inverse[imgs[j]]:
                raise ValueError(
                    f"images of {alphabet.symbols[i]} and {alphabet.symbols[j]} "
                    "are not mutually inverse"
                )
        self.letter_images: tuple[int, ...] = tuple(imgs)  # type: ignore[arg-type]
        self._dist = dist = ball(self, n).dist
        # Light's associativity test: the elements g with (a·g)·b = a·(g·b)
        # for all a, b are closed under products, so checking the letter
        # images and the elements they do not reach covers the whole table.
        t = self.table
        for g in set(self.letter_images) | (set(range(n)) - set(dist)):
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

    def mul_right(self, e, letter: int):
        return self.table[e][self.letter_images[letter]]

    def mul_left(self, letter: int, e):
        return self.table[self.letter_images[letter]][e]

    def inv_element(self, e):
        return self.inverse[e]

    def mul(self, e, f):
        return self.table[e][f]

    def distance_from_identity(self, e) -> Optional[int]:
        return self._dist.get(e)


@dataclass
class CayleyBall:
    """The radius-k ball around the identity: distances and shortlex-least
    representative words, both keyed in discovery (shortlex) order."""

    oracle: GroupOracle
    radius: int
    dist: dict = field(repr=False)
    rep: dict = field(repr=False)

    def __contains__(self, e) -> bool:
        return e in self.dist

    def __len__(self) -> int:
        return len(self.dist)


def ball(o: GroupOracle, k: int) -> CayleyBall:
    """Breadth-first ball of radius k.  Processing the queue in shortlex
    order of the discovery words makes each representative shortlex-least.
    Raises CapExceeded past DEFAULT_BALL_CAP elements."""
    if k < 0:
        raise ValueError("radius must be nonnegative")
    e0 = o.identity_element()
    empty = o.alphabet.empty_word()
    dist = {e0: 0}
    rep = {e0: empty}
    frontier = [(e0, empty)]
    nletters = len(o.alphabet)
    for r in range(1, k + 1):
        nxt = []
        for e, w in frontier:
            for letter in range(nletters):
                f = o.mul_right(e, letter)
                if f not in dist:
                    dist[f] = r
                    w2 = Word(o.alphabet, w.indices + (letter,))
                    rep[f] = w2
                    nxt.append((f, w2))
                    if len(dist) > DEFAULT_BALL_CAP:
                        raise CapExceeded(
                            f"ball of radius {k} exceeded the cap of {DEFAULT_BALL_CAP} elements; "
                            "use a smaller radius"
                        )
        frontier = nxt
    return CayleyBall(o, k, dist, rep)


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
