"""Linear languages presented by transducers.

A transducer accepting pairs (u,v) presents one of two word languages:
mode "reversal" gives {u·vʳ} and mode "inverse" gives {u·v⁻¹}.  Members
are the concatenated words as written, with no free reduction applied.
"""

from __future__ import annotations

from typing import Optional

from . import nfa as nfa_mod
from . import transducer as td
from .nfa import Nfa
from .transducer import TEdge, Transducer
from .words import Word, invert_word, shortlex_key

MODES = ("inverse", "reversal")


class LinearLanguage:
    __slots__ = ("t", "mode")

    def __init__(self, t: Transducer, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
        self.t = t
        self.mode = mode

    def __repr__(self) -> str:
        return f"LinearLanguage({self.mode}, {self.t!r})"


def member(l: LinearLanguage, w: Word) -> bool:
    """Membership: w = u·v⁻¹ (or u·vʳ) for an accepted pair exactly when some
    successful path reads a prefix of w on the first tape and a prefix of
    w⁻¹ (or wʳ) on the second, |w| letters in all."""
    v = invert_word(w) if l.mode == "inverse" else w[::-1]
    return td._pair_path(l.t, w, v, len(w)) is not None


def intersect_regular(l: LinearLanguage, r: Nfa) -> LinearLanguage:
    """Intersect with a regular language, staying linear.

    The trimmed regular side splits per vertex p into (X_p, Y_p) with
    R = ∪ X_p·Y_p, and the transduction is intersected with each rectangle
    X_p × Y_p', where Y_p' holds the second-tape counterpart of Y_p
    (inverses of members in inverse mode, reversals in reversal mode); the
    union of the rectangles is the answer.  X_p is r with terminal p, and
    Y_p' is the reversed r with terminal p, so all rectangles share one
    product: its states (t-state, r-state, r'-state) are built once, and
    rectangle p is that product trimmed to the terminals (t-terminal, p, p).
    The shared product holds only the states that can still reach one of
    those terminals, found as one bit set of r'-states per (t-state,
    r-state) pair (see _rectangle_product); every state a trim keeps is
    among them, in the same relative order, so the trims number it alike.
    Only the answer is built as a transducer: each product hands the next
    stage its rows, and the rectangles are trimmed and united straight from
    the last one's explored edges (nfa._trim_union).  _intersect is this
    construction on a transducer graph that is not built as an automaton.
    """
    if l.t.alphabet != r.alphabet:
        raise ValueError("different alphabets")
    t = l.t
    return LinearLanguage(_intersect(t.adjacency(), t.initial, t.terminals, r, l.mode), l.mode)


def _intersect(rows, initial: int, terminals, r: Nfa, mode: str) -> Transducer:
    """The transducer of intersect_regular for the transducer graph given by
    its adjacency() rows, initial vertex and terminals, over r's alphabet."""
    r = nfa_mod.trim(r)
    keys, edges, split_at = _rectangle_product(rows, initial, terminals, r, mode)
    term_sets: list[list[int]] = [[] for _ in range(r.n)]
    for i, (f, q) in enumerate(keys):
        if split_at[f] == q:
            term_sets[q].append(i)
    graph = nfa_mod._trim_union(Transducer, len(keys), edges, 0, term_sets, explored=True)
    return nfa_mod._trimmed(Transducer(r.alphabet, *graph))


def _rectangle_product(
    rows, initial: int, terminals, r: Nfa, mode: str
) -> tuple[list[tuple[int, int]], list[TEdge], list[Optional[int]]]:
    """The product of intersect_regular for a trimmed r and a transducer
    graph given by its adjacency() rows, initial vertex and terminals: the
    keys (first-product state, r'-state) and edges _explore_side returns,
    vertex 0 initial, and, per first-product state, the r-state p it splits
    at when its t-state is terminal (else None).

    The first product restricts tape 0 to r and hands its rows on.  The
    second restricts tape 1 of it to r' and is explored only on the pairs
    from which a rectangle terminal (f, p) with split_at[f] == p can be
    reached, plus the initial pair.  A backward worklist over the first
    product's in-edges finds them as one bit set of r'-states per
    first-product state; since every predecessor of such a pair is one
    too, the forward search still meets them in the order the full product
    would number them."""
    y_side = nfa_mod.inverse_lang(r) if mode == "inverse" else nfa_mod.reverse(r)
    first_keys, first_edges = td._explore_side(rows, initial, r, 0)
    first = nfa_mod._adjacency(len(first_keys), first_edges, Transducer.label_key)
    split_at = [q if p in terminals else None for p, q in first_keys]
    targets = [(f, q) for f, q in enumerate(split_at) if q is not None]
    live = td._coreachable_masks(first, y_side, 1, targets)
    keys, edges = td._explore_side(first, 0, y_side, 1, live)
    return keys, edges, split_at


def invert_linear(l: LinearLanguage) -> LinearLanguage:
    """The language {w : w⁻¹ in L}, for inverse-mode presentations.

    Swapping the tapes does it: a pair (u,v) becomes (v,u), whose member
    v·u⁻¹ is exactly (u·v⁻¹)⁻¹.
    """
    if l.mode != "inverse":
        raise ValueError("inversion is defined for the u·v⁻¹ convention only")
    swapped = nfa_mod.relabel(l.t, lambda lab: (lab[1], lab[0]))
    return LinearLanguage(swapped, "inverse")


def enumerate_members(l: LinearLanguage, maxlen: int) -> list[Word]:
    """All members of length <= maxlen, shortlex sorted, duplicates removed.
    A member's length is |u| + |v|, so bounded pair enumeration is exact."""
    seen: set[Word] = set()
    for u, v in td.enumerate_pairs(l.t, maxlen):
        if l.mode == "inverse":
            w = u + invert_word(v)
        else:
            w = u + v[::-1]
        seen.add(w)
    return sorted(seen, key=shortlex_key)
