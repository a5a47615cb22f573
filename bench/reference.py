"""Inputs and reference checks computed without the combings library.

Everything here works on plain data: letter indices, edge triples and
multiplication tables.  The checks read only the public attributes of the
automata the library returns (``n``, ``edges``, ``initial``, ``terminals``)
and never call a library function, so a defect in the library cannot hide
itself by also breaking its own verification.
"""

from __future__ import annotations

import random
from collections import deque

# ------------------------------------------------------------------ alphabets


def pair_order(npairs: int, rng: random.Random | None) -> list[tuple[str, str]]:
    """The generator pairs ``a A``, ``b B``, ... in a seed-chosen order.

    Permuting the pairs and swapping the two letters of a pair is an
    automorphism of a free abelian group, so every order gives an isomorphic
    shortlex combing and the same amount of work.  Without a generator the
    order is the natural one."""
    pairs = [(chr(ord("a") + i), chr(ord("A") + i)) for i in range(npairs)]
    if rng is None:
        return pairs
    rng.shuffle(pairs)
    return [(y, x) if rng.random() < 0.5 else (x, y) for x, y in pairs]


def symbols(pairs: list[tuple[str, str]]) -> list[str]:
    return [s for pair in pairs for s in pair]


def shortlex_abelian_edges(npairs: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Shortlex normal forms of ℤ^r over an alphabet listing the pairs in
    order: g1^e1 g2^e2 ... with each power spelled by one letter.  State 0
    is the start and state 1 + i has just read letter i; every state is
    terminal.  For r = 2 this is the README's automaton."""
    n = 1 + 2 * npairs
    edges = []
    for i in range(2 * npairs):
        edges.append((0, i, 1 + i))
        for j in range(2 * npairs):
            if j == i or j // 2 > i // 2:
                edges.append((1 + i, j, 1 + j))
    return n, edges


def shortlex_abelian_words(pair_letters: list[tuple[int, int]], maxlen: int) -> set[tuple]:
    """All shortlex normal forms of length <= maxlen for the letter pairs
    (positive, negative) listed in order."""
    out = {()}
    for pos, neg in pair_letters:
        grown = set(out)
        for w in out:
            for letter in (pos, neg):
                for k in range(1, maxlen - len(w) + 1):
                    grown.add(w + (letter,) * k)
        out = grown
    return out


# -------------------------------------------------------------- finite groups


def perm_table(gens: list[tuple[int, ...]]) -> tuple[list[list[int]], list[int]]:
    """Multiplication table of the permutation group generated by gens,
    elements numbered in discovery order with the identity as 0, and the
    element numbers of the generators.  (g*h)(k) = g(h(k))."""
    m = len(gens[0])
    ident = tuple(range(m))
    elems = [ident]
    index = {ident: 0}
    i = 0
    while i < len(elems):
        g = elems[i]
        i += 1
        for s in gens:
            h = tuple(g[s[k]] for k in range(m))
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    table = [[index[tuple(g[h[k]] for k in range(m))] for h in elems] for g in elems]
    return table, [index[s] for s in gens]


def relabel(table: list[list[int]], images: list[int], rng: random.Random):
    """The same group with its non-identity elements renumbered at random."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    new_of = [0] + rest
    out = [[0] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            out[new_of[g]][new_of[h]] = new_of[table[g][h]]
    return out, [new_of[x] for x in images]


def cyclic(n: int, rng: random.Random | None):
    """ℤ/n generated by one unit k; seed 0 takes k = 1."""
    units = [k for k in range(1, n) if _gcd(k, n) == 1]
    k = 1 if rng is None else rng.choice(units)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return table, [k]


def dihedral(n: int, rng: random.Random | None):
    """D_n acting on n points, generated by a rotation and a reflection.
    The seed applies an automorphism r -> r^k, s -> r^j s."""
    k, j = 1, 0
    if rng is not None:
        k = rng.choice([u for u in range(1, n) if _gcd(u, n) == 1])
        j = rng.randrange(n)
    rot = tuple((i + k) % n for i in range(n))
    ref = tuple((j - i) % n for i in range(n))
    return perm_table([rot, ref])


def symmetric(n: int, rng: random.Random | None):
    """S_n generated by a transposition and an n-cycle.  The seed conjugates
    both by a random permutation, an automorphism of S_n."""
    pi = list(range(n))
    if rng is not None:
        rng.shuffle(pi)
    inv = [0] * n
    for i, x in enumerate(pi):
        inv[x] = i
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    conj = lambda s: tuple(pi[s[inv[k]]] for k in range(n))  # noqa: E731
    return perm_table([conj(transposition), conj(cycle)])


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def letter_images(table: list[list[int]], gens: list[int]) -> list[int]:
    """Images of the letters x1 X1 x2 X2 ...: each generator, then its inverse."""
    inverse = {g: h for g in range(len(table)) for h in range(len(table)) if table[g][h] == 0}
    out = []
    for g in gens:
        out += [g, inverse[g]]
    return out


def shortlex_trie(table: list[list[int]], images: list[int]) -> tuple[int, list, int]:
    """The shortlex-least words of every group element as a trie automaton:
    state = element (in discovery order), all states terminal.  Returns
    (number of states, edges, diameter of the Cayley graph)."""
    ids = {0: 0}
    depth = [0]
    edges = []
    queue = deque([0])
    while queue:
        g = queue.popleft()
        for letter, x in enumerate(images):
            h = table[g][x]
            if h not in ids:
                ids[h] = len(ids)
                depth.append(depth[ids[g]] + 1)
                edges.append((ids[g], letter, ids[h]))
                queue.append(h)
    if len(ids) != len(table):
        raise ValueError("the letters do not generate the group")
    return len(ids), edges, max(depth)


# ------------------------------------------------------------- word languages


def accepted_words(aut, maxlen: int | None = None) -> tuple[list[tuple], bool]:
    """Accepted words of an automaton, as letter-index tuples, by a level
    search over state sets that keeps only states that can still accept.

    With maxlen the search stops there.  Without it the search runs until
    no word can be extended; the second result is False when some word of
    length >= n (the number of states) can still be extended to an accepted
    word, which means the language is infinite."""
    adj: list[list] = [[] for _ in range(aut.n)]
    radj: list[list] = [[] for _ in range(aut.n)]
    for s, x, d in aut.edges:
        adj[s].append((x, d))
        radj[d].append(s)
    live = set(aut.terminals)
    stack = list(live)
    while stack:
        for p in radj[stack.pop()]:
            if p not in live:
                live.add(p)
                stack.append(p)

    def close(states):
        seen = set(states)
        todo = list(states)
        while todo:
            for x, q in adj[todo.pop()]:
                if x is None and q not in seen:
                    seen.add(q)
                    todo.append(q)
        return frozenset(seen & live)

    limit = aut.n if maxlen is None else maxlen
    words = []
    frontier = {(): close([aut.initial])}
    length = 0
    while frontier:
        nxt: dict[tuple, set] = {}
        for w, states in frontier.items():
            if states & aut.terminals:
                words.append(w)
            if length == limit:
                continue
            for p in states:
                for x, q in adj[p]:
                    if x is not None:
                        nxt.setdefault(w + (x,), set()).add(q)
        if length == limit:
            return words, maxlen is not None
        frontier = {w: c for w, s in nxt.items() if (c := close(s))}
        length += 1
    return words, True


def check_finite_combing(words: list[tuple], finite: bool, table: list[list[int]], images: list[int]) -> list[str]:
    """Exact check that an automaton's language, as accepted_words returned
    it, is a prefix-closed combing with uniqueness of the finite group:
    finite, prefix-closed, every element the value of exactly one member,
    no member with a subword that evaluates to the identity.  Returns the
    problems found."""
    if not finite:
        return ["the language is infinite"]
    problems = []
    members = set(words)
    hit: dict[int, tuple] = {}
    for w in words:
        if w and w[:-1] not in members:
            problems.append(f"prefix of member {w} is missing")
        prefix = [0]
        for letter in w:
            prefix.append(table[prefix[-1]][images[letter]])
        if len(set(prefix)) != len(prefix):
            problems.append(f"member {w} has a subword equal to the identity")
        g = prefix[-1]
        if g in hit:
            problems.append(f"members {hit[g]} and {w} both evaluate to element {g}")
        hit[g] = w
    if len(hit) != len(table):
        problems.append(f"members reach {len(hit)} of {len(table)} elements")
    return problems[:5]


def longest(words: list[tuple]) -> int:
    return max((len(w) for w in words), default=0)

