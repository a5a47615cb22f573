"""Text format for automata, transducers, linear languages, and oracles.

One object per file.  Every file opens with an `alphabet` line and the
`inverse` pairing lines, then a kind line (`nfa`, `transducer`,
`linear inverse`, `linear reversal`, or `oracle free|abelian|finite`),
then the body.  `#` starts a comment; tokens are whitespace-separated;
`-` stands for epsilon in edge labels.  Writers renumber vertices
breadth-first and sort edges, so output is byte-stable.
"""

from __future__ import annotations

from typing import Union

from .linear import LinearLanguage
from .nfa import Nfa, renumber_bfs
from .oracle import AbelianOracle, FiniteOracle, FreeOracle, GroupOracle, LetterError
from .transducer import Transducer
from .words import Alphabet

Parsed = Union[Nfa, Transducer, LinearLanguage, GroupOracle]

# The largest state count a file may declare.  Constructions that take an
# automaton allocate per state before they read a single edge, so a count
# far beyond any edge list is refused here, where the line is known.
MAX_STATES = 10_000_000


class FormatError(ValueError):
    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


def _rows(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line.split()))
    return out


class _Cursor:
    def __init__(self, rows):
        self.rows = rows
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else (0, [])

    def take(self):
        row = self.peek()
        self.pos += 1
        return row

    def done(self) -> bool:
        return self.pos >= len(self.rows)


def _int(lineno: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(lineno, f"{what} must be an integer, got {tok!r}") from None


def _number_line(cur: _Cursor, key: str, what: str, positive: bool = False) -> tuple[int, int]:
    """The line number and the integer of the next line, which must read
    `key <integer>`."""
    lineno, toks = cur.take()
    if len(toks) != 2 or toks[0] != key:
        article = "an" if key[0] in "aeiou" else "a"
        raise FormatError(lineno or 1, f"expected {article} {key} line")
    n = _int(lineno, toks[1], what)
    if positive and n <= 0:
        raise FormatError(lineno, f"{what} must be positive")
    return lineno, n


def _parse_alphabet(cur: _Cursor) -> Alphabet:
    lineno, toks = cur.take()
    if not toks or toks[0] != "alphabet":
        raise FormatError(lineno or 1, "expected an alphabet line first")
    symbols = toks[1:]
    if not symbols:
        raise FormatError(lineno, "alphabet line lists no letters")
    pairs = []
    while not cur.done() and cur.peek()[1][0] == "inverse":
        lineno, toks = cur.take()
        if len(toks) != 3:
            raise FormatError(lineno, "inverse line takes exactly two letters")
        pairs.append((toks[1], toks[2]))
    try:
        return Alphabet(symbols, pairs)
    except ValueError as e:
        raise FormatError(lineno, str(e)) from None


def _label(lineno: int, alphabet: Alphabet, tok: str):
    if tok == "-":
        return None
    try:
        return alphabet.index(tok)
    except ValueError:
        raise FormatError(lineno, f"unknown letter {tok!r}") from None


def _parse_machine(cur: _Cursor, alphabet: Alphabet, nlabels: int):
    """Shared body for nfa (1 label per edge) and transducer (2 labels)."""
    lineno, n = _number_line(cur, "states", "state count", positive=True)
    if n > MAX_STATES:
        raise FormatError(lineno, f"state count {n} exceeds the limit {MAX_STATES}")

    lineno, initial = _number_line(cur, "initial", "initial state")
    if not 0 <= initial < n:
        raise FormatError(lineno, f"initial vertex {initial} out of range")

    lineno, toks = cur.take()
    if not toks or toks[0] != "final":
        raise FormatError(lineno or 1, "expected a final line")
    finals = [_int(lineno, tok, "final state") for tok in toks[1:]]
    for t in finals:
        if not 0 <= t < n:
            raise FormatError(lineno, f"terminal vertex {t} out of range")

    edges = []
    while not cur.done():
        lineno, toks = cur.take()
        if toks[0] != "edge":
            raise FormatError(lineno, f"unexpected line {toks[0]!r} in edge section")
        if len(toks) != 3 + nlabels:
            raise FormatError(
                lineno, f"edge line takes source, {nlabels} label(s), and target"
            )
        src = _int(lineno, toks[1], "edge source")
        dst = _int(lineno, toks[-1], "edge target")
        labels = [_label(lineno, alphabet, tok) for tok in toks[2:-1]]
        lab = labels[0] if nlabels == 1 else tuple(labels)
        if not (0 <= src < n and 0 <= dst < n):
            raise FormatError(lineno, f"edge ({src},{lab},{dst}) out of range")
        edges.append((src, lab, dst))
    if nlabels == 1:
        return Nfa(alphabet, n, edges, initial, finals)
    return Transducer(alphabet, n, edges, initial, finals)


def _parse_oracle(cur: _Cursor, alphabet: Alphabet, kind_lineno: int, toks: list[str]):
    if len(toks) != 2:
        raise FormatError(kind_lineno, "oracle line takes one kind")
    kind = toks[1]
    if kind == "free":
        if not cur.done():
            raise FormatError(cur.peek()[0], "oracle free takes no body")
        return FreeOracle(alphabet)
    if kind == "abelian":
        lineno, rank = _number_line(cur, "rank", "rank")
        if rank < 0:
            raise FormatError(lineno, f"rank {rank} is negative")
        weights, lines = {}, {}
        while not cur.done():
            lineno, toks = cur.take()
            if toks[0] != "weight":
                raise FormatError(lineno, f"unexpected line {toks[0]!r} in oracle body")
            if len(toks) != 2 + rank:
                raise FormatError(lineno, f"weight line takes a letter and {rank} integers")
            if toks[1] in weights:
                raise FormatError(lineno, f"weight {toks[1]} given twice")
            weights[toks[1]] = [_int(lineno, t, "weight entry") for t in toks[2:]]
            lines[toks[1]] = lineno
        cls, body = AbelianOracle, (rank, weights)
    elif kind == "finite":
        lineno, count = _number_line(cur, "elements", "element count", positive=True)
        letters, lines = {}, {}
        while not cur.done() and cur.peek()[1][0] == "letter":
            lineno, toks = cur.take()
            if len(toks) != 3:
                raise FormatError(lineno, "letter line takes a letter and an element")
            if toks[1] in letters:
                raise FormatError(lineno, f"letter {toks[1]} given twice")
            letters[toks[1]] = g = _int(lineno, toks[2], "letter image")
            lines[toks[1]] = lineno
            if not 0 <= g < count:
                raise FormatError(lineno, f"letter {toks[1]} maps to {g}, out of range")
        table = []
        while not cur.done():
            lineno, toks = cur.take()
            if toks[0] != "table":
                raise FormatError(lineno, f"unexpected line {toks[0]!r} in oracle body")
            row = [_int(lineno, t, "table entry") for t in toks[1:]]
            if len(row) != count:
                raise FormatError(lineno, f"table row {len(table)} has length {len(row)}, want {count}")
            for h in row:
                if not 0 <= h < count:
                    raise FormatError(lineno, f"table entry {h} out of range")
            table.append(row)
        if len(table) != count:
            raise FormatError(lineno, f"expected {count} table rows, got {len(table)}")
        cls, body = FiniteOracle, (table, letters)
    else:
        raise FormatError(kind_lineno, f"unknown oracle kind {kind!r}")
    try:
        return cls(alphabet, *body)
    except ValueError as e:  # a fault of a letter pair lies at the later line
        raise FormatError(lines[e.symbol] if isinstance(e, LetterError) else lineno, str(e)) from None


def parse(text: str) -> Parsed:
    cur = _Cursor(_rows(text))
    if cur.done():
        raise FormatError(1, "empty file")
    alphabet = _parse_alphabet(cur)
    lineno, toks = cur.take()
    if not toks:
        raise FormatError(lineno or 1, "missing kind line after the alphabet")
    kind = toks[0]
    if kind == "nfa":
        return _parse_machine(cur, alphabet, 1)
    if kind == "transducer":
        return _parse_machine(cur, alphabet, 2)
    if kind == "linear":
        if len(toks) != 2 or toks[1] not in ("inverse", "reversal"):
            raise FormatError(lineno, "linear takes a mode: inverse or reversal")
        t = _parse_machine(cur, alphabet, 2)
        return LinearLanguage(t, toks[1])
    if kind == "oracle":
        return _parse_oracle(cur, alphabet, lineno, toks)
    raise FormatError(lineno, f"unknown kind {kind!r}")


def parse_file(path) -> Parsed:
    """parse of the file's text.  A file that is not UTF-8 is a FormatError
    at the line of its first undecodable byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise FormatError(lineno, f"byte {data[e.start]:#04x} is not UTF-8 text") from None
    return parse(text)


def _alphabet_lines(alphabet: Alphabet) -> list[str]:
    lines = ["alphabet " + " ".join(alphabet.symbols)]
    for i, j in enumerate(alphabet.inv):
        if i < j:
            lines.append(f"inverse {alphabet.symbols[i]} {alphabet.symbols[j]}")
    return lines


def _write_machine(a: Union[Nfa, Transducer], kind_line: str) -> str:
    a = renumber_bfs(a)
    syms = a.alphabet.symbols
    lines = _alphabet_lines(a.alphabet)
    lines.append(kind_line)
    lines.append(f"states {a.n}")
    lines.append(f"initial {a.initial}")
    lines.append("final " + " ".join(str(t) for t in sorted(a.terminals)))
    text = {}
    for lab in {e[1] for e in a.edges}:
        tapes = lab if isinstance(a, Transducer) else (lab,)
        text[lab] = " ".join("-" if x is None else syms[x] for x in tapes)
    # edges by source, then label key, then target
    for row in a.adjacency():
        for s, lab, d in row:
            lines.append(f"edge {s} {text[lab]} {d}")
    return "\n".join(lines).rstrip() + "\n"


def write_oracle(o: GroupOracle) -> str:
    lines = _alphabet_lines(o.alphabet)
    if isinstance(o, FreeOracle):
        lines.append("oracle free")
    elif isinstance(o, AbelianOracle):
        lines.append("oracle abelian")
        lines.append(f"rank {o.rank}")
        for i, j in enumerate(o.alphabet.inv):
            if i < j:
                vec = " ".join(str(c) for c in o.weights[i])
                lines.append(f"weight {o.alphabet.symbols[i]} {vec}")
    elif isinstance(o, FiniteOracle):
        lines.append("oracle finite")
        lines.append(f"elements {len(o.table)}")
        for i, j in enumerate(o.alphabet.inv):
            if i < j:
                lines.append(f"letter {o.alphabet.symbols[i]} {o.letter_images[i]}")
        for row in o.table:
            lines.append("table " + " ".join(str(x) for x in row))
    else:
        raise ValueError(f"cannot serialize oracle {o!r}")
    return "\n".join(lines) + "\n"


def write(obj: Parsed) -> str:
    if isinstance(obj, Nfa):
        return _write_machine(obj, "nfa")
    if isinstance(obj, LinearLanguage):
        return _write_machine(obj.t, f"linear {obj.mode}")
    if isinstance(obj, Transducer):
        return _write_machine(obj, "transducer")
    if isinstance(obj, GroupOracle):
        return write_oracle(obj)
    raise ValueError(f"cannot serialize {obj!r}")


def write_file(path, obj: Parsed) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(write(obj))
