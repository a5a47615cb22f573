"""The three workloads: inputs made from a seed in set-up, one pass each.

A pass runs the library's stages, times each call under its stage
(extract, build or verify) and checks every output against a reference
from ``reference.py``.  A call that raises, an unexpected exit code and a
reference mismatch each count as one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path
from time import perf_counter

import reference as ref


class Failed(Exception):
    """Raised inside a pass to skip the rest of an item after a failure."""


class Pass:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stage_s = {"extract": 0.0, "build": 0.0, "verify": 0.0}
        self.attempted = 0
        self.failures: list[str] = []
        self.sizes: dict[str, tuple] = {}  # exact work counts per item

    def call(self, stage: str, what: str, fn, *args, **kw):
        """One timed library operation."""
        self.attempted += 1
        t0 = self.clock()
        try:
            return fn(*args, **kw)
        except Exception as e:
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            raise Failed from e
        finally:
            self.stage_s[stage] += self.clock() - t0

    def check(self, what: str, problems) -> None:
        """One reference check; problems is a list of strings or a bool."""
        self.attempted += 1
        if problems is True or problems == []:
            return
        detail = "" if problems is False else ": " + "; ".join(map(str, problems))
        self.failures.append(f"{what}{detail}")

    @contextlib.contextmanager
    def item(self):
        try:
            yield
        except Failed:
            pass


def _rng(seed: int):
    """Seed 0 is the reference configuration; other seeds vary it."""
    return None if seed == 0 else random.Random(seed)


def _words(symbols: list[str], words) -> set[str]:
    return {"".join(symbols[i] for i in w) or "ε" for w in words}


# ---------------------------------------------------------------- z2-roundtrip


class Z2Roundtrip:
    """The README's ℤ² shortlex combing: extract, build, verify.  The seed
    orders the alphabet, which maps the combing by a group automorphism."""

    def setup(self, lib, seed: int, workdir: Path):
        pairs = ref.pair_order(2, _rng(seed))
        n, edges = ref.shortlex_abelian_edges(2)
        self.lib = lib
        self.alphabet = lib.Alphabet.from_pairs(pairs)
        self.symbols = ref.symbols(pairs)
        self.n, self.edges = n, edges
        self.expected = _words(self.symbols, ref.shortlex_abelian_words([(0, 1), (2, 3)], 8))

    def run(self, p: Pass) -> None:
        lib = self.lib
        with p.item():
            o = lib.AbelianOracle(self.alphabet, 2, {"a": [1, 0], "b": [0, 1]})
            slex = lib.Nfa(self.alphabet, self.n, self.edges, 0, range(self.n))
            gens = p.call("extract", "extract", lib.structures.extract_generators, slex, o, ft_bound=2)
            cprime, report = p.call("build", "build", lib.structures.build_combing, gens, o, central=True)
            p.sizes["z2"] = (gens.t.n, len(gens.t.edges), report.product_states,
                             report.x_candidates, report.c0_states, cprime.n)
            words, _ = ref.accepted_words(cprime, 8)
            got = _words(self.symbols, words)
            p.check("C' members up to length 8 are the shortlex forms",
                    [f"{len(got ^ self.expected)} words differ, e.g. {sorted(got ^ self.expected)[:3]}"]
                    if got != self.expected else [])
            rep = p.call("verify", "check_combing", lib.structures.check_combing, cprime, o, 5, 6)
            p.check("check_combing passes", rep.passed)
            bound = p.call("verify", "ft_bound", lib.structures.ft_bound_of_combing, cprime, o, "sync", 8)
            p.check(f"synchronous bound is 2 (got {bound})", bound == 2)
            same = p.call("verify", "equivalent", lib.nfa.equivalent, cprime, slex)
            p.check("C' is equivalent to the shortlex combing", same)


# ---------------------------------------------------------------- small-groups

# ℤ as F(a, b) / <<b, [a, b]>> from the conjugates a^n b A^n and A^n b a^n
# (the README's two-branch transducer)
Z_GENERATORS = [
    (0, (None, None), 1), (1, (0, 0), 1), (1, (2, None), 3),
    (0, (None, None), 2), (2, (1, 1), 2), (2, (2, None), 3),
]
TABLE_GROUPS = [
    ("Z/3", ref.cyclic, 3), ("Z/7", ref.cyclic, 7), ("Z/12", ref.cyclic, 12),
    ("D5", ref.dihedral, 5), ("D6", ref.dihedral, 6), ("D8", ref.dihedral, 8),
    ("S3", ref.symmetric, 3), ("S4", ref.symmetric, 4), ("S5", ref.symmetric, 5),
]


class SmallGroups:
    """ℤ and ℤ/3 from generator languages (build only), then finite groups
    from generated tables: shortlex trie combing, extract at the diameter,
    build, exact verification over the whole group.  The seed picks each
    table group's generators up to automorphism and renumbers its elements."""

    def setup(self, lib, seed: int, workdir: Path):
        rng = _rng(seed)
        self.lib = lib
        self.ab2 = lib.Alphabet.from_pairs([("a", "A"), ("b", "B")])
        self.ab1 = lib.Alphabet.from_pairs([("a", "A")])
        self.z_expected = _words(["a", "A", "b", "B"], ref.shortlex_abelian_words([(0, 1)], 8))
        self.groups = []
        for name, make, order in TABLE_GROUPS:
            table, gens = make(order, rng)
            if rng is not None:
                table, gens = ref.relabel(table, gens, rng)
            images = ref.letter_images(table, gens)
            n, edges, diameter = ref.shortlex_trie(table, images)
            self.groups.append((name, table, gens, images, n, edges, diameter))

    def run(self, p: Pass) -> None:
        lib = self.lib
        st = lib.structures
        with p.item():
            o = lib.AbelianOracle(self.ab2, 1, {"a": [1], "b": [0]})
            lang = lib.LinearLanguage(lib.Transducer(self.ab2, 4, Z_GENERATORS, 0, [3]), "inverse")
            cprime, report = p.call("build", "build Z", st.build_combing, lang, o, central=True)
            p.sizes["Z"] = (report.product_states, cprime.n)
            words, _ = ref.accepted_words(cprime, 8)
            got = _words(["a", "A", "b", "B"], words)
            p.check("Z: C' members up to length 8 are a^n and A^n", got == self.z_expected)
            rep = p.call("verify", "check Z", st.check_combing, cprime, o, 8, 8)
            p.check("Z: check_combing passes", rep.passed)
        with p.item():
            table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
            o = lib.FiniteOracle(self.ab1, table, {"a": 1})
            aaa = lib.Transducer(self.ab1, 4, [(0, (0, None), 1), (1, (0, None), 2), (2, (0, None), 3)], 0, [3])
            cprime, report = p.call("build", "build Z/3 from aaa", st.build_combing,
                                    lib.LinearLanguage(aaa, "inverse"), o, central=True)
            p.sizes["Z/3 from aaa"] = (report.product_states, cprime.n)
            self._verify_finite(p, "Z/3 from aaa", cprime, o, table, [1, 2], 1)
        for name, table, gens, images, n, edges, diameter in self.groups:
            with p.item():
                ab = self.ab1 if len(gens) == 1 else self.ab2
                o = lib.FiniteOracle(ab, table, dict(zip("ab", gens)))
                trie = lib.Nfa(ab, n, edges, 0, range(n))
                lang = p.call("extract", f"extract {name}", st.extract_generators, trie, o, diameter)
                cprime, report = p.call("build", f"build {name}", st.build_combing, lang, o)
                p.sizes[name] = (lang.t.n, len(lang.t.edges), report.product_states, cprime.n)
                self._verify_finite(p, name, cprime, o, table, images, diameter)

    def _verify_finite(self, p, name, cprime, o, table, images, diameter):
        words, finite = ref.accepted_words(cprime)
        p.check(f"{name}: C' is an exact combing with uniqueness",
                ref.check_finite_combing(words, finite, table, images))
        rep = p.call("verify", f"check {name}", self.lib.structures.check_combing,
                     cprime, o, diameter, ref.longest(words))
        p.check(f"{name}: check_combing passes", rep.passed)


# --------------------------------------------------------------------- z3-cli

Z_SESSION = {
    # the README's command-line session for ℤ
    "zgen.txt": """alphabet a A b B
inverse a A
inverse b B
linear inverse
states 4
initial 0
final 3
edge 0 - - 1
edge 1 a a 1
edge 1 b - 3
edge 0 - - 2
edge 2 A A 2
edge 2 b - 3
""",
    "z.oracle": """alphabet a A b B
inverse a A
inverse b B
oracle abelian
rank 1
weight a 1
weight b 0
""",
}


def _alphabet_text(pairs) -> str:
    lines = ["alphabet " + " ".join(ref.symbols(pairs))]
    lines += [f"inverse {x} {y}" for x, y in pairs]
    return "\n".join(lines) + "\n"


class Z3Cli:
    """The ℤ³ shortlex combing through ``combings`` verbs run in process:
    extract, check, both fellow-traveler bounds, enumeration and
    significant letters of the generators; then the README's ℤ session
    (build, enumerate), the only build that finishes through the CLI.  The
    seed orders the ℤ³ alphabet."""

    def setup(self, lib, seed: int, workdir: Path):
        self.lib = lib
        pairs = ref.pair_order(3, _rng(seed))
        n, edges = ref.shortlex_abelian_edges(3)
        syms = ref.symbols(pairs)
        combing = _alphabet_text(pairs) + f"nfa\nstates {n}\ninitial 0\nfinal {' '.join(map(str, range(n)))}\n"
        combing += "".join(f"edge {s} {syms[x]} {d}\n" for s, x, d in edges)
        oracle = _alphabet_text(pairs) + "oracle abelian\nrank 3\n"
        oracle += "weight a 1 0 0\nweight b 0 1 0\nweight c 0 0 1\n"
        workdir.mkdir(parents=True, exist_ok=True)
        files = dict(Z_SESSION, **{"c.nfa": combing, "z3.oracle": oracle})
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        self.f = {name: str(workdir / name) for name in list(files) + ["gens.txt", "cprime.txt"]}
        self.weight = {}
        for i, axis in enumerate("abc"):
            unit = tuple(int(j == i) for j in range(3))
            self.weight[axis] = unit
            self.weight[axis.upper()] = tuple(-c for c in unit)
        self.z_expected = _words(["a", "A"], ref.shortlex_abelian_words([(0, 1)], 8))

    def _cli(self, p, stage, argv, want_code):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = p.call(stage, argv[0], self.lib.cli.main, argv)
        p.check(f"{' '.join(argv[:2])}: exit code {code}, want {want_code} {err.getvalue().strip()}",
                code == want_code)
        return out.getvalue()

    def run(self, p: Pass) -> None:
        f = self.f
        for name in ("gens.txt", "cprime.txt"):
            Path(f[name]).unlink(missing_ok=True)  # a pass reads only what it wrote
        with p.item():
            out = self._cli(p, "extract", ["extract", f["c.nfa"], "--oracle", f["z3.oracle"],
                                           "--ft", "2", "--out", f["gens.txt"]], 0)
            p.check("extract wrote the generators", out.startswith("wrote "))
            out = self._cli(p, "verify", ["check-combing", f["c.nfa"], "--oracle", f["z3.oracle"],
                                          "--radius", "6", "--maxlen", "6"], 0)
            p.check("check-combing passes every property", out.count("=ok") == 4)
            for mode, maxlen, bound in (("async", "5", "bound 1"), ("sync", "6", "bound 2")):
                out = self._cli(p, "verify", ["ft-bound", f["c.nfa"], "--oracle", f["z3.oracle"],
                                              "--mode", mode, "--maxlen", maxlen], 0)
                p.check(f"ft-bound {mode} prints {bound!r}, got {out.strip()!r}", out.strip() == bound)
            out = self._cli(p, "verify", ["enum", f["gens.txt"], "--maxlen", "8"], 0)
            members = out.split()
            p.sizes["Z3 generators up to length 8"] = (len(members),)
            p.check("enum lists generators", bool(members))
            p.check("every generator is nonempty, freely reduced, of weight 0",
                    [w for w in members if not self._is_generator(w)][:3])
            out = self._cli(p, "verify", ["sig-check", f["gens.txt"], "--maxlen", "8"], 1)
            p.check("sig-check reports a violation", out.startswith("violation"))
        with p.item():
            out = self._cli(p, "build", ["build", f["zgen.txt"], "--oracle", f["z.oracle"],
                                         "--central", "--out", f["cprime.txt"]], 0)
            p.check("build wrote C'", f"wrote {f['cprime.txt']}" in out)
            out = self._cli(p, "verify", ["enum", f["cprime.txt"], "--maxlen", "8"], 0)
            p.check("Z: C' members up to length 8 are a^n and A^n", set(out.split()) == self.z_expected)

    def _is_generator(self, w: str) -> bool:
        if w == "ε" or any(x == y.swapcase() for x, y in zip(w, w[1:])):
            return False
        return all(sum(self.weight[x][i] for x in w) == 0 for i in range(3))


WORKLOADS = {"z2-roundtrip": Z2Roundtrip, "small-groups": SmallGroups, "z3-cli": Z3Cli}
