"""Command line front end.

Exit codes: 0 success (or a passing check), 1 a checked failure with a
witness printed, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import nfa as nfa_mod
from . import transducer as td
from .fileformat import FormatError, parse_file, write, write_file
from .linear import LinearLanguage, enumerate_members
from .nfa import Nfa
from .oracle import GroupOracle
from .structures import (
    SigWord,
    build_combing,
    check_central,
    check_combing,
    check_significant,
    extract_generators,
    ft_bound_of_combing,
    search_significant,
)
from .transducer import Transducer
from .words import Word


class UsageError(ValueError):
    pass


def _load(path, want, what: str):
    obj = parse_file(path)
    if not isinstance(obj, want):
        raise UsageError(f"{path}: expected {what}, found {type(obj).__name__}")
    return obj


def _emit(obj, out: str | None) -> None:
    if out:
        write_file(out, obj)
        print(f"wrote {out}")
    else:
        sys.stdout.write(write(obj))


def _shown(w: Word) -> str:
    return str(w) or "ε"


def _nonnegative(text: str) -> int:
    """argparse type for counts and radii; argparse names the option in
    the usage error and exits with code 2."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {n}")
    return n


# ------------------------------------------------------------------ verbs

# the number of input files of each aut operation
AUT_INPUTS = {
    "union": 2,
    "concat": 2,
    "reverse": 1,
    "split": 1,
    "trim": 1,
    "equiv": 2,
    "project": 1,
    "intersect-rect": 3,
    "identity": 1,
    "sync-bound": 1,
}


def _run_aut(args) -> int:
    op = args.op
    want = AUT_INPUTS[op]
    if len(args.inputs) != want:
        files = "file" if want == 1 else "files"
        raise UsageError(f"aut {op} takes {want} input {files}, not {len(args.inputs)}")
    if op in ("union", "concat"):
        a = parse_file(args.inputs[0])
        b = parse_file(args.inputs[1])
        if type(a) is not type(b) or not isinstance(a, (Nfa, Transducer)):
            raise UsageError("union/concat take two nfa files or two transducer files")
        _emit(getattr(nfa_mod, op)(a, b), args.out)
        return 0
    if op == "reverse":
        a = _load(args.inputs[0], Nfa, "an nfa")
        _emit(nfa_mod.reverse(a), args.out)
        return 0
    if op == "trim":
        a = parse_file(args.inputs[0])
        if not isinstance(a, (Nfa, Transducer)):
            raise UsageError("trim takes an nfa or transducer file")
        _emit(nfa_mod.trim(a), args.out)
        return 0
    if op == "split":
        a = _load(args.inputs[0], Nfa, "an nfa")
        pieces = nfa_mod.split_decomposition(nfa_mod.trim(a))
        for i, (x, y) in enumerate(pieces):
            print(f"# piece {i}: prefix part")
            sys.stdout.write(write(x))
            print(f"# piece {i}: suffix part")
            sys.stdout.write(write(y))
        return 0
    if op == "equiv":
        a = _load(args.inputs[0], Nfa, "an nfa")
        b = _load(args.inputs[1], Nfa, "an nfa")
        w = nfa_mod.difference_witness(a, b)
        if w is None:
            print("equivalent")
            return 0
        print(f"not equivalent; witness {_shown(w)}")
        return 1
    if op == "project":
        t = _load(args.inputs[0], Transducer, "a transducer")
        _emit(td.project(t, args.coordinate), args.out)
        return 0
    if op == "intersect-rect":
        t = _load(args.inputs[0], Transducer, "a transducer")
        r = _load(args.inputs[1], Nfa, "an nfa")
        s = _load(args.inputs[2], Nfa, "an nfa")
        _emit(td.trim(td.intersect_rect(t, r, s)), args.out)
        return 0
    if op == "identity":
        r = _load(args.inputs[0], Nfa, "an nfa")
        _emit(td.identity_of(r), args.out)
        return 0
    if op == "sync-bound":
        t = _load(args.inputs[0], Transducer, "a transducer")
        k = td.synchronized_bound(td.strip_epsilon_cycles(td.trim(t)))
        print("unbounded" if k is None else f"bound {k}")
        return 0
    raise UsageError(f"unknown aut operation {op!r}")


def _run_enum(args) -> int:
    obj = parse_file(args.input)
    if isinstance(obj, Nfa):
        for w in nfa_mod.enumerate_words(obj, args.maxlen):
            print(_shown(w))
    elif isinstance(obj, LinearLanguage):
        for w in enumerate_members(obj, args.maxlen):
            print(_shown(w))
    elif isinstance(obj, Transducer):
        for u, v in td.enumerate_pairs(obj, args.maxlen):
            print(f"{_shown(u)} {_shown(v)}")
    else:
        raise UsageError("enum takes an nfa, transducer, or linear file")
    return 0


def _members_with_marks(args):
    obj = parse_file(args.input)
    if isinstance(obj, LinearLanguage):
        l = obj
    elif isinstance(obj, Transducer):
        l = LinearLanguage(obj, "inverse")
    else:
        raise UsageError("expected a linear or transducer file")
    return enumerate_members(l, args.maxlen)


def _run_sig_check(args) -> int:
    members = _members_with_marks(args)
    if not members:
        print("no members up to the length bound")
        return 0
    if args.search:
        found = search_significant(members)
        if found is None:
            centered = [SigWord(w, (len(w) + 1) // 2) for w in members]
            viol = check_significant(centered)
            print(f"no assignment exists; for centered marks: {viol}")
            return 1
        for sw in found:
            print(f"{sw.word} position {sw.sig}")
        print("assignment found")
        return 0
    sample = [SigWord(w, (len(w) + 1) // 2) for w in members]
    viol = check_significant(sample)
    if viol is None:
        print(f"centered marks are significant on {len(members)} members")
        return 0
    print(f"violation: {viol}")
    return 1


def _run_central_check(args) -> int:
    members = _members_with_marks(args)
    if not members:
        print("no members up to the length bound")
        return 0
    found = search_significant(members)
    if found is None:
        print("no significant-letter assignment exists")
        return 1
    rep = check_central(found, args.k)
    print(rep)
    return 0 if rep.passed in (True, None) else 1


def _run_check_combing(args) -> int:
    c = _load(args.input, Nfa, "an nfa")
    o = _load(args.oracle, GroupOracle, "an oracle")
    rep = check_combing(c, o, args.radius, args.maxlen)
    print(rep)
    return 0 if rep.passed else 1


def _run_extract(args) -> int:
    c = _load(args.input, Nfa, "an nfa")
    o = _load(args.oracle, GroupOracle, "an oracle")
    lang = extract_generators(c, o, args.ft)
    _emit(lang, args.out)
    return 0


def _run_build(args) -> int:
    obj = parse_file(args.input)
    if isinstance(obj, LinearLanguage):
        l = obj
    elif isinstance(obj, Transducer):
        l = LinearLanguage(obj, "inverse")
    else:
        raise UsageError("build takes a linear or transducer file")
    o = _load(args.oracle, GroupOracle, "an oracle")
    cprime, report = build_combing(l, o, central=args.central, margin=args.margin)
    print(report)
    _emit(cprime, args.out)
    return 0


def _run_ft_bound(args) -> int:
    c = _load(args.input, Nfa, "an nfa")
    o = _load(args.oracle, GroupOracle, "an oracle")
    k = ft_bound_of_combing(c, o, args.mode, args.maxlen)
    if k is None:
        print("no bound within the cap")
        return 1
    print(f"bound {k}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="combings")
    sub = p.add_subparsers(dest="verb", required=True)

    aut = sub.add_parser("aut", help="automaton and transducer operations")
    aut.add_argument("op", choices=list(AUT_INPUTS))
    aut.add_argument("inputs", nargs="+")
    aut.add_argument("--out")
    aut.add_argument("--coordinate", choices=["first", "second"], default="first")
    aut.set_defaults(func=_run_aut)

    enum = sub.add_parser("enum", help="enumerate words, pairs, or members")
    enum.add_argument("input")
    enum.add_argument("--maxlen", type=_nonnegative, required=True)
    enum.set_defaults(func=_run_enum)

    cc = sub.add_parser("check-combing", help="verify combing properties on a ball")
    cc.add_argument("input")
    cc.add_argument("--oracle", required=True)
    cc.add_argument("--radius", type=_nonnegative, required=True)
    cc.add_argument("--maxlen", type=_nonnegative, required=True)
    cc.set_defaults(func=_run_check_combing)

    sig = sub.add_parser("sig-check", help="check or search significant letters")
    sig.add_argument("input")
    sig.add_argument("--maxlen", type=_nonnegative, required=True)
    sig.add_argument("--search", action="store_true")
    sig.set_defaults(func=_run_sig_check)

    cen = sub.add_parser("central-check", help="centrality of significant letters")
    cen.add_argument("input")
    cen.add_argument("--maxlen", type=_nonnegative, required=True)
    cen.add_argument("--k", type=_nonnegative)
    cen.set_defaults(func=_run_central_check)

    ext = sub.add_parser("extract", help="generators of the kernel from a combing")
    ext.add_argument("input")
    ext.add_argument("--oracle", required=True)
    ext.add_argument("--ft", type=_nonnegative, required=True)
    ext.add_argument("--out")
    ext.set_defaults(func=_run_extract)

    bld = sub.add_parser("build", help="construct a regular combing from generators")
    bld.add_argument("input")
    bld.add_argument("--oracle", required=True)
    bld.add_argument("--central", action="store_true")
    bld.add_argument("--margin", type=_nonnegative, default=2)
    bld.add_argument("--out")
    bld.set_defaults(func=_run_build)

    ftb = sub.add_parser("ft-bound", help="empirical fellow-traveler bound")
    ftb.add_argument("input")
    ftb.add_argument("--oracle", required=True)
    ftb.add_argument("--mode", choices=["sync", "async"], required=True)
    ftb.add_argument("--maxlen", type=_nonnegative, required=True)
    ftb.set_defaults(func=_run_ft_bound)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, UsageError) as e:
        # ahead of ValueError, which FormatError and UsageError subclass;
        # OSError covers a missing file and a directory given as a file
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
