"""Command line front end.

Exit codes: 0 success (or a passing check), 1 a checked failure with a
witness printed, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import errno
import os
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


def _load_linear(path) -> LinearLanguage:
    """A linear file, or a transducer file read as the language u·v⁻¹."""
    obj = _load(path, (LinearLanguage, Transducer), "a linear language or transducer")
    return obj if isinstance(obj, LinearLanguage) else LinearLanguage(obj, "inverse")


def _check_out(out: str | None) -> None:
    """Raise, before any work, the error that writing the --out file would
    raise for a directory or for a path in a missing directory."""
    if out and os.path.isdir(out):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), out)


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

NFA = (Nfa, "an nfa")
TRANSDUCER = (Transducer, "a transducer")
MACHINE = ((Nfa, Transducer), "an nfa or transducer")
ORACLE = (GroupOracle, "an oracle")

# the kind of each input file of each aut operation
AUT_INPUTS = {
    "union": (MACHINE, MACHINE),
    "concat": (MACHINE, MACHINE),
    "reverse": (NFA,),
    "split": (NFA,),
    "trim": (MACHINE,),
    "equiv": (NFA, NFA),
    "project": (TRANSDUCER,),
    "intersect-rect": (TRANSDUCER, NFA, NFA),
    "identity": (NFA,),
    "sync-bound": (TRANSDUCER,),
}


def _run_aut(args) -> int:
    op, kinds = args.op, AUT_INPUTS[args.op]
    if len(args.inputs) != len(kinds):
        files = "file" if len(kinds) == 1 else "files"
        raise UsageError(f"aut {op} takes {len(kinds)} input {files}, not {len(args.inputs)}")
    # the operations that write an automaton, to --out or to stdout
    make = {"union": nfa_mod.union, "concat": nfa_mod.concat, "reverse": nfa_mod.reverse,
            "trim": nfa_mod.trim, "identity": td.identity_of,
            "project": lambda t: td.project(t, args.coordinate),
            "intersect-rect": lambda *ts: td.trim(td.intersect_rect(*ts))}.get(op)
    if args.out and not make:
        raise UsageError(f"aut {op} writes no automaton, so it takes no --out")
    _check_out(args.out)
    ins = [_load(path, *kind) for path, kind in zip(args.inputs, kinds)]
    if op in ("union", "concat") and type(ins[0]) is not type(ins[1]):
        raise UsageError("union/concat take two nfa files or two transducer files")
    if make:
        _emit(make(*ins), args.out)
    elif op == "split":
        for i, pieces in enumerate(nfa_mod.split_decomposition(nfa_mod.trim(*ins))):
            for part, x in zip(("prefix", "suffix"), pieces):
                sys.stdout.write(f"# piece {i}: {part} part\n" + write(x))
    elif op == "equiv":
        w = nfa_mod.difference_witness(*ins)
        print("equivalent" if w is None else f"not equivalent; witness {_shown(w)}")
        return 0 if w is None else 1
    else:
        k = td.synchronized_bound(*ins)
        print("unbounded" if k is None else f"bound {k}")
    return 0


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


def _run_sig_check(args) -> int:
    members = enumerate_members(_load_linear(args.input), args.maxlen)
    if not members:
        print("no members up to the length bound")
        return 0
    found = search_significant(members) if args.search else None
    if found is not None:
        for sw in found:
            print(f"{sw.word} position {sw.sig}")
        print("assignment found")
        return 0
    viol = check_significant([SigWord(w, (len(w) + 1) // 2) for w in members])
    if args.search:
        print(f"no assignment exists; for centered marks: {viol}")
    elif viol is None:
        print(f"centered marks are significant on {len(members)} members")
        return 0
    else:
        print(f"violation: {viol}")
    return 1


def _run_central_check(args) -> int:
    members = enumerate_members(_load_linear(args.input), args.maxlen)
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
    c = _load(args.input, *NFA)
    o = _load(args.oracle, *ORACLE)
    rep = check_combing(c, o, args.radius, args.maxlen)
    print(rep)
    return 0 if rep.passed else 1


def _run_extract(args) -> int:
    _check_out(args.out)
    c = _load(args.input, *NFA)
    o = _load(args.oracle, *ORACLE)
    _emit(extract_generators(c, o, args.ft), args.out)
    return 0


def _run_build(args) -> int:
    _check_out(args.out)
    l = _load_linear(args.input)
    o = _load(args.oracle, *ORACLE)
    cprime, report = build_combing(l, o, central=args.central, margin=args.margin)
    print(report)
    _emit(cprime, args.out)
    return 0


def _run_ft_bound(args) -> int:
    c = _load(args.input, *NFA)
    o = _load(args.oracle, *ORACLE)
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
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        # OSError covers a missing file and a directory given as a file
        return 2 if isinstance(e, (FormatError, OSError, UsageError)) else 1


if __name__ == "__main__":
    sys.exit(main())
