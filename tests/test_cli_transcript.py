"""Replay a recorded transcript of the command line: every verb and every
`aut` operation, the `--out` forms, and the usage, file and parse errors.

Each entry holds the arguments, the exit code, stdout, stderr and the text
of every file the command wrote, with the temporary directory shown as
`$TMP`.  Run this file as a script to record the transcript again:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from combings.cli import main

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.json"

HEAD_A = "alphabet a A\ninverse a A\n"
HEAD_AB = "alphabet a A b B\ninverse a A\ninverse b B\n"

INPUTS = {
    "astar.nfa": HEAD_A + "nfa\nstates 1\ninitial 0\nfinal 0\nedge 0 a 0\n",
    "Astar.nfa": HEAD_A + "nfa\nstates 1\ninitial 0\nfinal 0\nedge 0 A 0\n",
    "both.nfa": HEAD_A + "nfa\nstates 1\ninitial 0\nfinal 0\nedge 0 a 0\nedge 0 A 0\n",
    "ab.nfa": HEAD_AB + "nfa\nstates 3\ninitial 0\nfinal 2\nedge 0 a 1\nedge 1 b 2\n",
    "sigma.nfa": HEAD_AB + "nfa\nstates 1\ninitial 0\nfinal 0\n"
    + "".join(f"edge 0 {x} 0\n" for x in "aAbB"),
    # the ℤ² shortlex combing a^m b^n
    "c.nfa": HEAD_AB + "nfa\nstates 5\ninitial 0\nfinal 0 1 2 3 4\n"
    + "edge 0 a 1\nedge 1 a 1\nedge 0 A 2\nedge 2 A 2\n"
    + "edge 0 b 3\nedge 1 b 3\nedge 2 b 3\nedge 3 b 3\n"
    + "edge 0 B 4\nedge 1 B 4\nedge 2 B 4\nedge 4 B 4\n",
    "t.fst": HEAD_AB + "transducer\nstates 3\ninitial 0\nfinal 2\nedge 0 a b 1\nedge 1 b - 2\n",
    "id.fst": HEAD_AB + "transducer\nstates 1\ninitial 0\nfinal 0\n"
    + "".join(f"edge 0 {x} {x} 0\n" for x in "aAbB"),
    "unbalanced.fst": HEAD_AB + "transducer\nstates 1\ninitial 0\nfinal 0\nedge 0 a - 0\n",
    # an (ε,ε) cycle, a vertex no path leaves and one no path reaches
    "loops.fst": HEAD_AB + "transducer\nstates 5\ninitial 0\nfinal 2\n"
    + "edge 0 - - 1\nedge 1 - - 0\nedge 1 a - 2\nedge 2 a b 2\n"
    + "edge 0 b - 3\nedge 4 a a 2\n",
    "gen.fst": HEAD_AB + "transducer\nstates 3\ninitial 0\nfinal 2\nedge 0 a - 1\nedge 1 b - 2\n",
    "genAB.fst": HEAD_AB + "transducer\nstates 3\ninitial 0\nfinal 2\nedge 0 a a 1\nedge 1 b B 2\n",
    # members ab and BAc: no significant-letter assignment exists
    "nosig.fst": "alphabet a A b B c C\ninverse a A\ninverse b B\ninverse c C\ntransducer\n"
    + "states 5\ninitial 0\nfinal 2\nedge 0 a - 1\nedge 1 b - 2\nedge 0 B - 3\nedge 3 A - 4\nedge 4 c - 2\n",
    "l.lin": HEAD_AB + "linear inverse\nstates 3\ninitial 0\nfinal 2\nedge 0 a b 1\nedge 1 b - 2\n",
    "empty.fst": HEAD_A + "transducer\nstates 1\ninitial 0\nfinal\n",
    # the README's ℤ session
    "zgen.txt": HEAD_AB + "linear inverse\nstates 4\ninitial 0\nfinal 3\n"
    + "edge 0 - - 1\nedge 1 a a 1\nedge 1 b - 3\nedge 0 - - 2\nedge 2 A A 2\nedge 2 b - 3\n",
    "z.oracle": HEAD_AB + "oracle abelian\nrank 1\nweight a 1\nweight b 0\n",
    "z1.oracle": HEAD_A + "oracle abelian\nrank 1\nweight a 1\n",
    "z2.oracle": HEAD_AB + "oracle abelian\nrank 2\nweight a 1 0\nweight b 0 1\n",
    "x.oracle": "alphabet x X\ninverse x X\noracle abelian\nrank 1\nweight x 1\n",
    "free.oracle": HEAD_AB + "oracle free\n",
    "bad.nfa": HEAD_A + "nfa\nstates zero\n",
    "negrank.oracle": HEAD_A + "oracle abelian\nrank -1\nweight\n",
}

COMMANDS = [
    ["aut", "union", "astar.nfa", "Astar.nfa"],
    ["aut", "union", "astar.nfa", "Astar.nfa", "--out", "out/union.nfa"],
    ["aut", "union", "astar.nfa", "t.fst"],
    ["aut", "union", "z1.oracle", "z1.oracle"],
    ["aut", "union", "astar.nfa"],
    ["aut", "concat", "t.fst", "t.fst"],
    ["aut", "concat", "astar.nfa", "Astar.nfa", "--out", "out/concat.nfa"],
    ["aut", "concat", "z1.oracle", "astar.nfa"],
    ["aut", "reverse", "ab.nfa"],
    ["aut", "reverse", "t.fst"],
    ["aut", "trim", "ab.nfa"],
    ["aut", "trim", "loops.fst", "--out", "out/trim.fst"],
    ["aut", "trim", "z1.oracle"],
    ["aut", "split", "both.nfa"],
    ["aut", "split", "t.fst"],
    ["aut", "split", "both.nfa", "--out", "out/split.nfa"],
    ["aut", "equiv", "astar.nfa", "astar.nfa"],
    ["aut", "equiv", "astar.nfa", "both.nfa"],
    ["aut", "equiv", "astar.nfa", "t.fst"],
    ["aut", "equiv", "astar.nfa", "astar.nfa", "--out", "out"],
    ["aut", "project", "t.fst", "--coordinate", "second"],
    ["aut", "project", "t.fst", "--out", "out/project.nfa"],
    ["aut", "project", "ab.nfa"],
    ["aut", "intersect-rect", "id.fst", "ab.nfa", "sigma.nfa"],
    ["aut", "intersect-rect", "id.fst", "ab.nfa"],
    ["aut", "intersect-rect", "ab.nfa", "ab.nfa", "sigma.nfa"],
    ["aut", "identity", "astar.nfa"],
    ["aut", "identity", "astar.nfa", "both.nfa"],
    ["aut", "sync-bound", "unbalanced.fst"],
    ["aut", "sync-bound", "unbalanced.fst", "--out", "nodir/out.txt"],
    ["aut", "sync-bound", "t.fst"],
    ["aut", "sync-bound", "loops.fst"],
    ["aut", "sync-bound", "astar.nfa"],
    ["enum", "both.nfa", "--maxlen", "2"],
    ["enum", "t.fst", "--maxlen", "4"],
    ["enum", "l.lin", "--maxlen", "4"],
    ["enum", "z1.oracle", "--maxlen", "2"],
    ["enum", "bad.nfa", "--maxlen", "2"],
    ["enum", "missing.nfa", "--maxlen", "2"],
    ["sig-check", "gen.fst", "--maxlen", "4"],
    ["sig-check", "genAB.fst", "--maxlen", "6", "--search"],
    ["sig-check", "nosig.fst", "--maxlen", "4", "--search"],
    ["sig-check", "l.lin", "--maxlen", "4", "--search"],
    ["sig-check", "empty.fst", "--maxlen", "4"],
    ["sig-check", "astar.nfa", "--maxlen", "4"],
    ["central-check", "gen.fst", "--maxlen", "4", "--k", "1"],
    ["central-check", "gen.fst", "--maxlen", "4", "--k", "0"],
    ["central-check", "astar.nfa", "--maxlen", "4"],
    ["check-combing", "both.nfa", "--oracle", "z1.oracle", "--radius", "3", "--maxlen", "4"],
    ["check-combing", "astar.nfa", "--oracle", "z1.oracle", "--radius", "2", "--maxlen", "4"],
    ["check-combing", "t.fst", "--oracle", "z1.oracle", "--radius", "2", "--maxlen", "4"],
    ["check-combing", "both.nfa", "--oracle", "negrank.oracle", "--radius", "2", "--maxlen", "2"],
    ["ft-bound", "both.nfa", "--oracle", "z1.oracle", "--mode", "sync", "--maxlen", "4"],
    ["ft-bound", "c.nfa", "--oracle", "z2.oracle", "--mode", "async", "--maxlen", "4"],
    ["extract", "c.nfa", "--oracle", "z2.oracle", "--ft", "2"],
    ["extract", "c.nfa", "--oracle", "z2.oracle", "--ft", "2", "--out", "out/gens.lin"],
    ["extract", "c.nfa", "--oracle", "z2.oracle", "--ft", "2", "--out", "out"],
    ["extract", "c.nfa", "--oracle", "z2.oracle", "--ft", "2", "--out", "nodir/gens.lin"],
    ["extract", "c.nfa", "--oracle", "x.oracle", "--ft", "2", "--out", "out/gens.lin"],
    ["extract", "c.nfa", "--oracle", "c.nfa", "--ft", "2"],
    ["build", "zgen.txt", "--oracle", "z.oracle", "--central", "--out", "out/cprime.nfa"],
    ["build", "zgen.txt", "--oracle", "z.oracle", "--margin", "1"],
    ["build", "zgen.txt", "--oracle", "x.oracle", "--out", "out/cprime.nfa"],
    ["build", "astar.nfa", "--oracle", "z1.oracle"],
    ["build", "empty.fst", "--oracle", "z1.oracle"],
    ["build", "zgen.txt", "--oracle", "z.oracle", "--out", "out"],
]


def record(tmp: Path) -> list[dict]:
    """Run every command in `tmp`, holding the inputs, and return the
    transcript."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text, encoding="utf-8")
    out_dir = tmp / "out"
    out_dir.mkdir()
    shown = str(tmp)
    entries = []
    for argv in COMMANDS:
        real = [str(tmp / a) if a == "out" or "." in a else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(real)
        files = {}
        for f in sorted(out_dir.iterdir()):
            files[f.name] = f.read_text(encoding="utf-8")
            f.unlink()
        entries.append({
            "argv": argv,
            "code": code,
            "stdout": stdout.getvalue().replace(shown, "$TMP"),
            "stderr": stderr.getvalue().replace(shown, "$TMP"),
            "files": files,
        })
    return entries


def test_cli_transcript_replays(tmp_path):
    want = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    got = record(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(w["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        entries = record(Path(d))
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} commands to {TRANSCRIPT}", file=sys.stderr)
