import pytest

from combings import AbelianOracle, Alphabet, LinearLanguage, Nfa, SigWord, Transducer, check_significant
from combings import fileformat as ff
from combings import nfa as nfa_mod
from combings import transducer as td
from combings import cli
from combings.cli import main
from bruteforce import pairs_of_transducer
from test_fileformat import LINE_FAULTS
from test_golden import z3_extract
from test_structures import Z2_SHORTLEX_EDGES


AB = Alphabet.from_pairs([("a", "A"), ("b", "B")])
AB1 = Alphabet.from_pairs([("a", "A")])
SIGMA_STAR = Nfa(AB, 1, [(0, x, 0) for x in range(len(AB))], 0, [0])


def _write(tmp_path, name, obj):
    path = tmp_path / name
    ff.write_file(path, obj)
    return str(path)


@pytest.fixture
def astar_file(tmp_path):
    return _write(tmp_path, "astar.nfa", Nfa(AB1, 1, [(0, 0, 0)], 0, [0]))


@pytest.fixture
def full_star_file(tmp_path):
    both = nfa_mod.union(
        Nfa(AB1, 1, [(0, 0, 0)], 0, [0]), Nfa(AB1, 1, [(0, 1, 0)], 0, [0])
    )
    return _write(tmp_path, "both.nfa", both)


@pytest.fixture
def z_oracle_file(tmp_path):
    return _write(tmp_path, "z.oracle", AbelianOracle(AB1, 1, {"a": [1]}))


def test_aut_equiv_same(capsys, astar_file):
    assert main(["aut", "equiv", astar_file, astar_file]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_aut_equiv_witness(capsys, astar_file, full_star_file):
    assert main(["aut", "equiv", astar_file, full_star_file]) == 1
    out = capsys.readouterr().out
    assert "not equivalent" in out and "witness A" in out


def test_aut_union_out_and_reparse(tmp_path, capsys, astar_file):
    Astar = _write(tmp_path, "Astar.nfa", Nfa(AB1, 1, [(0, 1, 0)], 0, [0]))
    out = str(tmp_path / "union.nfa")
    assert main(["aut", "union", astar_file, Astar, "--out", out]) == 0
    merged = ff.parse_file(out)
    assert nfa_mod.accepts(merged, AB1.word("AA"))
    assert nfa_mod.accepts(merged, AB1.word("aa"))
    assert not nfa_mod.accepts(merged, AB1.word("aA"))


def test_aut_union_to_stdout(capsys, astar_file):
    assert main(["aut", "union", astar_file, astar_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("alphabet a A")
    assert "nfa" in out


def test_aut_concat_transducers(tmp_path, capsys):
    t = td.from_pairs(AB, [(AB.word("a"), AB.word("b"))])
    tf = _write(tmp_path, "t.fst", t)
    assert main(["aut", "concat", tf, tf]) == 0
    out = capsys.readouterr().out
    back = ff.parse(out)
    assert (AB.word("aa"), AB.word("bb")) in pairs_of_transducer(back, 4)


def test_aut_mixed_union_is_usage_error(tmp_path, capsys, astar_file):
    t = td.from_pairs(AB1, [(AB1.word("a"), AB1.word(""))])
    tf = _write(tmp_path, "t.fst", t)
    assert main(["aut", "union", astar_file, tf]) == 2


def test_aut_reverse_and_trim(tmp_path, capsys):
    ab_word = _write(tmp_path, "w.nfa", nfa_mod.from_word(AB, AB.word("ab")))
    assert main(["aut", "reverse", ab_word]) == 0
    back = ff.parse(capsys.readouterr().out)
    assert nfa_mod.accepts(back, AB.word("ba"))
    assert main(["aut", "trim", ab_word]) == 0


def test_aut_split(capsys, full_star_file):
    assert main(["aut", "split", full_star_file]) == 0
    assert "piece 0" in capsys.readouterr().out


def test_aut_project_and_identity(tmp_path, capsys, astar_file):
    t = td.from_pairs(AB, [(AB.word("ab"), AB.word("b"))])
    tf = _write(tmp_path, "t.fst", t)
    assert main(["aut", "project", tf, "--coordinate", "second"]) == 0
    back = ff.parse(capsys.readouterr().out)
    assert nfa_mod.accepts(back, AB.word("b"))
    assert main(["aut", "identity", astar_file]) == 0
    back = ff.parse(capsys.readouterr().out)
    pairs = pairs_of_transducer(back, 4)
    assert (AB1.word("aa"), AB1.word("aa")) in pairs
    assert (AB1.word("aa"), AB1.word("a")) not in pairs


def test_aut_intersect_rect(tmp_path, capsys):
    t = td.identity_of(SIGMA_STAR)
    tf = _write(tmp_path, "t.fst", t)
    rf = _write(tmp_path, "r.nfa", nfa_mod.from_word(AB, AB.word("ab")))
    sf = _write(tmp_path, "s.nfa", SIGMA_STAR)
    assert main(["aut", "intersect-rect", tf, rf, sf]) == 0
    back = ff.parse(capsys.readouterr().out)
    pairs = pairs_of_transducer(back, 4)
    assert (AB.word("ab"), AB.word("ab")) in pairs
    assert (AB.word("ba"), AB.word("ba")) not in pairs


def test_aut_sync_bound(tmp_path, capsys):
    unbalanced = Transducer(AB, 1, [(0, (0, None), 0)], 0, [0])
    uf = _write(tmp_path, "u.fst", unbalanced)
    assert main(["aut", "sync-bound", uf]) == 0
    assert "unbounded" in capsys.readouterr().out
    balanced = td.from_pairs(AB, [(AB.word("ab"), AB.word(""))])
    bf = _write(tmp_path, "b.fst", balanced)
    assert main(["aut", "sync-bound", bf]) == 0
    assert "bound 2" in capsys.readouterr().out


@pytest.mark.parametrize("op", list(cli.AUT_INPUTS))
def test_aut_wrong_input_count_is_usage_error(capsys, astar_file, op):
    """Each aut operation takes a fixed number of files; one more, or one
    fewer, is a usage error that names the count it expects."""
    want = len(cli.AUT_INPUTS[op])
    for count in (want - 1, want + 1):
        if count == 0:
            continue  # argparse itself refuses an empty file list
        assert main(["aut", op] + [astar_file] * count) == 2
        err = capsys.readouterr().err
        assert f"aut {op} takes {want} input file" in err
        assert f"not {count}" in err


def test_enum_nfa(capsys, full_star_file):
    assert main(["enum", full_star_file, "--maxlen", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["ε", "a", "A", "aa", "AA"]


def test_enum_transducer_pairs(tmp_path, capsys):
    t = td.from_pairs(AB, [(AB.word("ab"), AB.word("b"))])
    tf = _write(tmp_path, "t.fst", t)
    assert main(["enum", tf, "--maxlen", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["ab b"]


def test_enum_linear_members(tmp_path, capsys):
    t = td.from_pairs(AB, [(AB.word("ab"), AB.word("b"))])
    lf = _write(tmp_path, "l.lin", LinearLanguage(t, "inverse"))
    assert main(["enum", lf, "--maxlen", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["abB"]


def test_enum_oracle_is_usage_error(tmp_path, z_oracle_file):
    assert main(["enum", z_oracle_file, "--maxlen", "2"]) == 2


def test_sig_check_centered(tmp_path, capsys):
    t = td.from_pairs(AB, [(AB.word("abA"), AB.word(""))])
    tf = _write(tmp_path, "gen.fst", t)
    assert main(["sig-check", tf, "--maxlen", "4"]) == 0
    assert "significant" in capsys.readouterr().out


def test_sig_check_search_failure(tmp_path, capsys):
    ab3 = Alphabet.from_pairs([("a", "A"), ("b", "B"), ("c", "C")])
    t = td.from_pairs(
        ab3, [(ab3.word("ab"), ab3.word("")), (ab3.word("BAc"), ab3.word(""))]
    )
    tf = _write(tmp_path, "bad.fst", t)
    assert main(["sig-check", tf, "--maxlen", "4", "--search"]) == 1
    assert "no assignment exists" in capsys.readouterr().out


def test_sig_check_search_success(tmp_path, capsys):
    t = td.from_pairs(AB, [(AB.word("ab"), AB.word("aB"))])
    tf = _write(tmp_path, "gen.fst", t)
    assert main(["sig-check", tf, "--maxlen", "6", "--search"]) == 0
    assert "assignment found" in capsys.readouterr().out


def test_sig_check_search_on_the_z3_generators(tmp_path, capsys):
    """The search over the 104 ℤ³ generators up to length 6 finishes, and
    the marks it prints pass the product check."""
    l, _o = z3_extract()
    lf = _write(tmp_path, "z3.lin", l)
    assert main(["sig-check", lf, "--maxlen", "6", "--search"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "assignment found"
    marked = [line.split(" position ") for line in lines[:-1]]
    assert len(marked) == 104
    sample = [SigWord(l.t.alphabet.word(w), int(p)) for w, p in marked]
    assert check_significant(sample) is None


def test_central_check(tmp_path, capsys):
    t = td.from_pairs(AB, [(AB.word("ab"), AB.word(""))])
    tf = _write(tmp_path, "gen.fst", t)
    assert main(["central-check", tf, "--maxlen", "4", "--k", "1"]) == 0
    assert "pass" in capsys.readouterr().out
    assert main(["central-check", tf, "--maxlen", "4", "--k", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_combing_pass(tmp_path, capsys, full_star_file, z_oracle_file):
    code = main(
        ["check-combing", full_star_file, "--oracle", z_oracle_file,
         "--radius", "3", "--maxlen", "4"]
    )
    assert code == 0
    assert "prefix_closed=ok" in capsys.readouterr().out


def test_check_combing_fail(tmp_path, capsys, astar_file, z_oracle_file):
    code = main(
        ["check-combing", astar_file, "--oracle", z_oracle_file,
         "--radius", "2", "--maxlen", "4"]
    )
    assert code == 1
    assert "surjective=FAIL" in capsys.readouterr().out


def test_check_combing_refuses_a_transducer(tmp_path, capsys, z_oracle_file):
    """A transducer is not a word automaton: check-combing rejects the file
    as a usage error instead of reading its pair labels as letters."""
    tf = _write(tmp_path, "t.fst", Transducer(AB1, 2, [(0, (0, None), 1)], 0, [1]))
    code = main(["check-combing", tf, "--oracle", z_oracle_file, "--radius", "2", "--maxlen", "4"])
    assert code == 2
    assert "expected an nfa" in capsys.readouterr().err


def test_ft_bound_verb(tmp_path, capsys, full_star_file, z_oracle_file):
    code = main(
        ["ft-bound", full_star_file, "--oracle", z_oracle_file,
         "--mode", "sync", "--maxlen", "4"]
    )
    assert code == 0
    assert "bound 1" in capsys.readouterr().out


def test_extract_verb(tmp_path, capsys):
    both = nfa_mod.union(
        Nfa(AB, 1, [(0, 0, 0)], 0, [0]), Nfa(AB, 1, [(0, 1, 0)], 0, [0])
    )
    cf = _write(tmp_path, "c.nfa", both)
    of = _write(tmp_path, "o.oracle", AbelianOracle(AB, 1, {"a": [1], "b": [0]}))
    out = str(tmp_path / "gens.lin")
    assert main(["extract", cf, "--oracle", of, "--ft", "2", "--out", out]) == 0
    lang = ff.parse_file(out)
    assert isinstance(lang, LinearLanguage)
    from combings.linear import enumerate_members

    assert [str(w) for w in enumerate_members(lang, 3)] == ["b", "B", "abA", "aBA", "Aba", "ABa"]


@pytest.mark.parametrize(
    "pairs, weights",
    [([("a", "A")], {"a": [1, 0]}), ([("x", "X"), ("y", "Y")], {"x": [1, 0], "y": [0, 1]})],
    ids=["fewer letters", "other letters"],
)
def test_extract_verb_refuses_an_oracle_over_another_alphabet(tmp_path, capsys, pairs, weights):
    """The ℤ² shortlex combing with an oracle over other letters: an error
    message and the checked-failure code, not a traceback or an answer."""
    cf = _write(tmp_path, "c.nfa", Nfa(AB, 5, Z2_SHORTLEX_EDGES, 0, range(5)))
    of = _write(tmp_path, "o.oracle", AbelianOracle(Alphabet.from_pairs(pairs), 2, weights))
    out = tmp_path / "gens.lin"
    assert main(["extract", cf, "--oracle", of, "--ft", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the combing and the oracle are over different alphabets\n"
    )
    assert not out.exists()


def test_build_verb(tmp_path, capsys, z_generators):
    gf = _write(tmp_path, "gens.fst", z_generators)
    of = _write(
        tmp_path, "o.oracle",
        AbelianOracle(z_generators.alphabet, 1, {"a": [1], "b": [0]}),
    )
    out = str(tmp_path / "cprime.nfa")
    assert main(["build", gf, "--oracle", of, "--central", "--out", out]) == 0
    rep = capsys.readouterr().out
    assert "C' has" in rep
    cprime = ff.parse_file(out)
    ab = z_generators.alphabet
    both = nfa_mod.union(
        Nfa(ab, 1, [(0, 0, 0)], 0, [0]), Nfa(ab, 1, [(0, 1, 0)], 0, [0])
    )
    assert nfa_mod.equivalent(cprime, both)


@pytest.mark.parametrize(
    "pairs, weights",
    [([("a", "A")], {"a": [1]}), ([("x", "X"), ("y", "Y")], {"x": [1], "y": [0]})],
    ids=["fewer letters", "other letters"],
)
def test_build_verb_refuses_an_oracle_over_another_alphabet(tmp_path, capsys, z_generators, pairs, weights):
    """The README's ℤ generators with an oracle over other letters: an
    error message and the checked-failure code, and no --out file."""
    gf = _write(tmp_path, "gens.fst", z_generators)
    of = _write(tmp_path, "o.oracle", AbelianOracle(Alphabet.from_pairs(pairs), 1, weights))
    out = tmp_path / "cprime.nfa"
    assert main(["build", gf, "--oracle", of, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the generator language and the oracle are over different alphabets\n"
    assert not out.exists()


def test_build_failure_exit_code(tmp_path, capsys, z_oracle_file):
    empty = Transducer(AB1, 1, [], 0, [])
    ef = _write(tmp_path, "empty.fst", empty)
    assert main(["build", ef, "--oracle", z_oracle_file]) == 1
    assert "free on the images" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nfa"
    bad.write_text("alphabet a A\ninverse a A\nnfa\nstates zero\n")
    assert main(["enum", str(bad), "--maxlen", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_negative_rank_is_a_format_error(tmp_path, capsys, full_star_file):
    bad = tmp_path / "neg.oracle"
    bad.write_text("alphabet a A\ninverse a A\noracle abelian\nrank -1\nweight\n")
    code = main(["check-combing", full_star_file, "--oracle", str(bad), "--radius", "2", "--maxlen", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 4: rank -1 is negative\n"


@pytest.mark.parametrize("text, lineno, message", LINE_FAULTS)
def test_fault_line_on_the_command_line(tmp_path, capsys, full_star_file, text, lineno, message):
    """The CLI names the line at fault in its one error line and exits 2."""
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if "oracle" in text:
        argv = ["check-combing", full_star_file, "--oracle", str(bad), "--radius", "2", "--maxlen", "2"]
    else:
        argv = ["enum", str(bad), "--maxlen", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {lineno}: {message}\n"


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["enum", str(tmp_path / "nope.nfa"), "--maxlen", "2"]) == 2


def _enum_dir(tmp_path):
    return ["enum", str(tmp_path), "--maxlen", "2"]


def _extract_to_dir(tmp_path):
    cf = _write(tmp_path, "c.nfa", Nfa(AB, 5, Z2_SHORTLEX_EDGES, 0, range(5)))
    of = _write(tmp_path, "o.oracle", AbelianOracle(AB, 2, {"a": [1, 0], "b": [0, 1]}))
    return ["extract", cf, "--oracle", of, "--ft", "2", "--out", str(tmp_path)]


def _not_utf8(tmp_path):
    bad = tmp_path / "latin1.nfa"
    bad.write_bytes("alphabet a A\ninverse a A\nnfa # é\n".encode("latin-1"))
    return ["enum", str(bad), "--maxlen", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_enum_dir, "error: [Errno 21] Is a directory: "),
        (_extract_to_dir, "error: [Errno 21] Is a directory: "),
        (_not_utf8, "error: line 3: byte 0xe9 is not UTF-8 text"),
    ],
    ids=["input directory", "output directory", "not utf-8"],
)
def test_file_errors_exit_2(tmp_path, capsys, argv, message):
    """A directory given as the input or the --out file, and an input that
    is not UTF-8 text, print one error line, no traceback, and exit 2."""
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


def test_unknown_verb_is_systemexit():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["enum", "c.nfa", "--maxlen", "-1"], "--maxlen"),
        (["check-combing", "c.nfa", "--oracle", "z.oracle", "--radius", "2", "--maxlen", "-1"], "--maxlen"),
        (["check-combing", "c.nfa", "--oracle", "z.oracle", "--radius", "-1", "--maxlen", "4"], "--radius"),
        (["sig-check", "gen.fst", "--maxlen", "-1"], "--maxlen"),
        (["central-check", "gen.fst", "--maxlen", "-1"], "--maxlen"),
        (["central-check", "gen.fst", "--maxlen", "4", "--k", "-1"], "--k"),
        (["extract", "c.nfa", "--oracle", "z.oracle", "--ft", "-1"], "--ft"),
        (["ft-bound", "c.nfa", "--oracle", "z.oracle", "--mode", "sync", "--maxlen", "-1"], "--maxlen"),
        (["build", "gen.fst", "--oracle", "z.oracle", "--margin", "-1"], "--margin"),
    ],
)
def test_negative_count_is_usage_error(tmp_path, monkeypatch, capsys, argv, option):
    """A negative length bound, radius, ft bound, k or margin is refused
    with the usage-error code before any input file is read, and the
    message names the option."""
    files = {
        "c.nfa": _write(tmp_path, "c.nfa", Nfa(AB1, 1, [(0, 0, 0), (0, 1, 0)], 0, [0])),
        "z.oracle": _write(tmp_path, "z.oracle", AbelianOracle(AB1, 1, {"a": [1]})),
        "gen.fst": _write(tmp_path, "gen.fst", td.from_pairs(AB, [(AB.word("ab"), AB.word(""))])),
    }

    def no_read(path):
        raise AssertionError(f"{path} was read before the arguments were checked")

    monkeypatch.setattr(cli, "parse_file", no_read)
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be nonnegative, not -1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "c.nfa", "--oracle", "z.oracle", "--ft", "2", "--out", "OUT"],
        ["build", "gen.fst", "--oracle", "z.oracle", "--out", "OUT"],
        ["aut", "union", "c.nfa", "c.nfa", "--out", "OUT"],
        ["aut", "intersect-rect", "gen.fst", "c.nfa", "c.nfa", "--out", "OUT"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
@pytest.mark.parametrize(
    "out, message",
    [("", "[Errno 21] Is a directory"), ("nodir/out.txt", "[Errno 2] No such file or directory")],
    ids=["directory", "missing directory"],
)
def test_unwritable_out_is_refused_before_the_work(tmp_path, monkeypatch, capsys, argv, out, message):
    """An --out path that is a directory, or that lies in a directory that
    does not exist, fails before any input is read: one error line, the
    file-error code, and nothing written."""
    files = {
        "c.nfa": _write(tmp_path, "c.nfa", Nfa(AB1, 1, [(0, 0, 0), (0, 1, 0)], 0, [0])),
        "z.oracle": _write(tmp_path, "z.oracle", AbelianOracle(AB1, 1, {"a": [1]})),
        "gen.fst": _write(tmp_path, "gen.fst", td.from_pairs(AB, [(AB.word("ab"), AB.word(""))])),
        "OUT": str(tmp_path / out),
    }
    before = sorted(tmp_path.rglob("*"))

    def no_read(path):
        raise AssertionError(f"{path} was read before --out was checked")

    monkeypatch.setattr(cli, "parse_file", no_read)
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}: {str(tmp_path / out)!r}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["aut", "split", "c.nfa"],
        ["aut", "equiv", "c.nfa", "c.nfa"],
        ["aut", "sync-bound", "gen.fst"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_out_on_an_operation_that_writes_no_automaton_is_refused(tmp_path, monkeypatch, capsys, argv):
    """--out given to an aut operation that prints a report is a usage
    error, raised before any input is read."""

    def no_read(path):
        raise AssertionError(f"{path} was read before --out was checked")

    monkeypatch.setattr(cli, "parse_file", no_read)
    assert main(argv + ["--out", str(tmp_path / "out.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: aut {argv[1]} writes no automaton, so it takes no --out\n"
    assert list(tmp_path.iterdir()) == []
