"""One in-process pass of each benchmark workload of bench/workloads.py,
imported read-only as test_bench_trace.py imports bench/layers.py, at the
reference seed 0 and at seed 7.  No operation may fail, and the seed-0
work counts are pinned, so an output the benchmark would count as wrong,
or an operation it would count as failed, fails the test suite first."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import combings
from bruteforce import REF
from combings import cli, nfa, structures

ROOT = Path(__file__).resolve().parents[1]
# the names bench/run.py's import_library hands to a workload
LIB = SimpleNamespace(
    Alphabet=combings.Alphabet,
    Nfa=combings.Nfa,
    Transducer=combings.Transducer,
    LinearLanguage=combings.LinearLanguage,
    AbelianOracle=combings.AbelianOracle,
    FiniteOracle=combings.FiniteOracle,
    nfa=nfa,
    structures=structures,
    cli=cli,
)
# p.sizes of one seed-0 pass, as bench/run.py prints them
SEED0_SIZES = {
    "z2-roundtrip": {"z2": (251, 752, 2717, 35, 5, 6)},
    "small-groups": {
        "Z": (31, 4),
        "Z/3 from aaa": (1, 10),
        "Z/3": (21, 28, 1, 10),
        "Z/7": (49, 92, 1, 32),
        "Z/12": (106, 238, 1, 71),
        "D5": (270, 535, 1, 46),
        "D6": (350, 734, 1, 59),
        "D8": (536, 1210, 1, 87),
        "S3": (148, 257, 1, 24),
        "S4": (1019, 2437, 1, 143),
        "S5": (8893, 23958, 1, 994),
    },
    "z3-cli": {"Z3 generators up to length 8": (272,)},
}


def _bench_workloads():
    """bench/workloads.py, with bench/reference.py as the `reference`
    module it imports, which is taken out of sys.modules again."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["reference"] = REF
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules["reference"]
    return mod


WORKLOADS = _bench_workloads()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(SEED0_SIZES))
def test_one_pass_of_each_workload(name, seed, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]()
    workload.setup(LIB, seed, tmp_path)
    p = WORKLOADS.Pass()
    workload.run(p)
    assert p.failures == []
    if seed == 0:
        assert p.sizes == SEED0_SIZES[name]
