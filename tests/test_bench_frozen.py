"""The benchmark's frozen verifier results, recomputed with the library.

`perfbench/frozen.py` holds the results the benchmark checks its
quad_verify and qi jobs against; a change to a verifier that would fail
those checks fails here first.  The module is imported, never written.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_frozen_tables_match_the_library(monkeypatch):
    # frozen.compute imports the benchmark's workloads module by its bare
    # name; no bytecode is cached under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_frozen", PERFBENCH / "frozen.py")
    frozen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frozen)
    computed = frozen.compute()
    assert set(computed) == {"LAMP", "TABACK", "SCHWARTZ", "QI", "BALL_SIZE"}
    for name, value in computed.items():
        assert value == getattr(frozen, name), name
