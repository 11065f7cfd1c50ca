"""The benchmark's tracer wraps program names; each must still exist.

``perfbench/tracing.py`` replaces ``vars(owner)[attr]`` for every site it
lists, so a refactor that drops or renames one of them breaks the traced
benchmark with a ``KeyError``.  This test catches that in the unit suite.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_site_is_bound_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        sites = [site for table in (tracing._SPANS, tracing._COUNTS)
                 for group in table.values() for site in group]
    finally:
        # drop the benchmark's modules (tracing, workloads, gen) again
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]
    assert sites
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr in sites if attr not in vars(owner)]
    assert missing == []
    assert all(callable(vars(owner)[attr]) for owner, attr in sites)
