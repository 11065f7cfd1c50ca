"""The benchmark's tracer wraps program names; each must still exist and be used.

``perfbench/tracing.py`` replaces ``vars(owner)[attr]`` for every site it
lists, so a refactor that drops or renames one of them breaks the traced
benchmark with a ``KeyError``, and one that routes a call around a listed
name makes its counter read zero.  These tests catch both in the unit suite.
"""

import importlib
import sys
from contextlib import contextmanager
from pathlib import Path

from gripsim.assembly import Command, Verb, build_gripper, run_commands
from gripsim.scene import SceneObject

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@contextmanager
def _tracing_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        # drop the benchmark's modules (tracing, workloads, gen) again
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]


def test_every_traced_site_is_bound_on_its_owner(monkeypatch):
    with _tracing_module(monkeypatch) as tracing:
        sites = [site for table in (tracing._SPANS, tracing._COUNTS)
                 for group in table.values() for site in group]
    assert sites
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr in sites if attr not in vars(owner)]
    assert missing == []
    assert all(callable(vars(owner)[attr]) for owner, attr in sites)


def test_the_tracer_sees_the_clearance_kernels(monkeypatch):
    with _tracing_module(monkeypatch) as tracing:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for obj in (SceneObject.circle(40.0, y=-58.0),
                        SceneObject.rectangle(80.0, 80.0, y=-110.0)):
                run_commands(build_gripper(), obj, [Command(Verb.CLOSE, 10)])
        finally:
            tracer.uninstall()
        clearance_calls = tracer.per_name()["scene.clearance"]["calls"]
    assert tracer.count("geometry.segseg_calls") > 0
    assert tracer.count("geometry.ptseg_calls") > 0
    assert clearance_calls > 0
