"""Spans and counters recorded from outside the program.

Wrappers are installed at the name each caller looks up (a module attribute
or a class attribute) and removed afterwards, so gripsim itself is not
modified.  Spans stay in memory until ``write_spans``.  Each thread counts
into its own dict, merged when read, so counts stay exact while the CLI's
thread pool runs scenarios concurrently.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import gripsim.assembly
import gripsim.cli
import gripsim.finger
import gripsim.geometry
import gripsim.linkage
import gripsim.render
import gripsim.report
import gripsim.scenario
import gripsim.scene
import gripsim.transmission
from gripsim.config import GripperConfig
from gripsim.scene import SceneObject

import workloads

# span name -> (owner, attribute) pairs; the same name may sit at several
# lookup sites when more than one module calls the function.
_SPANS = {
    "bench.scenario": [(workloads, "run_case")],
    "cli.main": [(gripsim.cli, "main")],
    "cli.run_scenario": [(gripsim.cli, "run_scenario")],
    "scenario.parse": [(gripsim.scenario, "parse_scenario"), (gripsim.cli, "parse_scenario")],
    "assembly.run": [(gripsim.assembly, "run_commands")],
    "report.render": [(gripsim.report, "render_report"), (gripsim.cli, "render_report")],
    "render.frame": [(gripsim.render, "frame_svg")],
    "render.contact_detect": [(gripsim.render, "contact_detect")],
    "scene.clearance": [(SceneObject, "clearance_to_segment")],
    "finger.pose": [(gripsim.finger, "phalanx_poses")],
    "finger.step": [(gripsim.finger, n) for n in (
        "advance_theta1", "envelope_step", "decouple_step", "distal_retract", "apply_contact")],
    "linkage.solve": [(gripsim.linkage, n) for n in sorted(vars(gripsim.linkage))
                      if n.startswith("solve_")] + [(gripsim.linkage, n) for n in (
                          "select_root", "anchor_alpha", "alpha_candidates_for_length")],
    "config.params": [(GripperConfig, "finger_params"), (GripperConfig, "transmission_params")],
    "transmission.step": [(gripsim.transmission, "step_transmission")],
}

# counted only: these run too often for a span each
_COUNTS = {
    "geometry.segseg_calls": [(gripsim.scene, "segment_segment_distance")],
    "geometry.ptseg_calls": [(gripsim.scene, "point_segment_distance"),
                             (gripsim.geometry, "point_segment_distance")],
}

# span name -> counter fed from the wrapped call's return value
_RESULT_COUNTS = {
    "report.render": lambda out: [("report.bytes", len(out.encode("utf-8")))],
    "render.frame": lambda out: [("render.bytes", len(out.encode("utf-8")))],
    "transmission.step": lambda out: [(f"transmission.route.{out[1].value}", 1)],
}


class Tracer:
    def __init__(self) -> None:
        # (id, parent, name, start, end, request, thread, outermost)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._threads = itertools.count(0)
        self._open_cli_main = 0   # spans of the CLI's pool threads are its children
        self._local = threading.local()
        self._thread_counts: list[defaultdict] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, sites in _SPANS.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._span(name, vars(owner)[attr]))
        for name, sites in _COUNTS.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._count(name, vars(owner)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _thread_state(self):
        local = self._local
        local.thread = next(self._threads)
        local.stack = [self._open_cli_main] if self._open_cli_main else []
        local.active = defaultdict(int)
        local.request = 0
        local.counts = defaultdict(int)
        self._thread_counts.append(local.counts)
        return local.stack

    def _count(self, name: str, fn):
        local = self._local

        def counted(*args, **kwargs):
            if not hasattr(local, "counts"):
                self._thread_state()
            local.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        on_result = _RESULT_COUNTS.get(name)
        new_request = name in ("bench.scenario", "cli.run_scenario")
        is_cli_main = name == "cli.main"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = self._thread_state()
            outer_request = local.request
            if new_request:
                local.request = next(self._requests)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            outermost = local.active[name] == 0
            stack.append(sid)
            local.active[name] += 1
            if is_cli_main:
                self._open_cli_main = sid
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                local.active[name] -= 1
                if is_cli_main:
                    self._open_cli_main = 0
                spans.append((sid, parent, name, start, end, local.request, local.thread,
                              outermost))
                local.request = outer_request
            if on_result is not None:
                for counter, amount in on_result(out):
                    local.counts[counter] += amount
            return out
        return traced

    def count(self, name: str) -> int:
        return sum(counts.get(name, 0) for counts in self._thread_counts)

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds (outermost spans only) and self seconds per span name.

        Self time subtracts only children on the span's own thread; a span of
        a pool thread includes the time it waited for the GIL.
        """
        thread_of = {sid: thread for sid, _, _, _, _, _, thread, _ in self.spans}
        child = defaultdict(float)
        for _, parent, _, start, end, _, thread, _ in self.spans:
            if thread_of.get(parent) == thread:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in _SPANS}
        for sid, _, name, start, end, _, _, outermost in self.spans:
            row = out[name]
            row["calls"] += 1
            if outermost:
                row["incl_s"] += end - start
            row["self_s"] += end - start - child.get(sid, 0.0)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\trequest\tthread\n")
            for sid, parent, name, start, end, request, thread, _ in self.spans:
                f.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{request}\t{thread}\n")


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of one traced pass; span seconds are multiplied by ``scale``."""
    rows = {name: {k: v * scale if k.endswith("_s") else v for k, v in row.items()}
            for name, row in tracer.per_name().items()}
    m: dict[str, float] = {}
    for name in ("scene.clearance", "finger.pose", "finger.step", "linkage.solve",
                 "config.params", "transmission.step"):
        m[f"{name}_calls"] = rows[name]["calls"]
        m[f"{name}_s"] = rows[name]["incl_s"]
    m["geometry.segseg_calls"] = tracer.count("geometry.segseg_calls")
    m["geometry.ptseg_calls"] = tracer.count("geometry.ptseg_calls")
    for route in ("drive", "base", "stall"):
        m[f"transmission.route.{route}"] = tracer.count(f"transmission.route.{route}")
    m["assembly.run_s"] = rows["assembly.run"]["incl_s"]
    m["assembly.self_s"] = rows["assembly.run"]["self_s"]
    m["scenario.parse_s"] = rows["scenario.parse"]["incl_s"]
    m["report.render_s"] = rows["report.render"]["incl_s"]
    m["report.bytes"] = tracer.count("report.bytes")
    m["render.frame_calls"] = rows["render.frame"]["calls"]
    m["render.frame_s"] = rows["render.frame"]["incl_s"]
    m["render.contact_detect_s"] = rows["render.contact_detect"]["incl_s"]
    m["render.bytes"] = tracer.count("render.bytes")
    cli_wall = rows["cli.main"]["incl_s"]
    m["cli.parallelism"] = rows["cli.run_scenario"]["incl_s"] / cli_wall if cli_wall else 0.0
    return m
