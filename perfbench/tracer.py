"""Layer spans recorded from outside the program.

The tracer replaces the public functions of each schroder module with
wrappers, in every module namespace that holds them (``from .polyring
import normal_form`` makes ``schroder.classify.normal_form`` a second name
for the same function, and callers look up whichever their module has).
Each wrapper records one span: its layer, its parent span's layer, and its
duration.  Spans are aggregated as they close, so memory stays flat however
many calls a run makes:

* a layer's self time is the sum of its spans' durations minus the time
  covered by their child spans;
* ``edges`` keeps, per (parent layer, layer), the number of spans and their
  total duration, which is the span tree folded by layer.

The program is single-process and single-threaded, so no layer ever waits
for another and there is no waiting time to report.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module, names); a dotted name is an attribute of a class there.
LAYERS = {
    "combinatorics.enumerate": (
        "schroder.combinatorics", ("enumerate_dissections", "enumerate_trees")),
    "combinatorics.bijection": (
        "schroder.combinatorics", ("dissection_to_tree", "tree_to_dissection")),
    "combinatorics.canonical": (
        "schroder.combinatorics", ("canonical_code", "canonical_form")),
    "cli.command": (
        "schroder.cli",
        ("main", "cmd_enumerate", "cmd_table", "cmd_cohomology", "cmd_fano",
         "cmd_iso", "cmd_classify")),
    "fan.build_direct": ("schroder.fan", ("build_fan_direct",)),
    "fan.build_subdivision": ("schroder.fan", ("build_fan_subdivision",)),
    "fan.is_smooth": ("schroder.fan", ("is_smooth",)),
    "fan.fano": (
        "schroder.fan", ("is_fano", "primitive_collections", "primitive_relation")),
    "cohomology.tree_ring": ("schroder.cohomology", ("schroeder_presentation",)),
    "cohomology.dj_eliminate": ("schroder.cohomology", ("dj_presentation", "eliminate")),
    "polyring.normal_form": ("schroder.polyring", ("normal_form",)),
    "polyring.mul": ("schroder.polyring", ("IntPolynomial.__mul__",)),
    "polyring.hilbert": ("schroder.polyring", ("hilbert_series",)),
    "classify.fingerprint": ("schroder.classify", ("fingerprint",)),
    "classify.iso": ("schroder.classify", ("cohomology_isomorphic_bounded",)),
    "classify.verify": ("schroder.classify", ("verify_theorem1", "count_classes")),
}


class Tracer:
    """Span aggregates for one operation; install() patches the program."""

    def __init__(self):
        self.stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.edges: dict[tuple, list] = {}
        self.root_s = 0.0
        self.cones = 0
        self.fingerprint_args: list = []
        self.verdicts = {"YES": 0, "NO": 0, "UNKNOWN": 0}
        self.missing: list[str] = []

    def _hook(self, layer):
        if layer in ("fan.build_direct", "fan.build_subdivision"):
            def count_cones(args, result):
                self.cones += len(result.max_cones)
            return count_cones
        if layer == "classify.fingerprint":
            return lambda args, result: self.fingerprint_args.append(
                (args[0].n, args[0].diagonals))
        if layer == "classify.iso":
            def count_verdict(args, result):
                self.verdicts[result.status] += 1
            return count_verdict
        return None

    def wrap(self, layer, fn):
        stack, clock, hook = self.stack, time.perf_counter, self._hook(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                self.self_s[layer] += took - frame[1]
                self.calls[layer] += 1
                edge = self.edges.setdefault((parent, layer), [0, 0.0])
                edge[0] += 1
                edge[1] += took
                if stack:
                    stack[-1][1] += took
                else:
                    self.root_s += took
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every schroder namespace that holds a traced function."""
        namespaces = [
            m.__dict__ for name, m in list(sys.modules.items())
            if name == "schroder" or name.startswith("schroder.")
        ]
        for layer, (module, names) in LAYERS.items():
            for name in names:
                owner = sys.modules.get(module)
                *path, attr = name.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                wrapper = self.wrap(layer, original)
                scopes = [vars(owner)] if path else namespaces
                for scope in scopes:
                    for key, value in list(scope.items()):
                        if value is original:
                            if path:
                                setattr(owner, key, wrapper)
                            else:
                                scope[key] = wrapper

    def report(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "errors": self.errors,
            "root_s": self.root_s,
            "edges": [[p, l, c, t] for (p, l), (c, t) in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "cones": self.cones,
            "verdicts": self.verdicts,
            "missing": self.missing,
        }
