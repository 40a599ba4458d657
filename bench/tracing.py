"""Spans at the module boundaries of sosperturb, recorded from outside.

`Tracer.install` wraps the public functions of each layer and patches every
module's binding of them (``from .sdp import solve`` leaves a second binding
in `sos` and `preorder`), the static constructors on their classes, and the
callback of every CLI command.  A span records its name, start, end and the
index of its parent span; spans stay in memory and are written once, at the
end of the run.  A layer is the part of a span name before the first dot.

`layer_metrics` turns the spans of one round into the per-layer metrics.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans of a round add up to the time its job spans
cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# extended-precision class of `sdp.solve`: m <= 96 and every block <= 28
SMALL_M = 96
SMALL_BLOCK = 28


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_obj(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


def _solve_attrs(args, kwargs, sol) -> dict:
    problem = args[0] if args else kwargs["problem"]
    sizes = problem.block_sizes
    return {"m": problem.n_constraints, "blocks": list(sizes),
            "small": problem.n_constraints <= SMALL_M and max(sizes) <= SMALL_BLOCK,
            "iterations": sol.iterations, "status": sol.status.value}


def _from_rows_attrs(args, kwargs, problem) -> dict:
    nbytes = sum(a.nbytes for a in problem.A) + problem.F.nbytes
    return {"m": problem.n_constraints, "constraint_bytes": nbytes}


def _sweep_attrs(args, kwargs, result) -> dict:
    return {"trajectory": [entry["status"] for entry in result.trajectory]}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """fn inside a span called `name`; on_result(args, kwargs, result)
        returns the attributes recorded with it."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(record)
            record.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record.end = clock()
                stack.pop()
            if on_result is not None:
                record.attrs = on_result(args, kwargs, out)
            return out

        return traced

    # -- patching ---------------------------------------------------------

    def _patch_function(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        traced = self.wrap(name, original, **hooks)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sosperturb" or key.startswith("sosperturb.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    self._undo.append(functools.partial(setattr, module, key, value))

    def _patch_static(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        traced = self.wrap(name, original.__func__, **hooks)
        setattr(cls, attr, staticmethod(traced))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def install(self) -> None:
        from sosperturb import chebyshev, cli, parsing, preorder, sdp, sos
        patch = self._patch_function

        patch(sdp, "solve", "sdp.solve", on_result=_solve_attrs)
        self._patch_static(sdp.SdpProblem, "from_rows", "sdp.from_rows",
                           on_result=_from_rows_attrs)

        # private assembly boundaries: skipped if a refactor renames them
        patch(sos, "_ReducedGram", "sos.assemble")
        patch(preorder, "_product_blocks", "preorder.assemble")

        for attr in ("epsilon_star", "is_sos", "approximate_on_box",
                     "extract_certificate", "verify_certificate",
                     "verify_certificate_obj"):
            patch(sos, attr, f"sos.{attr}")
        patch(sos, "minimal_r", "sos.minimal_r", on_result=_sweep_attrs)
        self._patch_static(sos.GramCertificate, "from_gram", "sos.from_gram")

        patch(preorder, "epsilon_star_preorder", "preorder.epsilon_star_preorder")
        patch(preorder, "verify_preorder_obj", "preorder.verify_preorder_obj")
        patch(preorder, "membership", "preorder.membership")

        for attr in ("to_chebyshev", "monomial_to_chebyshev", "times_t",
                     "multiply", "monomial_matrix", "moments_to_monomials"):
            patch(chebyshev, attr, f"chebyshev.{attr}")

        patch(parsing, "parse", "parsing.parse")

        for command in cli.main.commands.values():
            original = command.callback
            command.callback = self.wrap(f"cli.{command.name}", original)
            self._undo.append(functools.partial(setattr, command, "callback", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s.to_obj() for s in self.spans], handle)


def layer_metrics(spans: List[Span], first: int, wall_s: float,
                  report_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of the round whose spans start at index `first`."""
    spans_round = spans[first:]
    by_index = {first + i: s for i, s in enumerate(spans_round)}
    children: Dict[int, List[int]] = defaultdict(list)
    child_time: Dict[int, float] = defaultdict(float)
    for i, s in by_index.items():
        if s.parent >= first:
            children[s.parent].append(i)
            child_time[s.parent] += s.end - s.start
    self_time = {i: s.end - s.start - child_time[i] for i, s in by_index.items()}

    def self_of(*names: str) -> float:
        return sum(self_time[i] for i, s in by_index.items() if s.name in names)

    def self_of_layer(layer: str) -> float:
        return sum(self_time[i] for i, s in by_index.items() if s.layer == layer)

    # a solve that raised has no attributes; its operation counts as failed
    solves = [s for s in spans_round if s.name == "sdp.solve" and s.attrs]
    small = [s for s in solves if s.attrs["small"]]
    large = [s for s in solves if not s.attrs["small"]]
    iterations = sum(s.attrs["iterations"] for s in solves)
    nonoptimal = [s for s in solves if s.attrs["status"] != "Optimal"]
    solve_s = sum(s.end - s.start for s in solves)
    from_rows = [s for s in spans_round if s.name == "sdp.from_rows"]
    sos_sweeps = [s.attrs["trajectory"] for s in spans_round
                  if s.name == "sos.minimal_r" and s.attrs]

    # a membership sweep runs the weight program once per degree, and the
    # feasibility re-solve as a direct solve
    pre_degrees = resolves = 0
    for i, s in by_index.items():
        if s.name == "preorder.membership":
            names = [by_index[c].name for c in children[i]]
            pre_degrees += names.count("preorder.epsilon_star_preorder")
            resolves += names.count("sdp.solve")

    layers = {layer: self_of_layer(layer)
              for layer in ("cli", "parsing", "sos", "preorder", "chebyshev", "sdp")}
    return {
        "sdp.solves": len(solves),
        "sdp.iterations": iterations,
        "sdp.small_solve_s": sum(s.end - s.start for s in small),
        "sdp.small_iterations": sum(s.attrs["iterations"] for s in small),
        "sdp.large_solve_s": sum(s.end - s.start for s in large),
        "sdp.large_iterations": sum(s.attrs["iterations"] for s in large),
        "sdp.ms_per_iteration": 1000.0 * solve_s / iterations if iterations else 0.0,
        "sdp.nonoptimal_solves": len(nonoptimal),
        "sdp.wasted_iterations": sum(s.attrs["iterations"] for s in nonoptimal),
        "sdp.optimal_ratio": (len(solves) - len(nonoptimal)) / len(solves) if solves else 1.0,
        "sdp.from_rows_s": self_of("sdp.from_rows"),
        "sdp.constraint_mb": max((s.attrs["constraint_bytes"] for s in from_rows),
                                 default=0) / 2 ** 20,
        "sdp.self_s": layers["sdp"],
        "sos.assemble_s": self_of("sos.assemble"),
        "sos.extract_s": self_of("sos.from_gram", "sos.extract_certificate"),
        "sos.residual_s": self_of("sos.verify_certificate", "sos.verify_certificate_obj"),
        "sos.sweep_degrees": sum(len(t) for t in sos_sweeps),
        "sos.failed_degrees": sum(1 for t in sos_sweeps for st in t if st != "ok"),
        "sos.self_s": layers["sos"],
        "preorder.assemble_s": self_of("preorder.assemble"),
        "preorder.resolves": resolves,
        "preorder.sweep_degrees": pre_degrees,
        "preorder.self_s": layers["preorder"],
        "chebyshev.convert_s": layers["chebyshev"],
        "parsing.parse_s": layers["parsing"],
        "cli.commands": sum(1 for s in spans_round if s.name == "cli.main"),
        "cli.self_s": layers["cli"],
        "cli.verify_s": sum(s.end - s.start for s in spans_round if s.name == "cli.verify"),
        "cli.report_kb": report_bytes / 1024.0,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(layers.values()),
    }
