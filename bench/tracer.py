"""Per-layer span tracing of sicps, installed from outside the library.

Every public function of each traced module (plus the methods named in
TRACED_METHODS) is replaced by a timing wrapper at every place it can be
looked up: its own module, each other ``sicps`` module that imported it by
name, and its class.  Spans nest through a stack, so a span's self time is
its duration minus the durations of its direct child spans, and a module's
self time is the sum over its spans.  Time spent in untraced code (private
helpers, the small helpers in UNTRACED, generators) counts toward the traced
function that called it.

No span is kept: each finished span is folded into per-function totals, so
memory stays flat even when a pass makes hundreds of thousands of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("cli", "macc", "bounds", "scheme", "coloring", "field", "icp")

# Called so often, for so little work each, that wrapping them would distort
# the numbers more than it explains them.
UNTRACED = frozenset({
    "icp.wrap",
    "icp.rotate_gaps",
    "icp.canonical_rotation",
    "icp.minimal_period",
    "icp.require_leading_max",
    "icp.single_known_files",
    "field.is_prime",
    "macc.composition_count_max_below",
    "macc.composition_count_max_eq",
})

TRACED_METHODS = ("scheme.TransmissionScheme.transmit",)

# Inclusive time (and call count) of these functions make the stage metrics.
STAGES = {
    "field.solve": ("field.solve_mod",),
    "scheme.build": ("scheme.build_mds_scheme",),
    "scheme.transmit": ("scheme.TransmissionScheme.transmit",),
    "scheme.decode": ("scheme.decode_node",),
    "coloring.verify": ("coloring.verify_proper",),
    "coloring.lcv": ("coloring.local_chromatic_value",),
    "icp.union": ("icp.build_union_icp", "icp.to_suicp"),
    "bounds.oracle": ("bounds.mais_bruteforce",),
    "bounds.acyclic": ("bounds.is_acyclic_induced",),
    "macc.placement": ("macc.placement_map",),
    "macc.delivery": ("macc.build_delivery_icp",),
    "macc.classes": ("macc.group_rotation_classes",),
    "macc.rate": ("macc.rate_new", "macc.rate_hkd", "macc.rate_rk",
                  "macc.rate_closed_form_large_L"),
    "icp.union_builds": ("icp.build_union_icp",),
    "cli.main": ("cli.main",),
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span stack plus per-function totals; `install` patches, `uninstall` restores."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.traced: set[str] = set()
        self._stack: list[list] = []  # [key, child seconds, notes]
        self._patched: list[tuple[object, str, object]] = []
        self._op_graphs: set = set()
        self._op_specs: set = set()
        self._hooks = {
            "field.solve_mod": self._on_solve,
            "scheme.build_mds_scheme": self._on_build_scheme,
            "coloring.local_chromatic_value": self._on_lcv,
            "coloring.verify_proper": self._on_verify,
            "icp.build_union_icp": self._on_union,
            "bounds.mais_bruteforce": self._on_oracle,
            "macc.placement_map": self._on_placement,
            "macc.build_delivery_icp": self._on_delivery,
            "macc.group_rotation_classes": self._on_classes,
        }

    # -- counters computed from arguments and results -----------------------

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _on_solve(self, args, kwargs, result, notes, parent) -> None:
        self._count("field.solve_ops", len(_arg(args, kwargs, 1, "rhs")) ** 3)

    def _on_lcv(self, args, kwargs, result, notes, parent) -> None:
        # The value build_mds_scheme computes is the row count decoding needs.
        if parent is not None and parent[0] == "scheme.build_mds_scheme":
            parent[2]["needed"] = result

    def _on_build_scheme(self, args, kwargs, result, notes, parent) -> None:
        self._count("scheme.rows", result.chi)
        self._count("scheme.rows_needed", notes.get("needed", result.chi))

    def _on_verify(self, args, kwargs, result, notes, parent) -> None:
        graph = _arg(args, kwargs, 0, "graph")
        self._op_graphs.add((graph.K, graph.num_columns, graph.user_side))

    def _on_union(self, args, kwargs, result, notes, parent) -> None:
        self._op_specs.add(result.spec)
        self._count("icp.nodes", result.K * result.i)

    def _on_oracle(self, args, kwargs, result, notes, parent) -> None:
        self._count("bounds.oracle_nodes", len(_arg(args, kwargs, 0, "graph")))

    def _on_placement(self, args, kwargs, result, notes, parent) -> None:
        self._count("macc.placement_sets", len(result.sets))

    def _on_delivery(self, args, kwargs, result, notes, parent) -> None:
        self._count("macc.columns", len(result.columns))

    def _on_classes(self, args, kwargs, result, notes, parent) -> None:
        self._count("macc.classes", len(result))

    def end_op(self) -> None:
        """Close one CLI op: graphs and specs count as distinct within an op only."""
        self._count("coloring.graphs", len(self._op_graphs))
        self._count("icp.distinct_specs", len(self._op_specs))
        self._op_graphs.clear()
        self._op_specs.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        hook = self._hooks.get(key)
        clock = time.perf_counter
        for table in (calls, total_s, self_s):
            table.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0, {}]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[key] += 1
                total_s[key] += elapsed
                self_s[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, kwargs, result, frame[2], stack[-1] if stack else None)
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"sicps.{name}") for name in MODULES}
        sites = [m for n, m in sorted(sys.modules.items())
                 if m is not None and (n == "sicps" or n.startswith("sicps."))]
        for short, module in modules.items():
            for name, fn in list(vars(module).items()):
                key = f"{short}.{name}"
                if (name.startswith("_") or key in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(key, fn)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, attr, wrapper)
                self.traced.add(key)
        for key in TRACED_METHODS:
            short, cls_name, name = key.split(".")
            cls = getattr(modules[short], cls_name, None)
            fn = None if cls is None else cls.__dict__.get(name)
            if inspect.isfunction(fn):
                self._patch(cls, name, self._wrap(key, fn))
                self.traced.add(key)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- summaries -----------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {name: 0.0 for name in MODULES}
        for key, seconds in self.self_s.items():
            out[key.split(".")[0]] += seconds
        return out

    def stage(self, name: str) -> tuple[float, int] | None:
        """(inclusive seconds, calls) of a stage; None when none of its functions exist."""
        keys = [k for k in STAGES[name] if k in self.traced]
        if not keys:
            return None
        return (sum(self.total_s[k] for k in keys), sum(self.calls[k] for k in keys))
