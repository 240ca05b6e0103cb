"""Outside-in tracing of goldenslant: wrappers, spans and per-layer totals.

A :class:`Tracer` replaces each public function listed in :data:`LAYERS`
with a wrapper at every goldenslant module (or class) that binds it, for
example ``frame_at`` in ``submanifold``, ``suites``, ``extrinsic``,
``slant`` and the package namespace.  Each call records a span
``(name, start_ns, end_ns, parent, pass_id)`` in memory.  ``QuadRat``
arithmetic operators only count calls: they are too small and too many to
time one by one.  :meth:`Tracer.remove` puts every original object back and
:func:`verify_untouched` proves that no wrapper is left behind.

A layer's self time is the time of its spans minus the time of their child
spans, whatever layer the children belong to.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# layer -> (module, [public names]); "Class.method" names a method.  A name
# list of None means every public function defined in that module.
LAYERS = {
    "config": ("goldenslant.config",
               ["load_config", "ScenarioConfig.build_structure",
                "ScenarioConfig.build_immersion"]),
    "expr": ("goldenslant.expr", ["parse", "jacobian", "hessians"]),
    "structures": ("goldenslant.structures",
                   ["verify_golden", "product_from_golden", "golden_from_product",
                    "golden_eigendecomp"]),
    "exactlin": ("goldenslant.exactlin", None),
    "submanifold": ("goldenslant.submanifold",
                    ["frame_at", "induced_operators", "structural_identity_residuals",
                     "exact_frame", "exact_induced_operators", "exact_identity_residuals"]),
    "extrinsic": ("goldenslant.extrinsic", None),
    "slant": ("goldenslant.slant", ["classify", "exact_slant_data"]),
    "spaceform": ("goldenslant.spaceform", None),
    "suites": ("goldenslant.suites",
               ["run_structure_suite", "run_identities_suite", "run_extrinsic_suite",
                "run_slant_suite", "run_curvature_suite", "run_scenario", "render_report"]),
    "cli": ("goldenslant.cli", ["resolve_config", "list_bundled", "main"]),
}

QUADRAT_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")

_MARK = "_perfbench_wrapped"


def _public_functions(module) -> list[str]:
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__)


def targets() -> list[tuple[str, str, str]]:
    """(layer, module name, attribute path) for every traced function."""
    out = []
    for layer, (modname, names) in LAYERS.items():
        module = sys.modules[modname]
        for name in names if names is not None else _public_functions(module):
            out.append((layer, modname, name))
    return out


def _bindings(modname: str, name: str) -> list[tuple[object, str, object]]:
    """Every (owner, attribute, raw object) in goldenslant that binds the target."""
    if "." in name:
        cls_name, attr = name.split(".")
        cls = getattr(sys.modules[modname], cls_name)
        return [(cls, attr, vars(cls)[attr])]
    original = vars(sys.modules[modname])[name]
    return [(module, name, original) for _, module in _goldenslant_modules()
            if vars(module).get(name) is original]


def _goldenslant_modules():
    return [(name, module) for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "goldenslant" or name.startswith("goldenslant."))]


class Tracer:
    """Installs span-recording wrappers and keeps the spans of every pass."""

    def __init__(self):
        self.names: list[str] = []  # span name table; spans store indexes
        self.layer_of: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.ops: Counter = Counter()  # pass id -> QuadRat operator calls
        self.pass_id = -1
        self._index: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_index(self, name: str, layer: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._index[name]

    def layer(self, name: str) -> str:
        return self.layer_of[self._index[name]]

    def _wrap(self, fn, name_id: int):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.pass_id)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, fn):
        ops = self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ops[self.pass_id] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, modname, name in targets():
            name_id = self.name_index(f"{modname.split('.')[-1]}.{name}", layer)
            for owner, attr, raw in _bindings(modname, name):
                self._saved.append((owner, attr, raw))
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self._wrap(raw.__func__, name_id)))
                else:
                    setattr(owner, attr, self._wrap(raw, name_id))
        quadrat = sys.modules["goldenslant.quadrat"].QuadRat
        for op in QUADRAT_OPERATORS:
            raw = vars(quadrat)[op]
            self._saved.append((quadrat, op, raw))
            setattr(quadrat, op, self._counter(raw))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        for owner, attr, raw in self._saved:
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record a span around a block the benchmark itself runs."""
        name_id = self.name_index(name, layer)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name_id, start, end, parent, self.pass_id)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: a name table, then one span per line.

        Each span line is ``[name, start_ns, end_ns, parent, pass]`` where
        ``name`` indexes the table and ``parent`` is a line number among the
        spans (-1 for a root span).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"names": self.names, "layers": self.layer_of}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")

    def totals(self) -> dict[int, dict]:
        """Per pass: call counts and inclusive ns per span name, self ns per layer."""
        child_ns = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict] = {}
        for i, (name_id, start, end, _, pass_id) in enumerate(self.spans):
            t = out.setdefault(pass_id, {"calls": Counter(), "incl_ns": Counter(),
                                         "self_ns": Counter()})
            name = self.names[name_id]
            t["calls"][name] += 1
            t["incl_ns"][name] += end - start
            t["self_ns"][self.layer_of[name_id]] += end - start - child_ns[i]
        return out


def verify_untouched() -> list[str]:
    """Every goldenslant attribute, module-level or on a class, that is a wrapper."""
    bad = []
    for modname, module in _goldenslant_modules():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and getattr(obj, _MARK, False):
                bad.append(f"{modname}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == modname:
                for cattr, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn) and getattr(fn, _MARK, False):
                        bad.append(f"{modname}.{attr}.{cattr}")
    return bad
