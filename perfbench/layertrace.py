"""Per-layer spans and counters, recorded from outside the takiff package.

A traced run rebinds selected takiff functions to wrappers that record one
span per call: name, start, end, parent span and the input id of the timed
operation that caused it. Spans are kept in memory in flat arrays and
written out when the run ends. A layer's self time is the duration of its
spans minus the time covered by their child spans; everything runs in one
thread, so child spans never overlap and that coverage is a plain sum.

Wrappers record only between ``begin_op`` and ``end_op``, so work the
benchmark itself does around an operation (checks, glue, digests) never shows
up in a layer's figures. Nothing is patched outside ``install``/``uninstall``,
so untraced runs execute the package unmodified.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from takiff import cli, decompose, invariants, jsonio, lie, matrices, poly, randgen
from takiff import takiff_algebra

ROOT_SPAN = "bench.op"


def _poly_terms_out(counters, args, result):
    if isinstance(result, poly.Polynomial):
        counters["poly.mul.terms_out"] += len(result.terms)


def _dumps_bytes(counters, args, result):
    counters["jsonio.bytes"] += len(result.encode("utf-8"))


def _loads_bytes(counters, args, result):
    counters["jsonio.bytes"] += len(args[0].encode("utf-8"))


def _json_functions(suffix: str) -> list[str]:
    return sorted(name for name in vars(jsonio)
                  if name.endswith(suffix) and callable(getattr(jsonio, name)))


# (span name, owner, attribute names, counter hook). The owner is a module or
# a class; every attribute listed is wrapped under the same span name.
TARGETS = (
    ("poly.mul", poly.Polynomial, ("__mul__",), _poly_terms_out),
    ("poly.add", poly.Polynomial, ("__add__",), None),
    ("poly.derivative", poly.Polynomial, ("derivative",), None),
    ("poly.substitute", poly.Polynomial, ("substitute",), None),
    ("poly.substitute_curve", poly, ("substitute_curve",), None),
    ("matrices.mul", matrices, ("mul",), None),
    ("matrices.elim", matrices, ("rank", "det", "inverse", "solve"), None),
    ("lie.algebra_check", lie.LieAlgebra, ("__post_init__",), None),
    ("lie.rep_check", lie.Representation, ("__post_init__",), None),
    ("takiff_algebra.build_takiff", takiff_algebra, ("build_takiff",), None),
    ("takiff_algebra.lift_representation", takiff_algebra,
     ("lift_representation",), None),
    ("invariants.lift_family", invariants, ("lift_family",), None),
    ("invariants.is_invariant", invariants, ("is_invariant",), None),
    ("decompose.precheck", decompose, ("annihilates_invariants",), None),
    ("decompose.base_solve", decompose.QuadraticBaseSolver, ("solve",), None),
    ("decompose.base_solve", decompose.TrivialBaseSolver, ("solve",), None),
    ("decompose.verify", decompose, ("verify_decomposition",), None),
    ("randgen.generate_instance", randgen, ("generate_instance",), None),
    ("jsonio.dumps", jsonio, ("dumps",), _dumps_bytes),
    ("jsonio.loads", jsonio, ("loads",), _loads_bytes),
    ("jsonio.from_json", jsonio, tuple(_json_functions("_from_json")), None),
    ("jsonio.to_json", jsonio, tuple(_json_functions("_to_json")), None),
    ("cli.main", cli, ("main",), None),
)

# The layers, named after the takiff modules; the root span is the benchmark.
MODULES = ("poly", "matrices", "lie", "takiff_algebra", "invariants",
           "decompose", "randgen", "jsonio", "cli")


def _takiff_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "takiff" or name.startswith("takiff."))]


class Tracer:
    """Spans of the timed operations, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("i")
        self.input_id = array("q")
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._input = -1
        self._patches: list[tuple[object, str, object]] = []
        self._root = self.intern(ROOT_SPAN)

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span recording ----------------------------------------------------

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.input_id.append(self._input)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, input_id: int) -> int:
        self._input = input_id
        self.active = True
        return self.enter(self._root)

    def end_op(self, idx: int) -> None:
        self.exit(idx)
        self.active = False

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper) -> int:
        """Point every takiff name bound to ``original`` at ``wrapper``."""
        owners = list(_takiff_modules())
        owners += [poly.Polynomial, lie.LieAlgebra, lie.Representation,
                   decompose.QuadraticBaseSolver, decompose.TrivialBaseSolver]
        count = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    count += 1
        return count

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, owner, attrs, hook in TARGETS:
            for attr in attrs:
                original = vars(owner)[attr]
                if self._rebind(original, self._wrap(name, original, hook)) == 0:
                    raise RuntimeError(f"nothing bound to {name} ({attr})")
        init = poly.Polynomial.__init__
        counters = self.counters
        tracer = self

        def counted_init(obj, *args, **kwargs):
            if tracer.active:
                counters["poly.init.calls"] += 1
            init(obj, *args, **kwargs)

        self._rebind(init, counted_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> tuple[dict[str, int], dict[str, float]]:
        """Span count and total self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return dict(calls), dict(self_s)

    def op_seconds(self) -> float:
        """Total duration of the root spans, one per timed operation."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def write(self, path: Path) -> None:
        """One tab-separated line per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tparent\tname\tinput\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{names[self.name_id[i]]}\t"
                          f"{self.input_id[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n")


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]

