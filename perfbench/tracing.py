"""Per-layer tracing of fuzzsphere from outside the package.

The tracer wraps public functions of the package and rebinds every module
attribute (and every ``cli.ALL_CHECKS`` entry) that refers to the original,
so direct calls, ``from .x import f`` copies and lazy imports inside function
bodies all go through the wrapper.  ``uninstall`` puts the originals back.

Each wrapper counts calls, inclusive time and self time (inclusive time minus
the time of wrapped calls made inside it).  Layers called a few thousand
times per pass also record one span per call; hot leaves such as
``ssh_eval`` (about 3e5 calls per ``verify`` pass) keep only the aggregate
counters.  Spans stay in memory until the child reports them at exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (layer name, attribute of the layer's module, record spans?) for every
# wrapped function; the module is the first part of the name.  A dotted
# attribute names a method on a class.
LAYERS = (
    ("quad.integrate_sphere", "integrate_sphere", False),
    ("quad.nodes_and_weights", "SphereGrid.nodes_and_weights", False),
    ("csquant.quantize_quadrature", "quantize_quadrature", True),
    ("ssh.ssh_eval", "ssh_eval", False),
    ("specfun.jacobi", "jacobi", False),
    ("wigner.three_j", "three_j", False),
    ("algebra.radical", "radical", False),
    ("algebra.ExactRadical.to_float", "ExactRadical.to_float", False),
    ("csquant.quantize_ylm_closed", "quantize_ylm_closed", True),
    ("ssh.rotation_operator", "rotation_operator", True),
    ("wigner.wigner_D", "wigner_D", False),
    ("csquant.coherent_state", "coherent_state", True),
    ("csquant.lower_symbol", "lower_symbol", True),
    ("fuzzy.sym_product", "sym_product", True),
    ("fuzzy.hat_ylm", "hat_ylm", True),
    ("fuzzy.ylm_as_polynomial", "ylm_as_polynomial", True),
    ("cli.save_matrix", "save_matrix", True),
    ("cli.load_matrix", "load_matrix", True),
)


@dataclass
class Stat:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    open: int = 0
    # calls made while the layer named by ``Tracer.INSIDE`` was open
    inside: int = 0
    # three_j only: calls that filled the cache, and their time
    misses: int = 0
    miss_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)


class Tracer:
    """Counters and spans for one child process."""

    # ssh_eval calls are also counted while a quadrature quantization is open
    INSIDE = ("ssh.ssh_eval", "csquant.quantize_quadrature")

    def __init__(self, modules: dict, three_j_cache: dict):
        self.modules = modules
        self.three_j_cache = three_j_cache
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.results: dict[str, object] = {}
        self.on = False
        self._stack: list[list[int]] = []
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, label: str):
        """Trace one benchmark op (one request) as a root span."""
        span_id = self._next_span
        self._next_span += 1
        self._stack.append([0, span_id])
        self.on = True
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self.on = False
            self._stack.pop()
            self.spans.append((span_id, 0, label, t0, t1))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, span, keep_result=False, cache=None):
        tracer = self
        stat = self.stats.setdefault(name, Stat())
        outer = None
        if name == self.INSIDE[0]:
            outer = self.stats.setdefault(self.INSIDE[1], Stat())
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = parent[1] if parent else 0
            frame = [0, span_id]
            stack.append(frame)
            size = len(cache) if cache is not None else 0
            stat.open += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stat.open -= 1
                stack.pop()
                elapsed = t1 - t0
                stat.calls += 1
                stat.incl_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if outer is not None and outer.open:
                    stat.inside += 1
                if cache is not None and len(cache) > size:
                    stat.misses += 1
                    stat.miss_ns += elapsed
                if span:
                    stat.durations_ns.append(elapsed)
                    tracer.spans.append(
                        (span_id, parent[1] if parent else 0, name, t0, t1)
                    )
            if keep_result:
                tracer.results[name] = result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every package-module attribute holding ``original`` at
        ``wrapper``."""
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, attr, span in LAYERS:
            mod = self.modules[name.split(".")[0]]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(name, original, span))
                continue
            original = getattr(mod, attr)
            cache = self.three_j_cache if name == "wigner.three_j" else None
            self._rebind(original, self._wrap(name, original, span, cache=cache))
        checks = self.modules["cli"].ALL_CHECKS
        for check, fn in list(checks.items()):
            name = f"cli.check.{check}"
            wrapper = self._wrap(name, fn, True, keep_result=True)
            self._patches.append((checks, check, fn))
            checks[check] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

