"""Outside-in tracer: wraps the public functions of each portclone module
from the benchmark's side and turns the spans into per-module metrics.

A span's self time is its duration minus the durations of the spans
called inside it. A span nested directly in a span of the same name is
part of the same operation (say, `symmetric_projector` building its
standalone projector): its time counts, its call does not.
"""

from __future__ import annotations

import functools
import sys
import time

CACHE_ATTRS = ("cache_clear", "cache_info", "cache_parameters")

# (span name, module, attribute). One span name may cover several functions.
SPANS = (
    ("tensor_core.matmul", "portclone.tensor_core", "LabeledOperator.__matmul__"),
    ("tensor_core.eig", "portclone.tensor_core", "hermitian_eig"),
    ("tensor_core.kron", "portclone.tensor_core", "kron_compose"),
    ("tensor_core.partial_trace", "portclone.tensor_core", "partial_trace"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("symmetry.projector", "portclone.symmetry", "symmetric_projector"),
    ("symmetry.projector", "portclone.symmetry", "symmetric_projector_standalone"),
    ("symmetry.perm_unitary", "portclone.symmetry", "permutation_unitary"),
    ("symmetry.perm_unitary", "portclone.symmetry", "embedded_permutation_unitary"),
    ("states.signal", "portclone.states", "pbt_signal"),
    ("states.signal", "portclone.states", "pbtc_signal"),
    ("states.signal", "portclone.states", "mpbt_signal"),
    ("states.average", "portclone.states", "ensemble_average"),
    ("cloning.adjoint", "portclone.cloning", "clone_adjoint_on_input"),
    ("measurements.pgm", "portclone.measurements", "pgm"),
    ("measurements.complete", "portclone.measurements", "complete"),
    ("measurements.pullback", "portclone.measurements", "clone_mpbt_povm"),
    ("channels.formula", "portclone.channels", "entanglement_fidelity_formula"),
    ("channels.formula", "portclone.channels", "formula_delta_contribution"),
    ("channels.choi", "portclone.channels", "entanglement_fidelity_choi"),
    ("channels.montecarlo", "portclone.channels", "haar_average_check"),
    ("channels.self", "portclone.channels", "protocol_fidelity"),
    ("verification.suite", "portclone.verification", "run_suite"),
    ("verification.self", "portclone.verification", "dense_overlap"),
    ("verification.self", "portclone.verification", "eta_bar_purity"),
    ("verification.self", "portclone.verification", "combinatorial_disjoint_overlap"),
    ("verification.self", "portclone.verification", "suite_passed"),
)

# Counters taken from a span's arguments or result, on calls that count.
COUNTS = {
    "tensor_core.matmul": lambda t, args, out: t.add(
        "tensor_core.matmul.gflop", 8 * args[0].entries.shape[0] ** 3 / 1e9
    ),
    "tensor_core.eig": lambda t, args, out: t.peak("tensor_core.eig.dim_max", args[0].dim),
    "kernel.eigh": lambda t, args, out: t.peak("kernel.eigh.dim_max", args[0].shape[-1]),
    "measurements.pgm": lambda t, args, out: t.add("measurements.pgm.elements", len(out.outcomes)),
}

# Per-module metric -> (unit, span it comes from, what is read from the span).
# "calls" and "self" read the span itself; anything else is a counter.
LAYERS = {
    "tensor_core.matmul_calls": ("count", "tensor_core.matmul", "calls"),
    "tensor_core.matmul_s": ("s", "tensor_core.matmul", "self"),
    "tensor_core.matmul_gflop": ("GFLOP", "tensor_core.matmul", "gflop"),
    "tensor_core.eig_calls": ("count", "tensor_core.eig", "calls"),
    "tensor_core.eig_s": ("s", "tensor_core.eig", "self"),
    "tensor_core.eig_dim_max": ("dim", "tensor_core.eig", "dim_max"),
    "tensor_core.operator_allocs": ("count", "tensor_core.operator", "allocs"),
    "tensor_core.operator_mb": ("MB", "tensor_core.operator", "mb"),
    "tensor_core.kron_s": ("s", "tensor_core.kron", "self"),
    "tensor_core.partial_trace_s": ("s", "tensor_core.partial_trace", "self"),
    "kernel.eigh_calls": ("count", "kernel.eigh", "calls"),
    "kernel.eigh_s": ("s", "kernel.eigh", "self"),
    "kernel.eigh_dim_max": ("dim", "kernel.eigh", "dim_max"),
    "symmetry.projector_calls": ("count", "symmetry.projector", "calls"),
    "symmetry.projector_s": ("s", "symmetry.projector", "self"),
    "symmetry.perm_unitary_s": ("s", "symmetry.perm_unitary", "self"),
    "states.signal_calls": ("count", "states.signal", "calls"),
    "states.signal_s": ("s", "states.signal", "self"),
    "states.signal_cache_hit_ratio": ("ratio", "states.signal.cache", "hit_ratio"),
    "states.average_s": ("s", "states.average", "self"),
    "cloning.adjoint_calls": ("count", "cloning.adjoint", "calls"),
    "cloning.adjoint_s": ("s", "cloning.adjoint", "self"),
    "measurements.pgm_s": ("s", "measurements.pgm", "self"),
    "measurements.complete_s": ("s", "measurements.complete", "self"),
    "measurements.pullback_s": ("s", "measurements.pullback", "self"),
    "measurements.elements": ("count", "measurements.pgm", "elements"),
    "channels.formula_s": ("s", "channels.formula", "self"),
    "channels.choi_s": ("s", "channels.choi", "self"),
    "channels.montecarlo_s": ("s", "channels.montecarlo", "self"),
    "channels.self_s": ("s", "channels.self", "self"),
    "verification.suite_s": ("s", "verification.suite", "self"),
    "verification.self_s": ("s", "verification.self", "self"),
}


class Tracer:
    """Span and counter store for one process; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span name, seconds covered by child spans]

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def wrap(self, name: str, fn, count=None):
        """Return `fn` inside a span called `name`.

        `count(tracer, args, result)` runs after each call that counts. For
        an lru_cache function, calls that count and are answered from the
        cache add to the counter `<name>.hits`.
        """
        stack = self._stack
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != name
            hits = fn.cache_info().hits if cached and outer else None
            frame = [name, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
                self.calls[name] = self.calls.get(name, 0) + outer
                if stack:
                    stack[-1][1] += elapsed
            if outer:
                if count is not None:
                    count(self, args, result)
                if hits is not None and fn.cache_info().hits > hits:
                    self.add(f"{name}.hits", 1)
            return result

        # functools.wraps does not copy the methods of an lru_cache object,
        # and the library calls cache_clear() on its cached builders
        for attr in CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def metrics(self, present: set[str]) -> tuple[dict[str, float], list[str]]:
        """Per-module metrics, and the names of those whose span was not
        installed (reported as 0)."""
        values, absent = {}, []
        for metric, (_, span, what) in LAYERS.items():
            if span not in present:
                absent.append(metric)
                values[metric] = 0
            elif what == "calls":
                values[metric] = self.calls.get(span, 0)
            elif what == "self":
                values[metric] = self.self_s.get(span, 0.0)
            elif what == "hit_ratio":
                calls = self.calls.get("states.signal", 0)
                values[metric] = self.counters.get("states.signal.hits", 0) / calls if calls else 0.0
            elif what == "mb":
                values[metric] = self.counters.get(f"{span}.bytes", 0) / 2**20
            else:
                values[metric] = self.counters.get(f"{span}.{what}", 0)
        return values, absent


def _counted_init(tracer: Tracer, init):
    """LabeledOperator.__init__ that counts constructions and the bytes each copies."""

    @functools.wraps(init)
    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.add("tensor_core.operator.allocs", 1)
        tracer.add("tensor_core.operator.bytes", self.entries.nbytes)

    return counted


def install(tracer: Tracer):
    """Wrap every traced function wherever a portclone module holds it.

    Returns the set of span names that found a function to wrap (plus
    pseudo-spans for operator construction and the signal cache), and an
    undo function.
    """
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "portclone" or key.startswith("portclone."))
    ]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    present = set()
    cached = []
    for name, module_name, attr in SPANS:
        owner = sys.modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            continue
        present.add(name)
        if name == "states.signal":
            cached.append(hasattr(fn, "cache_info"))
        wrapped = tracer.wrap(name, fn, COUNTS.get(name))
        patch(owner, leaf, wrapped)
        if path:  # a method, found through its class
            continue
        for module in modules:  # every `from ... import` alias, under any name
            for key, value in list(vars(module).items()):
                if value is fn:
                    patch(module, key, wrapped)
    if cached and all(cached):
        present.add("states.signal.cache")
    cls = getattr(sys.modules.get("portclone.tensor_core"), "LabeledOperator", None)
    if cls is not None:
        present.add("tensor_core.operator")
        patch(cls, "__init__", _counted_init(tracer, cls.__init__))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return present, restore
