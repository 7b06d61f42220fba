"""Span and counter tracing of amrfem's layers, installed from outside ``src/``.

``instrument(tracer)`` rebinds every public function of the hot-path modules
(``mesh``, ``fem``, ``restriction``, ``transfer``, ``models``, ``adapt``) to a
timing wrapper, in every ``amrfem`` module that imported the name, plus the
``MeshTopology.is_balanced`` method and the ``splu`` factorisation used by
the Cahn-Hilliard Newton solve. ``uninstall()`` restores the originals.

Spans are aggregated as they close: per name the call count and the self
time, which is the span's duration minus the time covered by its child
spans. Counters are recorded at the same boundaries.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("mesh", "fem", "restriction", "transfer", "models", "adapt")


class Tracer:
    """Per-episode span and counter store."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.phase_s = defaultdict(float)  # (outermost span, layer) -> self time
        self.covered_s = 0.0  # time under outermost spans
        self._stack = []  # [name, time covered by children, outermost span]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper around ``fn``.

        ``before(args, kwargs)`` may return replacement arguments;
        ``after(args, result)`` may return a replacement result. Both run
        outside the span, so their cost lands in the parent's self time.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tracer._stack
            frame = [name, 0.0, stack[0][2] if stack else name]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                own = dt - frame[1]
                tracer.self_s[name] += own
                tracer.phase_s[frame[2], name.split(".", 1)[0]] += own
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
                else:
                    tracer.covered_s += dt
            if after is not None:
                result = after(args, result)
            return result

        return wrapper


@contextlib.contextmanager
def paused(tracer):
    """Run the benchmark's own bookkeeping outside every span."""
    if tracer is None or not tracer.enabled:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


class _CountingMatrix:
    """Proxy around a system matrix that counts matrix-vector products."""

    def __init__(self, matrix, tracer):
        self._matrix = matrix
        self._tracer = tracer

    def __matmul__(self, other):
        self._tracer.counts["fem.solve_spd.matvecs"] += 1
        return self._matrix @ other

    def __getattr__(self, name):
        return getattr(self._matrix, name)


class _TracedLU:
    """Proxy around a SuperLU factor whose ``solve`` is a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgProxy:
    """Stand-in for ``scipy.sparse.linalg`` inside ``amrfem.models``."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


def _hooks(tracer: Tracer):
    """Argument and result hooks for the spans that also count work."""

    def spd_before(args, kwargs):
        system = dataclasses.replace(
            args[0], matrix=_CountingMatrix(args[0].matrix, tracer)
        )
        return (system, *args[1:]), kwargs

    misses = []  # per open enumerate_nodes call: was the numbering built?

    def numbering_before(args, kwargs):
        mesh, p = args[0], args[1]
        misses.append(p not in mesh._numberings)  # the mesh's own numbering cache
        return args, kwargs

    def numbering_after(args, result):
        if misses.pop():
            tracer.counts["mesh.enumerate_nodes.misses"] += 1
            tracer.counts["mesh.hanging_nodes"] += len(result.hanging)
        return result

    def refine_after(args, result):
        tracer.counts["mesh.refine.leaves_added"] += result[0].n_leaves - args[0].n_leaves
        return result

    def coarsen_after(args, result):
        tracer.counts["mesh.coarsen.families_merged"] += len(result[1].merges)
        return result

    def families_after(args, result):
        if tracer.parent() == "mesh.execute_coarsen":
            tracer.counts["mesh.coarsen.candidate_families"] += len(result)
        return result

    def restriction_after(args, result):
        tracer.counts["restriction.apply_restriction.families"] += (
            1 if getattr(result, "ndim", 1) == 1 else len(result)
        )
        return result

    def ch_step_after(args, result):
        tracer.counts["models.newton_iters"] += int(result[2])
        return result

    return {
        "fem.solve_spd": (spd_before, None),
        "mesh.enumerate_nodes": (numbering_before, numbering_after),
        "mesh.execute_refine": (None, refine_after),
        "mesh.execute_coarsen": (None, coarsen_after),
        "mesh.sibling_families": (None, families_after),
        "restriction.apply_restriction": (None, restriction_after),
        "models.ch_step": (None, ch_step_after),
    }


class Instrumentation:
    """Installed wrappers; ``uninstall`` puts every original back."""

    def __init__(self):
        self._restore = []  # (owner, attribute, original)

    def rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _public_functions(module):
    for attr in getattr(module, "__all__", ()):
        fn = getattr(module, attr, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield attr, fn


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the layer functions of the ``amrfem`` package."""
    modules = {layer: importlib.import_module(f"amrfem.{layer}") for layer in LAYERS}
    hooks = _hooks(tracer)
    inst = Instrumentation()
    importers = [m for n, m in sys.modules.items() if n == "amrfem" or n.startswith("amrfem.")]
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            before, after = hooks.get(name, (None, None))
            wrapper = tracer.wrap(name, fn, before, after)
            for importer in importers:
                for key, value in list(vars(importer).items()):
                    if value is fn:
                        inst.rebind(importer, key, wrapper)

    topo = modules["mesh"].MeshTopology
    inst.rebind(topo, "is_balanced", tracer.wrap("mesh.is_balanced", topo.is_balanced))

    models = modules["models"]
    real = models.spla

    def splu_after(args, lu):
        tracer.maxima["models.lu_nnz"] = max(tracer.maxima["models.lu_nnz"], int(lu.nnz))
        return _TracedLU(lu, tracer.wrap("models.lu_solve", lu.solve))

    inst.rebind(models, "spla", _LinalgProxy(real, tracer.wrap("models.splu", real.splu, after=splu_after)))
    return inst
