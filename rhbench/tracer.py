"""Outside-in tracing of the rhtheta layers, installed by monkeypatching.

Every public function of a layer module, and every public method (plus an
explicit ``__init__``) of a public class defined there, is replaced by a
wrapper.  The wrapper is bound at the function's definition (the module
attribute) and at every other rhtheta module that imported it with
``from .x import y``.  The package source is not modified; ``uninstall``
puts every binding back.

Calls between module-level functions of the same module are not layer
crossings: the wrapper calls a copy of the function whose globals still
name the unwrapped copies, so hot inner helpers (``geometry.cross2`` is
called about a million times per g2 solve) run at full speed.  The
exceptions are in ``COUNTED_INSIDE``, whose same-module calls are counted.

A span is recorded when a call crosses from one layer into another (or
starts a thread's stack), and for the few functions whose inclusive time
is a named metric (``TIMED``).  Same-layer method calls are only counted.
Each thread keeps its own span stack; self time is a span's duration
minus the part its child spans cover, summed over threads (busy time).
Per layer, the wall time during which at least one thread was inside that
layer's own code is tracked as well.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import threading
import time
import types
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("quadrature", "geometry", "hyperelliptic", "theta", "kernels",
          "rh_solver", "isomonodromy", "cli")
# every package module, including the ones that only import layer functions
MODULES = LAYERS + ("covering", "errors")
PACKAGE = "rhtheta"
# pseudo-layer for the main thread waiting on the verify thread pool
WAIT = "wait"

# functions whose inclusive time feeds a metric; spanned even when called
# from inside their own layer
TIMED = frozenset({
    "rh_solver.RHSolution.residue",
    "rh_solver.RHSolution.monodromy",
    "rh_solver.RHSolution.psi",
    "rh_solver.RHSolution.psi_pair",
    "kernels.KernelContext.__init__",
    "hyperelliptic.compute_periods",
    "isomonodromy.schlesinger_residuals",
    "isomonodromy.tau_gradient_check",
})

# module-level functions whose calls from their own module still go through
# the wrapper (as do those in TIMED): bisection depth and theta evaluations
# are counted there
COUNTED_INSIDE = frozenset({
    "quadrature.integrate_segment",
    "theta.theta",
    "theta.theta_derivs",
})

# (counter, callee, ancestors): count calls of callee made while a span of
# one of the ancestors (function names or layer names) is open on the
# same thread; every ancestor named here opens a span when entered
CONTEXT_COUNTS = (
    ("rh_solver.residue_nodes", "rh_solver.RHSolution.ode_matrix",
     ("rh_solver.RHSolution.residue",)),
    ("rh_solver.psi_routes", "geometry.route",
     ("rh_solver.RHSolution.psi", "rh_solver.RHSolution.psi_pair")),
    ("isomonodromy.fd_periods_calls", "hyperelliptic.compute_periods",
     ("isomonodromy",)),
)


class _Frame:
    __slots__ = ("index", "name", "layer", "start", "child")

    def __init__(self, index, name, layer, start):
        self.index = index
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0


class _ThreadState:
    """Span stack, counters and recorded spans of one thread."""

    def __init__(self, tracer, ident):
        self.tracer = tracer
        self.ident = ident
        self.op = None          # last op this thread opened a span in
        self.stack = []
        self.counts = Counter()
        self.busy = Counter()
        self.inclusive = Counter()
        self.names = array("i")
        self.parents = array("q")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    """Patches the package layers and records spans until uninstalled."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self.names = []
        self._name_ids = {}
        self.op = -1
        self._op_threads = {}
        # layer -> number of threads currently in that layer's own code
        self._inside = Counter()
        self._since = {}
        self.wall = Counter()
        self._patched = []          # (owner, attribute, original)
        self.wrappers = {}          # original function -> wrapper

    # -- per-thread state ----------------------------------------------

    def _state(self):
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(self, threading.get_ident())
            self._tls.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            with self._lock:
                idx = self._name_ids.setdefault(name, len(self.names))
                if idx == len(self.names):
                    self.names.append(name)
        return idx

    def _switch(self, leave, enter, now):
        """A thread's own code moves from layer ``leave`` to ``enter``."""
        if leave == enter:
            return
        with self._lock:
            if leave is not None:
                self._inside[leave] -= 1
                if self._inside[leave] == 0:
                    self.wall[leave] += now - self._since.pop(leave)
            if enter is not None:
                if self._inside[enter] == 0:
                    self._since[enter] = now
                self._inside[enter] += 1

    # -- spans -----------------------------------------------------------

    def _open(self, st, name, layer):
        now = time.perf_counter()
        parent = st.stack[-1] if st.stack else None
        self._switch(parent.layer if parent else None, layer, now)
        idx = len(st.names)
        st.names.append(self._name_id(name))
        st.parents.append(parent.index if parent else -1)
        st.ops.append(self.op)
        st.starts.append(now)
        st.ends.append(0.0)
        frame = _Frame(idx, name, layer, now)
        st.stack.append(frame)
        if st.op != self.op:
            st.op = self.op
            self._op_threads.setdefault(self.op, set()).add(st.ident)
        return frame

    def _close(self, st, frame):
        now = time.perf_counter()
        st.stack.pop()
        parent = st.stack[-1] if st.stack else None
        self._switch(frame.layer, parent.layer if parent else None, now)
        dur = now - frame.start
        st.ends[frame.index] = now
        st.busy[frame.layer] += dur - frame.child
        st.inclusive[frame.name] += dur
        if parent is not None:
            parent.child += dur

    @contextlib.contextmanager
    def span(self, name, layer):
        """Record one span around a block of code outside the layers."""
        st = self._state()
        frame = self._open(st, name, layer)
        try:
            yield
        finally:
            self._close(st, frame)

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self
        contexts = [(counter, frozenset(ancestors)) for counter, callee, ancestors
                    in CONTEXT_COUNTS if callee == name]
        timed = name in TIMED
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.counts[name] += 1
            stack = st.stack
            for counter, ancestors in contexts:
                if any(f.name in ancestors or f.layer in ancestors
                       for f in stack):
                    st.counts[counter] += 1
            if hook is not None:
                args, kwargs = hook(st, args, kwargs)
            if not timed and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = tracer._open(st, name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(st, frame)

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every public function of every layer at all its bindings."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        insides, plain = {}, {}
        for layer in LAYERS:
            mod = modules[layer]
            # globals of the same-module copies, filled in below
            inside = insides[layer] = {}
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(_copy_function(obj, inside), name, layer)
                    self.wrappers[obj] = wrapper
                    self._set(mod, attr, wrapper)
                    if name not in COUNTED_INSIDE and name not in TIMED:
                        plain[(layer, attr)] = wrapper.__wrapped__
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind every `from .x import y` copy of a wrapped function
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    self._set(mod, attr, self.wrappers[obj])
        self._set(modules["cli"], "ThreadPoolExecutor", self._pool_class())
        # a copy sees the patched module, except that its own module's
        # functions resolve to their unwrapped copies
        for layer in LAYERS:
            insides[layer].update(vars(modules[layer]))
        for (layer, attr), fn in plain.items():
            insides[layer][attr] = fn
        return self

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                wrapper = self._wrap(obj, name, layer)
                self.wrappers[obj] = wrapper
                self._set(cls, attr, wrapper)
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapper = self._wrap(obj.__func__, name, layer)
                self.wrappers[obj.__func__] = wrapper
                self._set(cls, attr, type(obj)(wrapper))

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Spans the time the calling thread waits on the pool, and each
            task as cli code running on a worker thread."""

            def map(self, fn, *iterables, **kwargs):
                def task(*args):
                    with tracer.span("cli.pool_task", "cli"):
                        return fn(*args)

                with tracer.span("cli.pool_wait", WAIT):
                    results = list(super().map(task, *iterables, **kwargs))
                return iter(results)

        return TracedPool

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def totals(self):
        """Counters, busy seconds and inclusive seconds summed over threads."""
        counts, busy, inclusive = Counter(), Counter(), Counter()
        for st in self._threads:
            counts.update(st.counts)
            busy.update(st.busy)
            inclusive.update(st.inclusive)
        return counts, busy, inclusive

    def max_threads_per_op(self):
        return max((len(t) for op, t in self._op_threads.items() if op >= 0),
                   default=0)

    def span_count(self):
        return sum(len(st.names) for st in self._threads)

    def write_spans(self, fh):
        """Write every span as one tab-separated line to a text file:
        thread, index, parent index within the thread, op, name, start,
        end (perf_counter seconds)."""
        fh.write("thread\tindex\tparent\top\tname\tstart\tend\n")
        for t, st in enumerate(self._threads):
            for i in range(len(st.names)):
                fh.write(f"{t}\t{i}\t{st.parents[i]}\t{st.ops[i]}\t"
                         f"{self.names[st.names[i]]}\t"
                         f"{st.starts[i]:.9f}\t{st.ends[i]:.9f}\n")


def _copy_function(fn, globals_):
    """Same code, defaults and closure as fn, resolving globals in globals_."""
    out = types.FunctionType(fn.__code__, globals_, fn.__name__,
                             fn.__defaults__, fn.__closure__)
    out.__kwdefaults__ = fn.__kwdefaults__
    out.__dict__.update(fn.__dict__)
    out.__qualname__ = fn.__qualname__
    out.__doc__ = fn.__doc__
    out.__module__ = fn.__module__
    return out


# -- argument hooks ------------------------------------------------------------
#
# An integrand handed to the quadrature layer is code of the caller's layer;
# it runs inside a span of that layer, so its time is not charged to
# quadrature.  Integrand points are counted where quadrature evaluates them.

def _integrand(st, f, counter=None):
    """Wrap the integrand ``f`` passed in at the top of the call stack."""
    if hasattr(f, "_rhbench_counter") and (counter is None
                                           or f._rhbench_counter is not None):
        return f
    tracer, owner = st.tracer, st.stack[-1].layer if st.stack else None
    name = f"{owner}.integrand"

    def wrapped(z, *rest):
        if counter is not None:
            st.counts[counter] += getattr(z, "size", 1)
        if owner is None or owner == "quadrature":
            return f(z, *rest)
        frame = tracer._open(st, name, owner)
        try:
            return f(z, *rest)
        finally:
            tracer._close(st, frame)

    wrapped._rhbench_counter = counter
    return wrapped


def _replace_f(args, kwargs, f):
    if args:
        return (f,) + args[1:], kwargs
    return args, dict(kwargs, f=f)


def _first(args, kwargs):
    return args[0] if args else kwargs["f"]


def _segment_hook(st, args, kwargs):
    depth = args[5] if len(args) > 5 else kwargs.get("_depth", 0)
    st.counts["quadrature.bisections" if depth else "quadrature.segments"] += 1
    f = _integrand(st, _first(args, kwargs), "quadrature.nodes")
    return _replace_f(args, kwargs, f)


def _circle_hook(st, args, kwargs):
    f = _integrand(st, _first(args, kwargs), "quadrature.circle_nodes")
    return _replace_f(args, kwargs, f)


def _pieces_hook(st, args, kwargs):
    return _replace_f(args, kwargs, _integrand(st, _first(args, kwargs)))


_HOOKS = {
    "quadrature.integrate_segment": _segment_hook,
    "quadrature.integrate_pieces": _pieces_hook,
    "quadrature.integrate_substituted": _pieces_hook,
    "quadrature.integrate_circle": _circle_hook,
}
