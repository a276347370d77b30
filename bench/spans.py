"""Layer tracing from outside the program.

``install`` replaces every public function, method and property of the
program's layer modules, in every module that binds it, with a wrapper that
keeps a stack of open calls.  A layer's self time is the time its calls were
open minus the time of the calls they made into other wrapped functions.

Only the functions named in ``NAMED`` and the request itself are recorded as
spans (and only when called from another layer); everything else is kept as
aggregate counts and times.  A call nested in a call of the same layer is
counted but not timed, because its time already belongs to that layer: this
keeps helpers that run millions of times per run (``reflect``,
``dominantize``) cheap to trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = ("rootsys", "repthy", "monoid", "slices", "nullcone", "classify", "cli")
MAX_SPANS = 500_000

# metric prefix -> the functions it wraps, as "module:qualified name"
NAMED = {
    "monoid.hilbert": (
        "monoid:is_torus_coreduced", "monoid:hilbert_basis", "monoid:iter_hilbert_basis",
    ),
    "monoid.exists_sum": ("monoid:exists_sum", "monoid:exists_sum_one_per_block"),
    "nullcone.chambers": ("nullcone:admissible_sets",),
    "repthy.diagram": ("repthy:simple_dominant_diagram",),
    "repthy.expand": ("repthy:Character.expand",),
    "repthy.sympow": ("repthy:symmetric_power",),
    "slices.bad_slice": ("slices:bad_toral_slice",),
    "classify.module": ("classify:classify_module",),
}
OBSERVED = ("monoid.exists_sum", "nullcone.chambers", "repthy.diagram", "repthy.expand",
            "slices.bad_slice")
# counted by name but not recorded as spans
COUNTED = {
    "rootsys.reflect": ("rootsys:reflect", "rootsys:RootSystem.reflect"),
    "rootsys.dominantize": ("rootsys:dominantize", "rootsys:RootSystem.dominantize"),
}


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        # open calls: [layer, child seconds, span id]
        self.stack: list[list] = []
        # name -> [layer, calls, self seconds]
        self.stats: dict[str, list] = {}
        self.extra: dict[str, int] = {}
        self.seen: dict[str, set] = {"nullcone.chambers": set(), "repthy.diagram": set()}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.request_id = -1
        self._next_id = 0
        self._request = self._caller("cli", "cli.request", True)

    def bump(self, key: str, n: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    def _stat(self, layer: str, name: str) -> list:
        return self.stats.setdefault(name, [layer, 0, 0.0])

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for layer, _, own in self.stats.values():
            out[layer] += own
        return out

    def _caller(self, layer: str, name: str, span: bool):
        """``call(fn, args, kwargs)`` running ``fn`` in a frame of ``layer``."""
        stack, clock, st = self.stack, self.clock, self._stat(layer, name)

        def call(fn, args, kwargs):
            st[1] += 1
            if stack and stack[-1][0] == layer:
                if not span:
                    return fn(*args, **kwargs)
                record = False
            else:
                record = span
            self._next_id += 1
            frame = [layer, 0.0, self._next_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st[2] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if record:
                    if len(self.spans) < MAX_SPANS:
                        parent = stack[-1][2] if stack else None
                        self.spans.append((self.request_id, frame[2], parent, name, t0, t1))
                    else:
                        self.dropped_spans += 1

        return call

    def request(self, fn, argv):
        """One CLI request: the outermost span, in the ``cli`` layer."""
        self.request_id += 1
        return self._request(fn, (argv,), {})

    def observe(self, name: str, args, kwargs, result) -> None:
        """Counts that need the arguments or the result of a call."""
        if name == "monoid.exists_sum":
            self.bump("monoid.exists_sum.feasible", bool(result.feasible))
        elif name == "nullcone.chambers":
            mod_weyl = kwargs.get("mod_weyl", args[1] if len(args) > 1 else True)
            key = (args[0], mod_weyl)
            self.bump("nullcone.chambers.repeats", key in self.seen[name])
            self.seen[name].add(key)
            self.bump("nullcone.chambers.sets", len(result))
        elif name == "repthy.diagram":
            key = (args[0], tuple(args[1]))
            self.bump("repthy.diagram.repeats", key in self.seen[name])
            self.seen[name].add(key)
        elif name == "repthy.expand":
            if args[0].dominant_only:
                self.bump("repthy.expand.points", len(result.entries))
        elif name == "slices.bad_slice":
            self.bump("slices.bad_slice.certificates", result is not None)

    def wrap(self, layer: str, name: str, fn, span: bool):
        if inspect.isgeneratorfunction(fn):
            tracer = self

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # a Hilbert search: counted per generator, timed by its consumer
                tracer.bump(name + ".searches")
                exhausted = False
                try:
                    for item in fn(*args, **kwargs):
                        tracer.bump(name + ".generators")
                        yield item
                    exhausted = True
                finally:
                    tracer.bump(name + ".early_exits", not exhausted)

            return gen_wrapper

        call = self._caller(layer, name, span)
        if name in OBSERVED:
            observe = self.observe

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = call(fn, args, kwargs)
                observe(name, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(fn, args, kwargs)

        return wrapper


def _targets(modules: dict[str, types.ModuleType]):
    """(layer, owner, attribute, object) for every public function, method
    and property defined in a layer module."""
    for layer, mod in modules.items():
        if layer == "cli":
            continue  # the request span covers the cli layer
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for mattr, mobj in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    if isinstance(mobj, property) or inspect.isfunction(mobj):
                        yield layer, obj, mattr, mobj, f"{attr}.{mattr}"
            elif inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                yield layer, mod, attr, obj, attr


def install(package: str = "coreduce") -> Tracer:
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    by_qualname = {}
    for prefix, targets in {**NAMED, **COUNTED}.items():
        for t in targets:
            by_qualname[t] = prefix
    replaced: dict[int, tuple] = {}
    for layer, owner, attr, obj, qual in _targets(modules):
        prefix = by_qualname.get(f"{layer}:{qual}")
        name = prefix or f"{layer}.{qual}"
        span = prefix in NAMED
        if isinstance(obj, property):
            setattr(owner, attr, property(tracer.wrap(layer, name, obj.fget, span)))
            continue
        wrapped = tracer.wrap(layer, name, obj, span)
        setattr(owner, attr, wrapped)
        if owner is modules[layer]:
            replaced[id(obj)] = (obj, wrapped)
    # rebind names imported with ``from .x import y`` in every module
    for mod in importlib.import_module(package).__dict__.values():
        if isinstance(mod, types.ModuleType) and mod.__name__.startswith(package + "."):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
    return tracer
