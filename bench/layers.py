"""Per-layer tracing from outside the library.

The tracer replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent) per call, in every
module namespace that binds the function: ``structures.ball`` and
``cli.parse_file`` as well as ``oracle.ball``.  Group multiplications and
distance queries are too fine-grained for spans; the oracle methods only
count them.  A layer's self time is its spans' time minus the time of
their child spans.  Nothing in the library is edited and ``uninstall``
puts every original back.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("nfa", "transducer", "linear", "oracle", "structures", "fileformat", "cli")
# One call per subset-construction step, too fine-grained for a span: their
# time shows in the self time of the caller (difference, minimize, ...).
UNWRAPPED = {"nfa.step", "nfa.eps_closure"}
COUNTED_METHODS = {
    "mul_right": "oracle.mul.calls",
    "mul_left": "oracle.mul.calls",
    "distance_from_identity": "oracle.distance_from_identity.calls",
}


def _ft_name(args, kw):
    mode = kw.get("mode", args[1] if len(args) > 1 else None)
    return f"oracle.ft_distance.{mode}"


# Counters read from arguments (a), keywords (k) and return values (r), per
# span name: metric -> amount added per call.
EXTRAS = {
    "nfa.difference": {"nfa.difference.states_in": lambda a, k, r: a[0].n + a[1].n},
    "transducer.intersect_rect": {"transducer.intersect_rect.states_out": lambda a, k, r: r.n},
    "transducer.enumerate_pairs": {"transducer.enumerate_pairs.pairs": lambda a, k, r: len(r)},
    "linear.intersect_regular": {"linear.intersect_regular.states_out": lambda a, k, r: r.t.n},
    "oracle.ball": {"oracle.ball.elements": lambda a, k, r: len(r)},
    "oracle.ft_distance": {"oracle.ft_distance.calls": lambda a, k, r: 1},
    "fileformat.parse": {"fileformat.parse.bytes": lambda a, k, r: len(a[0].encode())},
    "fileformat.write": {"fileformat.write.bytes": lambda a, k, r: len(r.encode())},
    "structures.build_combing": {
        "structures.build.product_states": lambda a, k, r: r[1].product_states,
        "structures.build.x_candidates": lambda a, k, r: r[1].x_candidates,
        "structures.build.c0_states": lambda a, k, r: r[1].c0_states,
        "structures.build.cprime_states": lambda a, k, r: r[0].n,
    },
    "structures.extract_generators": {
        "structures.extract.states": lambda a, k, r: r.t.n,
        "structures.extract.edges": lambda a, k, r: len(r.t.edges),
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.active: set[str] = set()  # counted metrics with a call in progress
        self.span_names: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self, package: str = "combings") -> None:
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{short}.{name}"
                if span in UNWRAPPED:
                    continue
                if name == "ft_distance":
                    self.span_names.update(f"{span}.{m}" for m in ("sync", "async"))
                    wrappers[fn] = self._spanned(_ft_name, fn, EXTRAS.get(span, {}))
                else:
                    self.span_names.add(span)
                    wrappers[fn] = self._spanned(span, fn, EXTRAS.get(span, {}))
            if short == "oracle":
                for cls in vars(mod).values():
                    if inspect.isclass(cls) and issubclass(cls, mod.GroupOracle):
                        for meth, metric in COUNTED_METHODS.items():
                            if meth in vars(cls):
                                self._patch(cls, meth, self._counted(metric, vars(cls)[meth]))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, name, wrappers[value])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _spanned(self, name, fn, extras):
        spans, stack, errors, counts = self.spans, self.stack, self.errors, self.counts
        named = callable(name)
        extras = list(extras.items())

        def wrapper(*args, **kw):
            label = name(args, kw) if named else name
            idx = len(spans)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kw)
            except BaseException:
                errors[label] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            for metric, amount in extras:
                counts[metric] += amount(args, kw, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, metric, fn):
        counts = self.counts

        active = self.active

        def wrapper(*args, **kw):
            # count the outermost call only: a method may delegate to another
            if metric in active:
                return fn(*args, **kw)
            active.add(metric)
            counts[metric] += 1
            try:
                return fn(*args, **kw)
            finally:
                active.discard(metric)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- results

    def metric_names(self) -> set[str]:
        names = set(COUNTED_METHODS.values())
        for extra in EXTRAS.values():
            names.update(extra)
        for span in self.span_names:
            names.update(f"{span}.{what}" for what in ("self_s", "total_s", "calls", "errors"))
        return names

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.errors.clear()

    def summary(self) -> dict[str, float]:
        """Self time, total time (outermost calls), calls and errors per
        span name plus the counters, for everything recorded since the last
        reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:  # outermost call of this name
                total_s[name] += end - start
        out: dict[str, float] = dict(self.counts)
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
            out[f"{name}.calls"] = calls[name]
        for name, n in self.errors.items():
            out[f"{name}.errors"] = n
        return out
