"""Per-layer spans, recorded where one module calls into another.

Every function a ``hobind`` module imports from another layer is replaced,
in the importing module's namespace only, by a wrapper that records a
span; module references (``cli``'s ``laws``, ``openterm``'s ``binder``)
are replaced by views whose functions are wrapped the same way. A
layer's calls to itself still reach the raw functions, so its own
recursion is not traced. The benchmark's own calls go through
``library_api(tracer.wrap)``.

A span's self time is its duration minus the durations of its direct
child spans. Work the tracer does for counters (tree sizes, verdicts) is
timed too and charged to the ``bench`` layer, not to the span it sits in.
"""

from __future__ import annotations

import gzip
import json
import types
from collections import Counter
from time import perf_counter

import hobind
from hobind import binder, cli, expr, laws, named_lambda, openterm, terms

LAYER_MODULES = (terms, expr, binder, openterm, named_lambda, laws, cli)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in LAYER_MODULES)
_LAYER_OF = {m.__name__: layer for m, layer in zip(LAYER_MODULES, LAYERS)}

# trees passed to these count towards terms.nodes_walked
WALKERS = {"level", "probe_ids", "instantiate", "bind_probe", "replace_probe", "to_text"}
CONSTRUCTIONS = {"CON", "VAR", "APP", "ERR", "from_db"}
INSPECTIONS = {"cases", "expr_equal", "to_db", "expr_size", "pretty", "__hash__"}
SESSIONS = {"LAM", "abstr", "classify", "abstr_2", "ordinary", "lbind", "abstr_lam_check"}
_TREE_TYPES = (terms.Con, terms.Var, terms.App, terms.Err, terms.Bnd, terms.Abs, terms.Probe)


def tree_size(t) -> int:
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        cls = type(node)
        if cls is terms.App:
            stack.append(node.left)
            stack.append(node.right)
        elif cls is terms.Abs:
            stack.append(node.body)
    return n


def _raw(e):
    # nested LAM results carry the enclosing binder's probe, which every
    # public inspection rejects, so read the representation directly
    return e._t


def _exotic_verdict(name: str, result) -> bool:
    if name == "LAM":
        return type(_raw(result)) is terms.Err
    if name == "classify":
        return type(result) is binder.Exotic
    if name in ("abstr", "abstr_2", "abstr_lam_check"):
        return result is False
    return False


class _ModuleView:
    """A module as seen from an importing module, with wrapped functions."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, keep_spans: bool):
        self.self_s: Counter = Counter()  # layer -> seconds
        self.calls: Counter = Counter()  # layer -> calls
        self.counts: Counter = Counter()  # counter name -> value
        self.request = 0  # identifier shared by the spans of one request
        # (span id, parent id, request, function, start, end) when kept
        self.spans: list | None = [] if keep_spans else None
        self.functions: list[str] = []  # "layer.name", indexed by span function
        self._open = [[0.0, -1]]  # [child seconds, span id] of each open span
        self._next_id = 0
        self._wrapped: dict = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _charge_bench(self, started: float) -> None:
        spent = perf_counter() - started
        self._open[-1][0] += spent
        self.self_s["bench"] += spent

    def wrap(self, layer: str, fn):
        """A span-recording stand-in for ``fn``, one per function."""
        if fn in self._wrapped:
            return self._wrapped[fn]
        name = fn.__name__
        fn_id = len(self.functions)
        self.functions.append(f"{layer}.{name}")
        walker = layer == "terms" and name in WALKERS
        counter = (
            "expr.constructions" if layer == "expr" and name in CONSTRUCTIONS
            else "expr.inspections" if layer == "expr" and name in INSPECTIONS
            else "binder.sessions" if layer == "binder" and name in SESSIONS
            else "named_lambda.beta_steps" if name == "apply_binder"
            else None
        )
        opened = self._open
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def traced(*args, **kwargs):
            if walker:
                started = perf_counter()
                counts["terms.nodes_walked"] += sum(
                    tree_size(a) for a in args if isinstance(a, _TREE_TYPES))
                self._charge_bench(started)
            span_id = self._next_id
            self._next_id += 1
            parent = opened[-1]
            entry = [0.0, span_id]
            opened.append(entry)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except expr.ExoticUse:
                if layer == "expr":
                    counts["expr.exotic_raised"] += 1
                raise
            finally:
                t1 = perf_counter()
                opened.pop()
                self_s[layer] += (t1 - t0) - entry[0]
                parent[0] += t1 - t0
                calls[layer] += 1
                if counter:
                    counts[counter] += 1
                if self.spans is not None:
                    self.spans.append((span_id, parent[1], self.request, fn_id, t0, t1))
            if layer == "binder" and name in SESSIONS:
                started = perf_counter()
                if _exotic_verdict(name, result):
                    counts["binder.exotic_verdicts"] += 1
                elif name == "LAM":
                    counts["binder.body_nodes"] += tree_size(_raw(result)) - 1
                elif name == "lbind":
                    counts["binder.body_nodes"] += tree_size(result)
                self._charge_bench(started)
            elif layer == "laws" and name == "run_all":
                counts["laws.checks"] += sum(r.checked for r in result)
            return result

        traced.__name__ = name
        traced.__wrapped__ = fn
        self._wrapped[fn] = traced
        return traced

    def bench_span(self, fn, *args):
        """Run ``fn`` as the root span of the current request."""
        return self.wrap("bench", fn)(*args)

    # -- installing at import sites ----------------------------------------

    def install(self) -> None:
        for module in LAYER_MODULES:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    home = _LAYER_OF.get(value.__module__)
                    if home and value.__module__ != module.__name__:
                        self._patch(module, attr, self.wrap(home, value))
                elif isinstance(value, types.ModuleType) and value is not module \
                        and value.__name__ in _LAYER_OF:
                    layer = _LAYER_OF[value.__name__]
                    self._patch(module, attr, _ModuleView(value, {
                        a: self.wrap(layer, f) for a, f in vars(value).items()
                        if isinstance(f, types.FunctionType) and f.__module__ == value.__name__
                    }))
        self._patch(expr.Expr, "__hash__", self.wrap("expr", expr.Expr.__hash__))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the kept spans as gzipped JSON, one column per field."""
        spans = self.spans or []
        columns = ("id", "parent", "request", "function", "start", "end")
        data = {
            "hobind": hobind.__version__,
            "functions": self.functions,
            "spans": {c: [s[i] for s in spans] for i, c in enumerate(columns)},
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(data, handle)
