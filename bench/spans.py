"""Outside-in span recorder for the selfdual layers.

The program has no tracing of its own, so the recorder wraps the public
functions of each module from outside while a traced round runs, and puts
the originals back afterwards.  A function is rebound under every name its
callers look it up by (``levy.sample_increments`` is also
``hedging.sample_increments``; ``quadrature.integrate_interval`` is also
bound in ``dist``, ``duality`` and ``geometry``), and model ``sample``/``pdf``,
``RngStream`` draw methods and ``Payoff.__call__`` are patched on the classes.

Each span records its name, start, end and parent.  Spans stay in memory;
the benchmark derives the per-layer metrics from them after each round and
writes one round's spans out when it ends.  A layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from selfdual import cli, dist, duality, geometry, hedging, levy, pricing, quadrature
from selfdual.rng import RngStream

LAYERS = ("cli", "rng", "dist", "duality", "levy", "hedging", "pricing", "geometry", "quadrature")

# Counts that a second traced run of the same seed must repeat exactly.
REPEATABLE = (
    "rng.draws",
    "dist.sample_rows",
    "levy.increments_outer_rows",
    "levy.increments_inner_rows",
    "hedging.detect_first_hit_calls",
    "dist.pdf_calls",
    "quadrature.calls",
    "duality.resample_ratio",
)


class Span:
    __slots__ = ("name", "parent", "outer", "start", "end", "child_s", "info")

    def __init__(self, name: str, parent: "Span | None", outer: bool):
        self.name = name
        self.parent = parent
        # False when nested inside a span of the same name, so counts and
        # times are not taken twice for recursive or delegating calls
        self.outer = outer
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _rows(result) -> int:
    first = result[0] if isinstance(result, tuple) else result
    return int(np.shape(first)[0]) if np.ndim(first) else 1


def _size(result) -> int:
    return int(np.size(result))


def _paths_bytes(result) -> int:
    paths, jump_flags = result
    return int(paths.nbytes + jump_flags.nbytes)


def _hit_states(report) -> int:
    return len(report.hit_gaps)


def _point_statuses(report) -> Counter:
    return Counter(p.status for p in report.points)


def _subclasses(cls) -> list[type]:
    """``cls`` and every class below it, each once."""
    out = {cls: None}
    for sub in cls.__subclasses__():
        out.update(dict.fromkeys(_subclasses(sub)))
    return list(out)


def _targets():
    """(owner, attribute, span name, measure) for every function the recorder wraps."""
    functions = [
        (cli, "main", "cli.main", None),
        (cli, "parse_model_spec", "cli.parse", None),
        (cli, "run", "cli.run", None),
        (levy, "sample_increments", "levy.sample_increments", _rows),
        (levy, "solve_alpha", "levy.solve_alpha", None),
        (levy, "char_exponent", "levy.char_exponent", None),
        (hedging, "simulate_paths", "hedging.simulate_paths", _paths_bytes),
        (hedging, "detect_first_hit", "hedging.detect_first_hit", None),
        (hedging, "evaluate_hedge", "hedging.evaluate_hedge", _hit_states),
        (geometry, "boundary_param", "geometry.boundary_param", None),
        (quadrature, "integrate_positive", "quadrature.integrate", None),
        (quadrature, "integrate_interval", "quadrature.integrate", None),
        (quadrature, "integrate_real_line", "quadrature.integrate", None),
    ]
    functions += [
        (duality, name, "duality.check", _point_statuses)
        for name, fn in vars(duality).items()
        if name.startswith("check_") and inspect.isfunction(fn) and fn.__module__ == duality.__name__
    ]
    methods = [
        (RngStream, name, "rng.draw", _size)
        for name, fn in vars(RngStream).items()
        if inspect.isfunction(fn) and not name.startswith("_") and name != "child"
    ]
    for cls in _subclasses(dist.ScalarModel) + _subclasses(dist.VectorModel):
        for name, span_name, measure in (("sample", "dist.sample", _rows), ("pdf", "dist.pdf", None)):
            fn = vars(cls).get(name)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                methods.append((cls, name, span_name, measure))
    methods += [
        (cls, "__call__", "pricing.payoff", _size)
        for cls in _subclasses(pricing.Payoff)
        if "__call__" in vars(cls)
    ]
    return functions, methods


class Recorder:
    """Records spans while :meth:`recording` is active; inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._depth: Counter = Counter()

    def _wrap(self, name, fn, measure):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, depth[name] == 0)
            depth[name] += 1
            stack.append(span)
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                depth[name] -= 1
            if measure is not None:
                span.info = measure(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self):
        """Patch every target, yield the span list, then restore the originals."""
        self.spans.clear()
        patched = []  # (owner, attribute, original)
        functions, methods = _targets()
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "selfdual"]
        try:
            for module, attr, name, measure in functions:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, measure)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, bound, wrapper)
                            patched.append((mod, bound, original))
            for cls, attr, name, measure in methods:
                original = vars(cls)[attr]
                setattr(cls, attr, self._wrap(name, original, measure))
                patched.append((cls, attr, original))
            yield self.spans
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
        for span in self.spans:
            if span.parent is not None:
                span.parent.child_s += span.duration


def write_jsonl(spans: list[Span], path) -> None:
    """One ``[id, parent id, name, start, end]`` array per line."""
    ids = {id(s): idx for idx, s in enumerate(spans)}
    with open(path, "w") as fh:
        for idx, s in enumerate(spans):
            parent = ids[id(s.parent)] if s.parent is not None else None
            fh.write(json.dumps([idx, parent, s.name, s.start, s.end]) + "\n")


def _ancestor(span: Span, name: str) -> Span | None:
    """The outermost enclosing span called ``name``."""
    found = None
    while span.parent is not None:
        span = span.parent
        if span.name == name:
            found = span
    return found


def layer_self_s(spans: list[Span]) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] += s.duration - s.child_s
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    m: Counter = Counter()
    sampled: dict[int, list[int]] = {}  # id of duality.check span -> rows of each sample
    for s in spans:
        d, self_s = s.duration, s.duration - s.child_s
        info = s.info or 0  # None when the call raised
        if s.name == "duality.check":
            # joint checks call the payoff check: every level has self time
            m["duality.self_s"] += self_s
        if not s.outer:
            continue
        if s.name == "cli.main":
            m["cli.emit_s"] += d
        elif s.name in ("cli.parse", "cli.run"):
            m["cli.emit_s"] -= d
            if s.name == "cli.parse":
                m["cli.parse_s"] += d
        elif s.name == "rng.draw":
            m["rng.draws"] += info
            m["rng.s"] += d
        elif s.name == "dist.sample":
            m["dist.sample_rows"] += info
            m["dist.sample_s"] += d
            check = _ancestor(s, "duality.check")
            if check is not None:
                sampled.setdefault(id(check), []).append(info)
        elif s.name == "dist.pdf":
            m["dist.pdf_calls"] += 1
            m["dist.pdf_s"] += d
        elif s.name == "duality.check":
            statuses = s.info or Counter()
            m["duality.points"] += sum(statuses.values())
            m["duality.points_fail"] += statuses["fail"]
            m["duality.points_inconclusive"] += statuses["inconclusive"]
        elif s.name == "levy.sample_increments":
            where = "outer" if _ancestor(s, "hedging.simulate_paths") else "inner"
            m[f"levy.increments_{where}_rows"] += info
            m[f"levy.increments_{where}_s"] += d
        elif s.name == "levy.solve_alpha":
            m["levy.solve_alpha_s"] += d
        elif s.name == "levy.char_exponent":
            m["levy.char_exponent_calls"] += 1
        elif s.name == "hedging.simulate_paths":
            m["hedging.simulate_self_s"] += self_s
            m["hedging.paths_bytes"] += info
        elif s.name == "hedging.detect_first_hit":
            m["hedging.detect_first_hit_calls"] += 1
            m["hedging.detect_first_hit_s"] += d
        elif s.name == "hedging.evaluate_hedge":
            m["hedging.evaluate_self_s"] += self_s
            m["hedging.hit_states"] += info
        elif s.name == "pricing.payoff":
            m["pricing.payoff_rows"] += info
            m["pricing.payoff_s"] += d
        elif s.name == "geometry.boundary_param":
            m["geometry.boundary_param_calls"] += 1
            m["geometry.boundary_self_s"] += self_s
        elif s.name == "quadrature.integrate":
            m["quadrature.calls"] += 1
            m["quadrature.s"] += d
    # rows every symmetry check sampled, over the first batch it drew
    first = sum(rows[0] for rows in sampled.values())
    m["duality.resample_ratio"] = sum(map(sum, sampled.values())) / first if first else 0.0
    return dict(m)
