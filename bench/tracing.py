"""Spans around the calls into each cyclineq layer, recorded from outside.

The tracer replaces every cyclineq function that `cyclineq.cli`,
`cyclineq.refute` and `cyclineq.search` import from another cyclineq module
with a wrapper that records a span.  Wrapping where a function is imported,
not where it is defined, makes a call from refute into search a child span
of the refute span.  The program itself is not changed.

A span is [name, layer, start, end, parent, job, error, facts]; spans stay in
memory and are written out once, when the run ends.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

WRAPPED_NAMESPACES = ("cyclineq.cli", "cyclineq.refute", "cyclineq.search")
CLIP = 60.0  # the descent clips log-coordinates to [-CLIP, CLIP]


def _clipped(x) -> bool:
    return any(abs(math.log(c / x[0])) >= CLIP - 1e-9 for c in x)


class Tracer:
    """Span recorder; install() puts the wrappers in place, uninstall()
    restores the original functions."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._default_config = modules["cyclineq.search"].SearchConfig()
        self._patches = []
        for namespace in WRAPPED_NAMESPACES:
            module = modules[namespace]
            for attr, value in vars(module).items():
                home = getattr(value, "__module__", "") or ""
                if inspect.isfunction(value) and home.startswith("cyclineq.") \
                        and home != namespace:
                    layer = home.split(".")[1]
                    self._patches.append((module, attr, value, self.wrap(value, layer)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def wrap(self, fn, layer: str):
        """fn with a span in layer around each call; search calls also record
        restarts, iterations, grid points and clip hits, refute calls whether
        they fell back to search."""
        name = fn.__name__
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            facts = {}
            if name == "minimize_gap":
                bound = signature.bind(*args, **kwargs)
                if bound.arguments.get("trace") is None:
                    bound.arguments["trace"] = []
                rows = bound.arguments["trace"]
                config = bound.arguments.get("config") or self._default_config
                facts["restarts"] = config.restarts
                args, kwargs = bound.args, bound.kwargs
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.job, None, facts]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[6] = type(exc).__name__
                raise
            finally:
                record[3] = perf_counter()
                stack.pop()
            if name == "minimize_gap":
                facts["iterations"] = 1 + max(row[1] for row in rows) if rows else 0
            if name == "grid_oracle":
                bound = signature.bind(*args, **kwargs)
                config = bound.arguments.get("config") or self._default_config
                n = bound.arguments["instance"].n
                facts["grid_points"] = config.grid_points_per_dim ** (n - 1)
            if name in ("minimize_gap", "grid_oracle"):
                facts["clip_hits"] = int(_clipped(result.x))
            if layer == "refute" and getattr(result, "note", None):
                facts["search_fallbacks"] = 1
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Totals over all spans: calls, self seconds and facts, by key."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for index, (name, layer, start, end, _, _, _, facts) in enumerate(self.spans):
            own = end - start - covered[index]
            for key in (layer, f"{layer}:{name}"):
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += own
            for fact, value in facts.items():
                out[f"{layer}.{fact}"] += value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, job, error, facts in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                     "parent": parent, "job": job, "error": error,
                                     **facts}) + "\n")
