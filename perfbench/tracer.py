"""In-memory span tracing of qtreehahn's layer functions.

`Tracer.install()` replaces each traced function at every module of the
package that binds it (for example `cli.basis`, `connect.basis` and
`multihahn.basis`) with a wrapper that records one span per call:
function, request, parent span, start and end.  Spans are kept in flat
arrays and only while a request is open, so the benchmark's own checks
between requests leave no spans.  `uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

PACKAGE = "qtreehahn"

# The layers, one per module of the package.
MODULES = ("cli", "qnum", "lattice", "qops", "hahn1d", "trees", "multihahn", "connect", "_linalg")

TRACED = (
    "qnum.pochhammer",
    "qnum.phi_sum",
    "lattice.weight",
    "lattice.inner_product",
    "lattice.enumerate_compositions",
    "qops.apply_D_at_vertex",
    "qops.apply_R",
    "qops.apply_L",
    "qops.kernel_basis",
    "_linalg.rref",
    "hahn1d.hahn_eval",
    "hahn1d.racah_eval",
    "trees.find_rl_path",
    "trees.enumerate_labelings",
    "multihahn.basis",
    "multihahn.eval_Q",
    "multihahn.norm_Q",
    "connect.connection_by_path",
    "connect.apply_move",
    "connect.one_move_coefficients",
    "connect.connection_oracle",
    "cli.main",
)

# Recursive functions whose inner calls are not spans of their own.
TOP_LEVEL_ONLY = ("lattice.enumerate_compositions",)

# lru_cache'd functions whose hit ratio is reported.
CACHED = ("multihahn.basis", "hahn1d.hahn_eval", "hahn1d.racah_eval")


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.originals = {}
        self._installed: list[tuple[object, str, object]] = []
        self.fn = array("H")
        self.req = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.request = None
        self.weight_calls = 0
        self.weight_repeats = 0
        self._weight_seen: set = set()
        self._cache_before = {}

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        # Import every layer first: a module imported after install()
        # would keep the original functions it binds.
        for name in MODULES:
            importlib.import_module(f"{PACKAGE}.{name}")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for fid, qualname in enumerate(self.names):
            mod_name, fn_name = qualname.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            self.originals[qualname] = original
            wrapper = self._wrap(fid, qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attr, original))
                        setattr(module, attr, wrapper)
        self._cache_before = {name: self.originals[name].cache_info() for name in CACHED}

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fid: int, qualname: str, original):
        clock = time.perf_counter
        stack = self._stack
        fn, req, parent, start, end = self.fn, self.req, self.parent, self.start, self.end
        top_level_only = qualname in TOP_LEVEL_ONLY
        is_weight = qualname == "lattice.weight"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.request is None or (top_level_only and stack[-1] >= 0 and fn[stack[-1]] == fid):
                return original(*args, **kwargs)
            if is_weight:
                self._count_weight(args, kwargs)
            idx = len(start)
            fn.append(fid)
            req.append(self.request)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_weight(self, args, kwargs) -> None:
        x = args[0] if args else kwargs["x"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        key = (tuple(x), p)
        self.weight_calls += 1
        if key in self._weight_seen:
            self.weight_repeats += 1
        else:
            self._weight_seen.add(key)

    # -- recording ------------------------------------------------------

    def begin(self, request_id: int) -> None:
        self.request = request_id

    def finish(self) -> None:
        self.request = None

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[float]]:
        """Calls and self seconds per traced function.

        A span's self time is its duration minus the durations of its
        direct children; children nest inside their parent, so the sum of
        all self times equals the sum of the root spans' durations.
        """
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, fid in enumerate(self.fn):
            calls[fid] += 1
            self_s[fid] += end[i] - start[i] - child[i]
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls and self time per function and module,
        cache hit ratios and the repeat ratio of `lattice.weight`.

        Metric names drop the leading underscore of `_linalg`, since a
        metric name starts with a letter or digit.
        """
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for name, c, s in zip(self.names, calls, self_s):
            out[f"{name.lstrip('_')}.calls"] = c
            out[f"{name.lstrip('_')}.self_s"] = s
            module_self[name.split(".")[0]] += s
        for module, s in module_self.items():
            out[f"{module.lstrip('_')}.self_s"] = s
        for name in CACHED:
            after = self.originals[name].cache_info()
            before = self._cache_before[name]
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            out[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
        out["lattice.weight.repeat_ratio"] = (
            self.weight_repeats / self.weight_calls if self.weight_calls else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        """Write the spans: one JSON header line, then the raw columns."""
        columns = [("fn", self.fn), ("request", self.req), ("parent", self.parent),
                   ("start", self.start), ("end", self.end)]
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[name, arr.typecode, arr.itemsize] for name, arr in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(handle)
