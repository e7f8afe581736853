"""Span tracer for the traced run, installed from outside ``src/mbm``.

The tracer replaces the module attributes that callers look up with
wrappers: in the defining module and in every ``mbm`` namespace that bound
the same object with ``from ... import`` (for example ``mbm.cli.parse_ticks``
and ``mbm.pricing.brentq``). Each wrapper records a span (name, start, end,
parent span) and counts; spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns as time_ns


def _count_len(counter: str):
    return lambda tracer, args, result: tracer.counts.update({counter: len(result)})


def _count_flag(counter: str, test):
    return lambda tracer, args, result: tracer.counts.update({counter: int(test(result))})


SOLVERS = ("solve_price_single", "solve_price_first_purchase",
           "solve_price_second_purchase", "solve_price_two_sales")

#: (defining module, attribute, span name, hook(tracer, args, result) or None)
TARGETS = [
    ("mbm.ticks", "parse_ticks", "ticks.parse_ticks", _count_len("ticks.ticks_parsed")),
    ("mbm.ticks", "render_ticks", "ticks.render_ticks", None),
    ("mbm.ticks", "partition_windows", "ticks.partition_windows", _count_len("ticks.windows")),
    ("mbm.ticks", "window_from_ticks", "ticks.window_from_ticks", None),
    ("mbm.simulate", "gen_trades", "simulate.gen_trades", None),
    ("mbm.simulate", "stream_normals", "simulate.stream_normals", None),
    ("mbm.moments", "compute_moment_set", "moments.compute_moment_set",
     _count_flag("moments.negative_variance", lambda ms: "negative_variance" in ms.flags)),
    ("mbm.moments", "decorrelation_diagnostic", "moments.decorrelation_diagnostic",
     _count_flag("moments.decorrelation_flagged", lambda d: d.flagged)),
    ("mbm.moments", "vwap", "moments.vwap", None),
    ("mbm.moments", "price_autocorrelation", "moments.price_autocorrelation", None),
    ("mbm.density", "density_gram_charlier", "density.gram_charlier", None),
    ("mbm.density", "density_damped_inversion", "density.damped_inversion", None),
    *[("mbm.pricing", name, "pricing.solve",
       lambda tracer, args, result: tracer.counts.update({"pricing.solve_iterations": result.iterations}))
      for name in SOLVERS],
    ("mbm.pricing", "optimize_holdings", "pricing.optimize_holdings", None),
    ("mbm.pricing", "brentq", "pricing.brentq", None),
    ("mbm.utility", "eval_utility", "utility.eval_utility", None),
    ("mbm.cli", "_write_text", "cli.write",
     lambda tracer, args, result: tracer.counts.update({"cli.write_bytes": len(args[1].encode("utf-8"))})),
]

MODULES = ("ticks", "simulate", "moments", "density", "pricing", "utility")
#: Spans reported as <name>_s (summed duration) and <name>_calls.
TIMED = ("ticks.parse_ticks", "ticks.render_ticks", "ticks.partition_windows",
         "ticks.window_from_ticks", "simulate.gen_trades", "simulate.stream_normals",
         "moments.compute_moment_set", "moments.decorrelation_diagnostic", "moments.vwap",
         "moments.price_autocorrelation", "density.gram_charlier", "density.damped_inversion",
         "pricing.solve", "pricing.optimize_holdings", "utility.eval_utility", "cli.write")
COUNTERS = ("ticks.ticks_parsed", "ticks.windows", "moments.negative_variance",
            "moments.decorrelation_flagged", "pricing.solve_iterations", "cli.write_bytes")
IMPORT_MODULES = ("mbm", "mbm.simulate", "mbm.pricing", "mbm.density", "mbm.moments")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        # 0 for a span nested in an open span of the same name (a solver
        # calling another solver); such spans are left out of totals
        self.outer = array("b")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time_ns()
        self._stack.pop()
        self._active[self.name_id[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        self.start[idx] = time_ns()
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            tracer.start[idx] = time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None and tracer.outer[idx]:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target wherever an ``mbm`` module binds it."""
        for module_name, attr, span_name, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, span_name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "mbm" or mod_name.startswith("mbm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # ---- aggregation

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (s), call counts and counters of the recorded spans."""
        n = len(self.name_id)
        names = [self.names[i] for i in self.name_id]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total = Counter()
        calls = Counter()
        self_ns = Counter()
        bracketed = set()
        for i, name in enumerate(names):
            if self.outer[i]:
                total[name] += dur[i]
                calls[name] += 1
            # cli.self_s covers the benchmark's cli.<command> spans only
            self_ns["cli.write" if name == "cli.write" else name.split(".")[0]] += dur[i] - child[i]
            if name == "pricing.brentq":
                p = self.parent[i]
                while p >= 0 and not (names[p] == "pricing.solve" and self.outer[p]):
                    p = self.parent[p]
                if p >= 0:
                    bracketed.add(p)
        out = {}
        for span in TIMED:
            out[f"{span}_s"] = total[span] / 1e9
            out[f"{span}_calls"] = calls[span]
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        out["pricing.bracket_calls"] = calls["pricing.brentq"]
        solves = calls["pricing.solve"]
        out["pricing.fixed_point_ratio"] = (solves - len(bracketed)) / solves if solves else 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = self_ns[module] / 1e9
        out["cli.self_s"] = self_ns["cli"] / 1e9
        return out

    def write_spans(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}\n")


def import_breakdown(env: dict, repeats: int) -> dict[str, float]:
    """Cumulative import seconds of ``mbm`` modules from ``-X importtime``.

    Keyed by ``mbm.<module>``: which module first imports a scipy package
    depends on import order, so attributing to scipy submodules would move
    whenever one scipy import is dropped.
    """
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mbm"],
                              env=env, capture_output=True, text=True, check=True)
        for text in proc.stderr.splitlines():
            m = line.match(text)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {f"import.{name}_s": statistics.median(v) if v else 0.0 for name, v in samples.items()}
