"""Traced in-process run of the whole pipeline, timed from outside the program.

    PYTHONPATH=src python bench/tracer.py --config CONFIG --spans SPANS.json

Every function named in layers.TRACED is replaced on its module attribute by
a wrapper that records a span (name, start, end, parent) and the function's
work counters; then cli.load_config and cli.run(force=True) run in this
process.  Spans stay in memory and are written once, when the run ends.
Calls through a name bound at import (esda's `from .geo import flatten`)
never reach a module attribute, so they are not captured: they are listed as
uncovered and their cost stays, unmeasured, in the caller's self time.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import types
from collections import defaultdict

from layers import TRACED

PACKAGE = "epigrid"


class Recorder:
    """Spans as [name, start, end, parent index or -1], plus summed work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, counters: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            for key, amount in counters.items():
                self.counts[key] += amount(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every TRACED function; return the import-bound calls left uncovered."""
    for qualname, counters in TRACED.items():
        mod_name, fn_name = qualname.split(".")
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        setattr(module, fn_name, recorder.wrap(qualname, getattr(module, fn_name), counters))
    return uncovered()


def uncovered() -> list[str]:
    """Module globals that hold another package module's function, bound at import."""
    found = []
    prefix = PACKAGE + "."
    for mod_name, module in sorted(sys.modules.items()):
        if not mod_name.startswith(prefix):
            continue
        for name, value in vars(module).items():
            owner = getattr(value, "__module__", "") or ""
            if isinstance(value, types.FunctionType) and owner != mod_name and owner.startswith(prefix):
                found.append(
                    f"{mod_name[len(prefix):]}.{name} -> {owner[len(prefix):]}.{value.__qualname__}"
                )
    return found


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self seconds, calls).

    A span's self time is its duration minus the part of that interval that
    its direct child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, tuple[float, int]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            lo, hi = max(c0, reach), min(c1, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        seconds, calls = out.get(name, (0.0, 0))
        out[name] = (seconds + (end - start) - covered, calls + 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    args = parser.parse_args(argv)
    recorder = Recorder()
    missed = install(recorder)
    from epigrid import cli

    code = cli.run(cli.load_config(args.config), stage="all", force=True)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "counts": recorder.counts, "uncovered": missed}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
