"""Run the heredit CLI in this process as ``python -m heredit`` would.

Usage::

    python3 bench/launch.py --report FILE [--setup-only] [--spans FILE] -- ARGS...

``ARGS`` go to the CLI unchanged.  Once ``cli.parse_inputs`` returns, the
CLOCK_MONOTONIC time is written to ``--report``, so the parent can take set-up
time as that instant minus the instant it spawned this process.
``--setup-only`` exits there, before the job runs.

``--spans`` traces the run: the public functions of each layer are wrapped
from outside, under every name their callers look them up by, and each call
records a span (name, start, end, parent).  Spans stay in memory and are
written to the file when the process ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import runpy
import sys
import time

# (module, function) of every traced layer boundary
TRACED = (
    ("heredit.cli", "main"),
    ("heredit.curves", "closed_form_curve"),
    ("heredit.curves", "gamma_curve"),
    ("heredit.curves", "search_curve"),
    ("heredit.curves", "bounded_min_g"),
    ("heredit.curves", "curve_scan"),
    ("heredit.spectrum", "clique_spectrum"),
    ("heredit.gfun", "g_value"),
    ("heredit.crg", "embeds"),
    ("heredit.crg", "canonical_form"),
    ("heredit.crg", "enumerate_crgs"),
    ("heredit.graphs", "has_induced"),
    ("heredit.editing", "edit_distance"),
    ("heredit.editing", "max_dist_estimate"),
)


class Tracer:
    """Spans in call order; a span's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int] | None] = []
        self.counts: dict[str, int] = {}
        self._open = [-1]

    def _begin(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        return index

    def _end(self, index: int, name_id: int, start: int) -> None:
        end = time.perf_counter_ns()
        self._open.pop()
        self.spans[index] = [name_id, start, end, self._open[-1]]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        begin, end_span, clock = self._begin, self._end, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end_span(index, name_id, start)

        return traced

    def wrap_generator(self, name: str, fn):
        """Trace a generator function: one span per step of its iteration."""
        name_id = len(self.names)
        self.names.append(name)
        begin, end_span, clock = self._begin, self._end, time.perf_counter_ns
        counts = self.counts
        count_key = name + ".yielded"
        counts[count_key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = begin()
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end_span(index, name_id, start)
                counts[count_key] += 1
                yield item

        return traced

    def install(self) -> None:
        """Replace each traced function in every heredit module that holds it."""
        for module_name, attr in TRACED:
            home = importlib.import_module(module_name)
            original = getattr(home, attr, None)
            if original is None:
                print(f"launch: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            wrap = self.wrap_generator if inspect.isgeneratorfunction(original) else self.wrap
            traced = wrap(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] != "heredit":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, handle)


def main(argv: list[str]) -> None:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(usage=__doc__.split("::")[1].strip())
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    opts = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    from heredit import cli

    tracer = Tracer() if opts.spans else None
    if tracer:
        tracer.install()
    parse = cli.parse_inputs

    def parse_inputs(args):
        job = parse(args)
        with open(opts.report, "w") as handle:
            json.dump({"parsed": time.monotonic()}, handle)
        if opts.setup_only:
            raise SystemExit(0)
        return job

    cli.parse_inputs = parse_inputs
    sys.argv = [sys.argv[0], *cli_args]
    try:
        runpy.run_module("heredit", run_name="__main__", alter_sys=True)
    finally:
        if tracer:
            tracer.dump(opts.spans)


if __name__ == "__main__":
    main(sys.argv[1:])
