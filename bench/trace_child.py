"""Traced in-process replay of a workload's CLI stages.

Usage: ``python trace_child.py PLAN.json RESULT.json`` from the work
directory, with the source tree on ``PYTHONPATH``.

The plan lists the stage argument vectors.  The child imports
``typoimpute.cli`` (timed) and replays every stage through
``typoimpute.cli.main(argv)``: once to warm up, then traced, untraced,
untraced and traced, each in its own directory.  It writes the
timings and exit codes of every replay, and the spans and counters of
the first traced one, to RESULT.json.  Tracing wraps the public functions of each
layer from outside by rebinding module and class attributes; the
program itself is not changed.  Spans are kept in memory and written
out only at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

# Spans whose wrapped calls are plain functions: (module, function, span name).
FUNCTIONS = (
    ("typoimpute.kb", "parse_dataset", "kb.parse"),
    ("typoimpute.kb", "serialize_dataset", "kb.serialize"),
    ("typoimpute.kb", "filter_dataset", "kb.filter"),
    ("typoimpute.splits", "build_controlled_split", "splits.controlled"),
    ("typoimpute.splits", "random_split", "splits.random"),
    ("typoimpute.splits", "blank_features", "splits.blank"),
    ("typoimpute.evaluate", "output_from_dataset", "evaluate.output"),
    ("typoimpute.evaluate", "score", "evaluate.score"),
    ("typoimpute.evaluate", "paired_permutation_test", "evaluate.permutation"),
    ("typoimpute.evaluate", "blanking_ratio_correlation", "evaluate.correlation"),
    ("typoimpute.evaluate", "meta_correlation", "evaluate.correlation"),
    ("typoimpute.evaluate", "feature_accuracy_table", "evaluate.tables"),
    ("typoimpute.evaluate", "genus_breakdown", "evaluate.tables"),
    ("typoimpute.configio", "file_digest", "configio.digest"),
    ("typoimpute.imputers.ridge", "solve_ridge", "imputers.ridge.solve"),
)

# Imputer classes whose fit and predict get spans.
IMPUTERS = (
    "GlobalFrequencyImputer",
    "GenusFamilyBackoffImputer",
    "GeoBackoffImputer",
    "NearestNeighborImputer",
    "CorrelationImputer",
    "RidgePriorImputer",
)

# Modules that call the scalar haversine, by the counter label.
HAVERSINE_CALLERS = {
    "splits": "typoimpute.splits",
    "geo_backoff": "typoimpute.imputers.frequency",
    "knn": "typoimpute.imputers.knn",
    "ridge": "typoimpute.imputers.ridge",
}


class Tracer:
    """Spans as [id, name, start_ns, end_ns, parent_id] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.primary = None  # the imputer the current impute stage built
        self.method = None

    def call(self, name, fn, *args, **kwargs):
        record = [len(self.spans), name, 0, 0, self.stack[-1] if self.stack else None]
        self.spans.append(record)
        self.stack.append(record[0])
        record[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name: str) -> bool:
        return any(self.spans[i][1] == name for i in self.stack)

    def at_stage_top(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][1].startswith("cli.")


class Patches:
    """Attribute rebindings that can be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, old, new) -> None:
        """Point every typoimpute module attribute bound to ``old`` at ``new``."""
        for name, module in list(sys.modules.items()):
            if name == "typoimpute" or name.startswith("typoimpute."):
                for attr, value in list(vars(module).items()):
                    if value is old:
                        self.set(module, attr, new)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def install(tracer: Tracer, patches: Patches) -> None:
    from typoimpute import imputers
    from typoimpute.imputers import NoPredictionError, PriorFeatureSpace

    after = {
        "kb.parse": lambda result: tracer.count("kb.cells_parsed", len(result.cells)),
        "splits.controlled": lambda result: tracer.count(
            "splits.excluded_languages",
            sum(1 for p in result.provenance if p.role == "excluded"),
        ),
    }

    def traced(fn, span):
        hook = after.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(span, fn, *args, **kwargs)
            if hook:
                hook(result)
            return result

        return wrapper

    for module, func, span in FUNCTIONS:
        fn = getattr(sys.modules[module], func)
        patches.rebind(fn, traced(fn, span))

    build = imputers.build_imputer

    @functools.wraps(build)
    def build_imputer(config, *args, **kwargs):
        tracer.primary = build(config, *args, **kwargs)
        tracer.method = config["method"]
        return tracer.primary

    patches.rebind(build, build_imputer)

    def imputer_op(fn, op):
        # The stage's own imputer gets spans under its method; the CLI's
        # global-frequency fallback, called from the stage itself, gets
        # "fallback"; imputers nested in another (geo_backoff's
        # genus/family chain) run inside their owner's span.
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if self is tracer.primary:
                span = f"imputers.{tracer.method}.{op}"
            elif tracer.at_stage_top():
                span = f"imputers.fallback.{op}"
            else:
                return fn(self, *args, **kwargs)
            try:
                return tracer.call(span, fn, self, *args, **kwargs)
            except NoPredictionError:
                tracer.count(f"{span}.unanswered")
                raise

        return wrapper

    for class_name in IMPUTERS:
        cls = getattr(imputers, class_name)
        for op in ("fit", "predict"):
            patches.set(cls, op, imputer_op(cls.__dict__[op], op))

    dense = PriorFeatureSpace.dense

    @functools.wraps(dense)
    def traced_dense(self, *args, **kwargs):
        if tracer.inside("imputers.ridge.fit"):
            return tracer.call("imputers.ridge.design", dense, self, *args, **kwargs)
        return dense(self, *args, **kwargs)

    patches.set(PriorFeatureSpace, "dense", traced_dense)

    for label, module_name in HAVERSINE_CALLERS.items():
        module = sys.modules[module_name]
        haversine = module.haversine_km
        key = f"geo.haversine_calls.{label}"
        tracer.counts[key] = 0

        def counted(a, b, _fn=haversine, _key=key):
            tracer.counts[_key] += 1
            return _fn(a, b)

        patches.set(module, "haversine_km", counted)


def replay(cli, stages: list[list[str]], directory: Path, tracer: Tracer | None):
    """Run every stage in ``directory``; returns (exit codes, seconds)."""
    directory.mkdir()
    os.chdir(directory)
    codes, seconds = [], []
    for argv in stages:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.call(f"cli.{argv[0]}", cli.main, list(argv))
        except Exception:
            traceback.print_exc()
            code = 99
        seconds.append(time.perf_counter() - start)
        codes.append(code)
    os.chdir("..")
    return codes, seconds


def main(plan_path: str, result_path: str) -> int:
    stages = json.loads(Path(plan_path).read_text(encoding="utf-8"))["stages"]
    start = time.perf_counter()
    import typoimpute.cli as cli

    import_s = time.perf_counter() - start
    work = Path.cwd()
    # The first replay in a process pays one-off costs (lazy imports,
    # allocator growth), so it only warms up.  Traced and untraced
    # replays then alternate as traced, plain, plain, traced, which
    # cancels a steady drift in machine speed out of the overhead.
    replay(cli, stages, work / "warmup", None)
    replays = []
    first = None
    for index, mode in enumerate(("traced", "plain", "plain", "traced")):
        tracer = patches = None
        if mode == "traced":
            tracer, patches = Tracer(), Patches()
            install(tracer, patches)
        directory = f"{mode}{index}"
        codes, seconds = replay(cli, stages, work / directory, tracer)
        if patches:
            patches.undo()
        first = first or tracer
        replays.append({"mode": mode, "dir": directory, "codes": codes, "seconds": seconds})
    result = {
        "module": cli.__file__,
        "import_s": import_s,
        "replays": replays,
        "spans": first.spans,
        "counts": first.counts,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
