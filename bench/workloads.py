"""The benchmark's workloads: a dataset shape and the CLI stages run on it.

Every stage is one ``typoimpute`` subcommand.  Paths in a stage's
arguments are relative to the directory the stages run in; the
generated dataset and the imputer configs sit one level up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from gen import Shape

__all__ = ["Stage", "Workload", "WORKLOADS", "PREP", "EVALUATE"]

# Stage groups of the end-to-end metrics.
PREP = ("filter", "split", "blank")
EVALUATE = ("evaluate", "report")


@dataclass(frozen=True)
class Stage:
    """One CLI invocation.

    ``method`` is set on impute stages.  ``train``, ``test`` and
    ``gold`` name the files the output checks read.
    """

    name: str
    argv: tuple[str, ...]
    method: Optional[str] = None
    train: Optional[str] = None
    test: Optional[str] = None
    gold: Optional[str] = None
    out: Optional[str] = None
    manifest: Optional[str] = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    configs: dict[str, str]  # method -> imputer config text
    stages: tuple[Stage, ...]

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(s.method for s in self.stages if s.method)


def _impute(method: str, train: str, test: str) -> Stage:
    out = f"filled_{method}.tsv"
    return Stage(
        name=f"impute:{method}",
        argv=("impute", "--train", train, "--test", test, "--out", out,
              "--imputer-config", f"../cfg/{method}.cfg"),
        method=method,
        train=train,
        test=test,
        out=out,
        manifest=f"{out}.manifest",
    )


def _evaluate(methods: tuple[str, ...], test: str, gold: str, seed: int,
              spec: Optional[str]) -> tuple[Stage, Stage]:
    argv = ["evaluate", "--test", test, "--gold", gold, "--out-dir", "eval",
            "--seed", str(seed)]
    for m in methods:
        argv += ["--system", f"{m}=filled_{m}.tsv"]
    if spec:
        argv += ["--spec", spec]
    evaluate = Stage("evaluate", tuple(argv), test=test, gold=gold,
                     out="eval/systems.csv", manifest="eval/run_manifest.txt")
    report = Stage("report", ("report", "--input", "eval", "--out", "report.txt"),
                   out="report.txt", manifest="report.txt.manifest")
    return evaluate, report


def _controlled(name: str, shape: Shape, methods: tuple[str, ...],
                configs: dict[str, str], filter_first: bool, seed: int) -> Workload:
    stages: list[Stage] = []
    data = "../data.tsv"
    if filter_first:
        stages.append(Stage("filter", ("filter", "--input", data, "--out", "dense.tsv"),
                            out="dense.tsv", manifest="dense.tsv.manifest"))
        data = "dense.tsv"
    stages.append(Stage("split", ("split", "--input", data, "--out-dir", "split",
                                  "--seed", str(seed)),
                        out="split/test.tsv", manifest="split/run_manifest.txt"))
    train, test, gold = "split/train.tsv", "split/test.tsv", "split/test_gold.tsv"
    stages += [_impute(m, train, test) for m in methods]
    stages += _evaluate(methods, test, gold, seed, "split/split_spec.cfg")
    return Workload(name, shape, configs, tuple(stages))


def _context_random(seed: int) -> Workload:
    shape = Shape(800, 70, 0.30, held_sizes=(6, 5, 5, 4, 4, 3), near_size=3)
    methods = ("ridge", "genus_family")
    configs = {"ridge": "method=ridge\nuse_context=true\n", "genus_family": "method=genus_family\n"}
    train, test, gold = "split/train.tsv", "blank/blanked.tsv", "blank/gold.tsv"
    stages = [
        Stage("split", ("split", "--input", "../data.tsv", "--out-dir", "split",
                        "--random-fractions", "0.7,0.1,0.2", "--seed", str(seed)),
              out="split/test.tsv", manifest="split/run_manifest.txt"),
        Stage("blank", ("blank", "--input", "split/test.tsv", "--out-dir", "blank",
                        "--seed", str(seed), "--low", "0.3", "--high", "0.9"),
              out="blank/blanked.tsv", manifest="blank/run_manifest.txt"),
    ]
    stages += [_impute(m, train, test) for m in methods]
    stages += _evaluate(methods, test, gold, seed, None)
    return Workload("context-random", shape, configs, tuple(stages))


def _configs(methods: tuple[str, ...]) -> dict[str, str]:
    return {m: f"method={m}\n" for m in methods}


def models_m(seed: int) -> Workload:
    methods = ("frequency", "knn", "correlation", "ridge")
    return _controlled(
        "models-M",
        Shape(600, 60, 0.30, held_sizes=(9, 8, 8, 7, 6, 6), near_size=3),
        methods, _configs(methods), filter_first=False, seed=seed,
    )


def baselines_l(seed: int) -> Workload:
    methods = ("frequency", "genus_family", "geo_backoff")
    return _controlled(
        "baselines-L",
        Shape(2000, 150, 0.20, held_sizes=(12, 11, 10, 10, 9, 8), near_size=4,
              sparse_share=0.03, rare_features=3),
        methods, _configs(methods), filter_first=True, seed=seed,
    )


WORKLOADS = {
    "models-M": models_m,
    "baselines-L": baselines_l,
    "context-random": _context_random,
}
