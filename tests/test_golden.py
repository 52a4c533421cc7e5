"""Byte-identity of every file the benchmark workloads write.

Each workload of ``bench/workloads.py`` runs stage by stage through
``typoimpute.cli.main``, in process, on ``bench/gen.py`` data at seeds 1
and 2, and then runs its ``evaluate`` stage once more with
``--exclude-missing``, a branch no workload takes.  The SHA-256 of every
file a stage writes must match the digest committed in
``tests/golden.json``.

The ``routes`` run, at the same seeds on models-M data, takes the routes
no workload takes: ``impute`` with ``method=ensemble``, knn at k = 3
with ``--vectors``, and ``impute --no-fallback`` with a training set that
never observes one feature, whose output ``evaluate --exclude-missing``
scores with some answers missing.  On baselines-L data, filtered and
split as that workload does, it then runs ridge at WALS scale: with its
default blocks, whose widest target is solved in the dual over more
than a thousand rows, and with ``blocks=indicators``, whose widest
targets take the primal ``solve_ridge``.

A change that alters outputs on purpose rewrites the digests with::

    PYTHONPATH=src python tests/test_golden.py

which prints each (workload, seed, stage, file) whose digest changed,
appeared or disappeared; CHANGES.md names those files, and why.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 2)

sys.path.insert(0, str(BENCH))

from gen import generate  # noqa: E402
from workloads import WORKLOADS, baselines_l, models_m  # noqa: E402

ROUTES = "routes"
# Vector components: few distinct values, so exact distance ties occur.
COMPONENTS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _files(directory: Path) -> set[Path]:
    return {path for path in directory.rglob("*") if path.is_file()}


def stages(workload) -> list[tuple[str, list[str]]]:
    """(name, argv) of each stage of ``workload``, then of its
    ``evaluate`` stage again with ``--exclude-missing``, writing to a
    directory of its own."""
    argv = list(next(stage.argv for stage in workload.stages if stage.name == "evaluate"))
    argv[argv.index("--out-dir") + 1] = "eval_exclude_missing"
    return ([(stage.name, list(stage.argv)) for stage in workload.stages]
            + [("evaluate --exclude-missing", argv + ["--exclude-missing"])])


def run_stages(label: str, work: Path, steps) -> dict[str, dict[str, str]]:
    """Run each (name, step) of run ``label``'s ``steps`` in ``work/run``:
    a step is the argv of a ``typoimpute`` subcommand or a callable that
    writes files.  Stage name -> {path written, relative to ``work/run``:
    SHA-256}."""
    from typoimpute import cli

    run = work / "run"
    run.mkdir()
    digests: dict[str, dict[str, str]] = {}
    here = Path.cwd()
    os.chdir(run)
    try:
        for stage, step in steps:
            before = _files(run)
            if callable(step):
                step()
            else:
                code = cli.main(step)
                assert code == 0, f"{label}: stage {stage} exited {code}"
            digests[stage] = {
                path.relative_to(run).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(_files(run) - before)
            }
    finally:
        os.chdir(here)
    return digests


def write_inputs(work: Path, workload, seed: int, configs: dict[str, str]) -> None:
    """The dataset of ``workload`` at ``seed``, and ``configs`` (method ->
    imputer config text) under ``cfg``, in ``work``."""
    (work / "data.tsv").write_text(generate(workload.shape, workload.name, seed), encoding="utf-8")
    (work / "cfg").mkdir()
    for method, text in configs.items():
        (work / "cfg" / f"{method}.cfg").write_text(text, encoding="utf-8")


def run_workload(name: str, seed: int, work: Path) -> dict[str, dict[str, str]]:
    """Run every stage of workload ``name`` at ``seed`` under ``work``:
    stage name -> {path written, relative to the stage directory: SHA-256}.

    The dataset and the imputer configs sit in ``work``, and the stages
    run in ``work/run``, as ``bench/run.py`` lays them out.
    """
    workload = WORKLOADS[name](seed)
    write_inputs(work, workload, seed, workload.configs)
    return run_stages(f"{name} seed {seed}", work, stages(workload))


def write_vectors(path: Path, train: Path, test: Path, seed: int) -> None:
    """A vector file for about 80% of the languages of ``train`` and
    ``test``, drawn from ``seed``: 8 components from ``COMPONENTS``, and
    a zero vector for one training and one test language."""
    from typoimpute.kb import parse_dataset

    rng = random.Random(f"{ROUTES}-{seed}")
    vectors: dict[str, list[float]] = {}
    zeros = []
    for source in (train, test):
        codes = [code for code in parse_dataset(source.read_text(encoding="utf-8")).codes()
                 if rng.random() < 0.8]
        for code in codes:
            vectors[code] = [rng.choice(COMPONENTS) for _ in range(8)]
        zeros.append(rng.choice(codes))
    for code in zeros:
        vectors[code] = [0.0] * 8
    path.write_text("".join(f"{code}\t" + "\t".join(map(str, vector)) + "\n"
                            for code, vector in sorted(vectors.items())), encoding="utf-8")


def drop_feature(path: Path, out: Path, test: Path) -> None:
    """``path``, a dataset file, written to ``out`` without any cell of
    the feature of the first hidden cell of ``test``."""
    from typoimpute.kb import OBSERVED_CODE, parse_dataset

    hidden = parse_dataset(test.read_text(encoding="utf-8"))
    feature = hidden.feature_names[hidden.cell_feature[hidden.cell_state != OBSERVED_CODE][0]]
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        *columns, cells = line.split("\t")
        kept = [cell for cell in cells.split(" | ") if not cell.startswith(f"{feature}=")]
        lines.append("\t".join(columns + [" | ".join(kept)]) + "\n")
    out.write_text("".join(lines), encoding="utf-8")


def run_routes(seed: int, work: Path) -> dict[str, dict[str, str]]:
    """The ``routes`` run at ``seed`` under ``work``, laid out as
    ``run_workload``'s: models-M's split, then ``impute`` with
    ``method=ensemble``, knn with ``--vectors``, and ``--no-fallback``
    on a training set without one feature, all scored by
    ``evaluate --exclude-missing``.  The no-fallback system must leave
    some gold cell missing, or the run checks nothing of that branch.
    Then baselines-L's filter and split, and ridge with default blocks
    and with ``blocks=indicators`` on that split."""
    workload = models_m(seed)
    write_inputs(work, workload, seed,
                 {"ensemble": "method=ensemble\nmembers=correlation,ridge,genus_family\n",
                  "knn": "method=knn\nk=3\n", "genus_family": "method=genus_family\n",
                  "ridge": "method=ridge\n",
                  "ridge_indicators": "method=ridge\nblocks=indicators\n"})
    wals = baselines_l(seed)
    (work / "baselines-L.tsv").write_text(generate(wals.shape, wals.name, seed), encoding="utf-8")
    train, test, gold = "split/train.tsv", "split/test.tsv", "split/test_gold.tsv"
    wals_train, wals_test = "wals_split/train.tsv", "wals_split/test.tsv"

    def impute(method: str, out: str, *extra: str, train: str = train,
               test: str = test) -> list[str]:
        return ["impute", "--train", train, "--test", test, "--out", out,
                "--imputer-config", f"../cfg/{method}.cfg", *extra]

    split = next(stage.argv for stage in workload.stages if stage.name == "split")
    steps = [
        ("split", list(split)),
        ("vectors", lambda: write_vectors(Path("vectors.tsv"), Path(train), Path(test), seed)),
        ("impute:ensemble", impute("ensemble", "filled_ensemble.tsv")),
        ("impute:knn --vectors", impute("knn", "filled_knn_vectors.tsv",
                                        "--vectors", "vectors.tsv")),
        ("drop feature", lambda: drop_feature(Path(train), Path("train_dropped.tsv"), Path(test))),
        ("impute:genus_family --no-fallback",
         impute("genus_family", "filled_no_fallback.tsv", "--no-fallback",
                train="train_dropped.tsv")),
        ("evaluate --exclude-missing",
         ["evaluate", "--test", test, "--gold", gold, "--out-dir", "eval", "--seed", str(seed),
          "--system", "ensemble=filled_ensemble.tsv",
          "--system", "knn_vectors=filled_knn_vectors.tsv",
          "--system", "no_fallback=filled_no_fallback.tsv",
          "--spec", "split/split_spec.cfg", "--exclude-missing"]),
        ("filter baselines-L", ["filter", "--input", "../baselines-L.tsv",
                                "--out", "wals_dense.tsv"]),
        ("split baselines-L", ["split", "--input", "wals_dense.tsv", "--out-dir", "wals_split",
                               "--seed", str(seed)]),
        ("impute:ridge baselines-L", impute("ridge", "filled_ridge_wals.tsv",
                                            train=wals_train, test=wals_test)),
        ("impute:ridge blocks=indicators baselines-L",
         impute("ridge_indicators", "filled_ridge_indicators_wals.tsv",
                train=wals_train, test=wals_test)),
    ]
    digests = run_stages(f"{ROUTES} seed {seed}", work, steps)
    table = (work / "run" / "eval" / "systems.csv").read_text(encoding="utf-8").splitlines()
    rows = {row["system"]: row for row in
            csv.DictReader(line for line in table if not line.startswith("#"))}
    assert int(rows["no_fallback"]["n_missing"]) > 0, f"seed {seed}: no answer is missing"
    return digests


def diff_digests(old: dict, new: dict) -> list[str]:
    """One line per (workload, seed, stage, file) whose digest changed,
    appeared or disappeared from the golden table ``old`` to ``new``,
    both laid out as workload -> seed -> stage -> {file: digest}."""
    def flat(golden: dict) -> dict[tuple[str, str, str, str], str]:
        return {(name, seed, stage, path): digest for name, seeds in golden.items()
                for seed, stages in seeds.items() for stage, files in stages.items()
                for path, digest in files.items()}

    before, after = flat(old), flat(new)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            what = ("appeared" if key not in before else "disappeared" if key not in after
                    else "changed")
            lines.append("{} seed {} stage {}: {}: ".format(*key) + what)
    return lines


def test_diff_digests_names_each_changed_new_and_gone_file():
    old = {"w": {"1": {"split": {"a": "x", "b": "y"}, "blank": {"c": "z"}}}}
    new = {"w": {"1": {"split": {"a": "x", "b": "Y", "d": "q"}}}, "v": {"2": {"s": {"e": "r"}}}}
    assert diff_digests(old, old) == []
    assert diff_digests(old, new) == [
        "v seed 2 stage s: e: appeared",
        "w seed 1 stage blank: c: disappeared",
        "w seed 1 stage split: b: changed",
        "w seed 1 stage split: d: appeared",
    ]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_outputs_match_golden_digests(golden, tmp_path, name, seed):
    want = golden[name][str(seed)]
    got = run_workload(name, seed, tmp_path)
    assert list(got) == list(want), f"{name} seed {seed}: stages differ"
    problems = diff_digests({name: {str(seed): want}}, {name: {str(seed): got}})
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("seed", SEEDS)
def test_routes_outputs_match_golden_digests(golden, tmp_path, seed):
    want = golden[ROUTES][str(seed)]
    got = run_routes(seed, tmp_path)
    assert list(got) == list(want), f"{ROUTES} seed {seed}: stages differ"
    problems = diff_digests({ROUTES: {str(seed): want}}, {ROUTES: {str(seed): got}})
    assert not problems, "\n".join(problems)


def main() -> int:
    """Rewrite ``tests/golden.json`` from a fresh run of every workload
    and of the ``routes`` run, and print each file whose digest changed,
    appeared or disappeared."""
    import tempfile

    golden: dict[str, dict[str, dict]] = {}
    runs = {name: functools.partial(run_workload, name) for name in WORKLOADS}
    runs[ROUTES] = run_routes
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(runs):
            golden[name] = {}
            for seed in SEEDS:
                work = Path(scratch) / f"{name}-{seed}"
                work.mkdir()
                golden[name][str(seed)] = runs[name](seed, work)
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for line in diff_digests(old, golden):
        print(line)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    n = sum(len(files) for seeds in golden.values() for stages in seeds.values()
            for files in stages.values())
    print(f"wrote {n} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
