"""Byte-identity of every file the benchmark workloads write.

Each workload of ``bench/workloads.py`` runs stage by stage through
``typoimpute.cli.main``, in process, on ``bench/gen.py`` data at seeds 1
and 2, and then runs its ``evaluate`` stage once more with
``--exclude-missing``, a branch no workload takes.  The SHA-256 of every
file a stage writes must match the digest committed in
``tests/golden.json``.

A change that alters outputs on purpose rewrites the digests with::

    PYTHONPATH=src python tests/test_golden.py

which prints each (workload, seed, stage, file) whose digest changed,
appeared or disappeared; CHANGES.md names those files, and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 2)

sys.path.insert(0, str(BENCH))

from gen import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


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


def run_workload(name: str, seed: int, work: Path) -> dict[str, dict[str, str]]:
    """Run every stage of workload ``name`` at ``seed`` under ``work``:
    stage name -> {path written, relative to the stage directory: SHA-256}.

    The dataset and the imputer configs sit in ``work``, and the stages
    run in ``work/run``, as ``bench/run.py`` lays them out.
    """
    from typoimpute import cli

    workload = WORKLOADS[name](seed)
    (work / "data.tsv").write_text(generate(workload.shape, workload.name, seed), encoding="utf-8")
    (work / "cfg").mkdir()
    for method, text in workload.configs.items():
        (work / "cfg" / f"{method}.cfg").write_text(text, encoding="utf-8")
    run = work / "run"
    run.mkdir()
    digests: dict[str, dict[str, str]] = {}
    here = Path.cwd()
    os.chdir(run)
    try:
        for stage, argv in stages(workload):
            before = _files(run)
            code = cli.main(argv)
            assert code == 0, f"{name} seed {seed}: stage {stage} exited {code}"
            digests[stage] = {
                path.relative_to(run).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(_files(run) - before)
            }
    finally:
        os.chdir(here)
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


def main() -> int:
    """Rewrite ``tests/golden.json`` from a fresh run of every workload,
    and print each file whose digest changed, appeared or disappeared."""
    import tempfile

    golden: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(WORKLOADS):
            golden[name] = {}
            for seed in SEEDS:
                work = Path(scratch) / f"{name}-{seed}"
                work.mkdir()
                golden[name][str(seed)] = run_workload(name, seed, work)
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
