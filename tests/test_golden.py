"""Byte-identity of every file the benchmark workloads write.

Each workload of ``bench/workloads.py`` runs stage by stage through
``typoimpute.cli.main``, in process, on ``bench/gen.py`` data at seeds 1
and 2.  The SHA-256 of every file a stage writes must match the digest
committed in ``tests/golden.json``.

A change that alters outputs on purpose rewrites the digests with::

    PYTHONPATH=src python tests/test_golden.py

and names the files that changed, and why, in CHANGES.md.
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
        for stage in workload.stages:
            before = _files(run)
            code = cli.main(list(stage.argv))
            assert code == 0, f"{name} seed {seed}: stage {stage.name} exited {code}"
            digests[stage.name] = {
                path.relative_to(run).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(_files(run) - before)
            }
    finally:
        os.chdir(here)
    return digests


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_outputs_match_golden_digests(golden, tmp_path, name, seed):
    want = golden[name][str(seed)]
    got = run_workload(name, seed, tmp_path)
    assert list(got) == list(want), f"{name} seed {seed}: stages differ"
    problems = []
    for stage, files in want.items():
        for path in sorted(set(files) | set(got[stage])):
            if got[stage].get(path) != files.get(path):
                what = ("not written" if path not in got[stage] else "new file"
                        if path not in files else "digest differs")
                problems.append(f"{name} seed {seed} stage {stage}: {path}: {what}")
    assert not problems, "\n".join(problems)


def main() -> int:
    """Rewrite ``tests/golden.json`` from a fresh run of every workload."""
    import tempfile

    golden: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(WORKLOADS):
            golden[name] = {}
            for seed in SEEDS:
                work = Path(scratch) / f"{name}-{seed}"
                work.mkdir()
                golden[name][str(seed)] = run_workload(name, seed, work)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    n = sum(len(files) for seeds in golden.values() for stages in seeds.values()
            for files in stages.values())
    print(f"wrote {n} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
