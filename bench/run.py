"""Seeded end-to-end benchmark of the ``typoimpute`` pipeline.

Usage (from the repository root)::

    python3 bench/run.py --workload models-M --seed 1 --seconds 32 --trace 0

The run generates the workload's dataset from the seed, then runs the
real CLI stage by stage, each stage a fresh ``python`` child with
BLAS threads pinned to 1 and a fixed ``PYTHONHASHSEED``.  After one
full pass it re-runs stages until ``--seconds`` have gone, checks every
stage's outputs, and reports per-stage medians.  The SHA-256 of each
stage's main output, the filled file of each method among them, is
printed above the metrics, so prediction drift shows next to speed.
``--trace 1`` instead replays the stages in one traced child process
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All files go
to ``.bench_tmp/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_filled, check_manifest, check_systems, hidden_cells, macro_by_system, read_tsv
from gen import generate
from metrics import END_TO_END, PER_LAYER, layer_metrics
from workloads import EVALUATE, PREP, WORKLOADS, Stage, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
# Every stage child takes a stamp file as its first argument and writes
# the clock time at which ``typoimpute.cli`` finished importing, and the
# file it was imported from, before it runs the subcommand.
CLI = ("import sys, time; from typoimpute import cli; t = time.monotonic(); "
       "open(sys.argv.pop(1), 'w').write(f'{t!r} {cli.__file__}'); sys.exit(cli.main())")
DEADLINE_S = 170.0  # every child is killed after this, so a run ends within 180 s


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, wrong module)."""


@dataclass
class StageRun:
    stage: Stage
    code: int
    seconds: float
    rss_mb: float
    import_s: float | None = None  # interpreter start plus ``import typoimpute.cli``
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, argv: list[str], cwd: Path, log_path: Path) -> tuple[int, float, float, float]:
        """Run one child to completion: (exit code, wall seconds, max RSS
        in MB, ``time.monotonic()`` at the start).

        The RSS comes from ``wait4`` on this child alone, not from the
        cumulative RUSAGE_CHILDREN.
        """
        with open(log_path, "ab") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, start


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def inputs_digest(work: Path) -> str:
    """Digest of everything a stage's output may depend on, keying the
    repeat-determinism cache: the program's source, the generated
    inputs, the stage arguments, and the Python, numpy and scipy
    versions."""
    h = hashlib.sha256()
    h.update(f"{sys.version} numpy {_version('numpy')} scipy {_version('scipy')}".encode())
    inputs = [work / "data.tsv", work / "plan.json", *(work / "cfg").glob("*.cfg")]
    for base, paths in ((SRC, SRC.rglob("*.py")), (work, inputs)):
        for path in sorted(paths):
            h.update(str(path.relative_to(base)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: Workload, seed: int, work: Path) -> None:
    (work / "data.tsv").write_text(generate(workload.shape, workload.name, seed), encoding="utf-8")
    (work / "plan.json").write_text(json.dumps({"stages": [list(s.argv) for s in workload.stages]}))
    (work / "cfg").mkdir()
    for method, text in workload.configs.items():
        (work / "cfg" / f"{method}.cfg").write_text(text, encoding="utf-8")


def check_stages(workload: Workload, runs: list[StageRun], directory: Path,
                 tables: dict[str, dict]) -> tuple[dict[str, str], dict[str, int], float | None]:
    """Check every stage's outputs in place.

    ``tables`` caches the parsed input files by name.  Returns the
    SHA-256 of each stage's main output by stage name, the number of
    hidden cells each method filled, and the mean macro accuracy over
    the systems.
    """

    def table(name: str) -> dict:
        if name not in tables:
            tables[name] = read_tsv(directory / name)
        return tables[name]

    digests: dict[str, str] = {}
    filled: dict[str, int] = {}
    macro = None
    for run in runs:
        stage = run.stage
        if run.code != 0:
            run.problems.append(f"exit code {run.code}")
            continue
        run.problems += check_manifest(directory / stage.manifest)
        if not (directory / stage.out).is_file():
            run.problems.append(f"missing output {stage.out}")
            continue
        out = directory / stage.out
        digests[stage.name] = hashlib.sha256(out.read_bytes()).hexdigest()
        try:
            if stage.method:
                run.problems += check_filled(table(stage.train), table(stage.test), read_tsv(out))
                filled[stage.method] = sum(
                    v == "?" for _, cells in table(stage.test).values() for v in cells.values())
            elif stage.name == "evaluate":
                n_hidden = hidden_cells(table(stage.test), table(stage.gold))
                problems, macro = check_systems(directory / stage.out, workload.methods, n_hidden)
                run.problems += problems
        except (OSError, ValueError, KeyError) as exc:
            run.problems.append(f"unreadable output: {exc!r}")
    return digests, filled, macro


def clear_outputs(stage: Stage, directory: Path) -> None:
    """Delete a stage's output and manifest, so a re-run is checked on
    what it writes itself."""
    for name in (stage.out, stage.manifest):
        (directory / name).unlink(missing_ok=True)


def check_repeat(runs: list[StageRun], digests: dict[str, str], reference: dict[str, str]) -> None:
    """Fail each stage whose main output differs from a repeat."""
    for run in runs:
        name = run.stage.name
        if name in reference and name in digests and digests[name] != reference[name]:
            run.problems.append(f"{run.stage.out} differs from a repeat of the same workload and seed")


class DigestCache:
    """Stage output digests of earlier runs, by workload, inputs and source."""

    def __init__(self, key: str):
        self.path = TMP / "digests.json"
        self.key = key
        self.data = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def reference(self) -> dict[str, str]:
        return self.data.get(self.key, {})

    def store(self, digests: dict[str, str]) -> None:
        if self.key not in self.data and digests:
            self.data[self.key] = digests
            self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))


def imported(stamp: Path, began: float) -> float | None:
    """Seconds from a stage child's start until its import of
    ``typoimpute.cli`` ended, or None if it never got there.

    A child that imported the module from anywhere but the source tree
    stops the run, because it would not measure this program.
    """
    if not stamp.is_file():
        return None
    clock, module = stamp.read_text().split(" ", 1)
    if not module.startswith(str(SRC)):
        raise BenchError(f"typoimpute.cli was imported from {module}, not from {SRC}")
    return float(clock) - began


def count_failures(runs: list[StageRun]) -> int:
    for r in runs:
        for problem in r.problems:
            print(f"FAIL {r.stage.name}: {problem}", file=sys.stderr)
    return sum(1 for r in runs if r.problems)


def end_to_end(runner: Runner, workload: Workload, work: Path, seconds: float,
               cache: DigestCache) -> tuple[dict[str, float], int, int, dict[str, str]]:
    """Time the CLI stages for ``seconds``.

    A first pass runs every stage in order and always completes.  Then,
    until ``seconds`` have gone, the stage with the least measured time
    so far runs again, in the same directory on the first pass's
    outputs.  Its own output and manifest are deleted first, so the
    checks read what that invocation wrote.  Short stages so get
    several samples spread over the run, and each stage's figure is the
    median of its samples: a slow moment on a shared machine moves one
    sample, not the result.  Every stage invocation also gives one
    sample of ``setup_s``, the time from its start until
    ``typoimpute.cli`` has imported.
    """
    directory = work / "pipeline"
    directory.mkdir()
    tables: dict[str, dict] = {}
    samples: dict[str, list[StageRun]] = {stage.name: [] for stage in workload.stages}
    reference = cache.reference()
    attempted = failed = 0

    def run(stages) -> tuple[dict[str, int], float | None]:
        nonlocal reference, attempted, failed
        runs = []
        stamp = work / "stamp.txt"
        for stage in stages:
            clear_outputs(stage, directory)
            stamp.unlink(missing_ok=True)
            code, wall, rss, began = runner.spawn([sys.executable, "-c", CLI, str(stamp), *stage.argv],
                                                  directory, directory / "stages.log")
            runs.append(StageRun(stage, code, wall, rss, imported(stamp, began)))
            samples[stage.name].append(runs[-1])
        digests, filled, macro = check_stages(workload, runs, directory, tables)
        check_repeat(runs, digests, reference)
        reference = reference or digests
        attempted += len(runs)
        failed += count_failures(runs)
        return filled, macro

    start = time.perf_counter()
    cells, macro = run(workload.stages)
    while time.perf_counter() - start < seconds and time.monotonic() + 30 < runner.deadline:
        run([min(workload.stages, key=lambda s: sum(r.seconds for r in samples[s.name]))])
    if failed == 0:
        cache.store(reference)

    def median_s(stages) -> float:
        return sum(statistics.median(r.seconds for r in samples[s.name]) for s in stages)

    stages = workload.stages
    impute = [s for s in stages if s.method]
    runs = [r for s in stages for r in samples[s.name]]
    import_s = [r.import_s for r in runs if r.import_s is not None]
    if not import_s:
        raise BenchError(f"no stage imported typoimpute.cli; see {directory / 'stages.log'}")
    print(f"{attempted} stage runs", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(import_s),
        "pipeline_s": median_s(stages),
        "prep_s": median_s([s for s in stages if s.subcommand in PREP]),
        "impute_cells_per_s": sum(cells.get(s.method, 0) for s in impute) / median_s(impute),
        "evaluate_s": median_s([s for s in stages if s.subcommand in EVALUATE]),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "macro_acc": macro or 0.0,
        "success_rate": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed, reference


def traced(runner: Runner, workload: Workload, work: Path, seed: int,
           cache: DigestCache) -> tuple[dict[str, float], int, int, dict[str, str]]:
    plan = work / "plan.json"
    code, _, _, _ = runner.spawn([sys.executable, str(BENCH / "trace_child.py"), str(plan),
                                  str(work / "trace.json")], work, work / "trace.log")
    if code != 0:
        raise BenchError(f"traced replay exited with {code}; see {work / 'trace.log'}")
    result = json.loads((work / "trace.json").read_text())
    if not result["module"].startswith(str(SRC)):
        raise BenchError(f"traced replay imported {result['module']}")

    def replayed(replay: dict) -> list[StageRun]:
        return [StageRun(stage, code, seconds, 0.0) for stage, code, seconds
                in zip(workload.stages, replay["codes"], replay["seconds"])]

    first, *others = result["replays"]
    runs = replayed(first)
    digests, _, _ = check_stages(workload, runs, work / first["dir"], {})
    for other in others:
        other_digests, _, _ = check_stages(workload, replayed(other), work / other["dir"], {})
        check_repeat(runs, digests, other_digests)
    check_repeat(runs, digests, cache.reference())
    failed = count_failures(runs)
    if failed == 0:
        cache.store(digests)

    spans = result["spans"]
    spans_dir = TMP / "spans"
    spans_dir.mkdir(exist_ok=True)
    run_id = f"{workload.name}:{seed}"
    with open(spans_dir / f"{workload.name}-{seed}.jsonl", "w", encoding="utf-8") as out:
        for sid, name, start, end, parent in spans:
            out.write(json.dumps({"run": run_id, "id": sid, "name": name, "start_ns": start,
                                  "end_ns": end, "parent": parent}) + "\n")

    systems = work / first["dir"] / "eval" / "systems.csv"
    macro = macro_by_system(systems) if systems.is_file() else {}
    sign = {"traced": 1, "plain": -1}
    overhead = sum(sign[r["mode"]] * sum(r["seconds"]) for r in result["replays"]) / 2
    metrics = layer_metrics(spans, result["counts"], result["import_s"], overhead, macro)
    return metrics, len(runs), failed, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(time.monotonic() + DEADLINE_S)
    if not (SRC / "typoimpute" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'typoimpute'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    TMP.mkdir(exist_ok=True)
    work = TMP / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        prepare(workload, args.seed, work)
        cache = DigestCache(f"{workload.name}:{inputs_digest(work)}")
        if args.trace:
            metrics, attempted, failed, digests = traced(runner, workload, work, args.seed, cache)
            units = PER_LAYER
        else:
            metrics, attempted, failed, digests = end_to_end(runner, workload, work,
                                                             args.seconds, cache)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name in sorted(digests):
        print(f"{'sha256.' + name:40s} {digests[name]}")
    for name, (unit, _) in units.items():
        print(f"{name:40s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
