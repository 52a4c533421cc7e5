"""Seeded fuzz of the pipeline's stages on tiny, degenerate datasets.

Each trial writes a dataset of 1 to 10 languages and 1 to 5 features,
with poles, the antimeridian, one-value features and languages that
observe nothing, and a split spec that may hold out no genus, an
absent genus, nothing at random or everything.  It then runs
``split``, ``impute`` with every method and ``evaluate`` in process
through ``cli.main``.  A stage either exits 0 with output the next
stage accepts, or exits nonzero with one line that names the cause.
"""

from __future__ import annotations

import random

import pytest

from typoimpute.cli import main

N_TRIALS = 100

CONFIGS = {
    "frequency": "method=frequency\n",
    "genus_family": "method=genus_family\n",
    "geo_backoff": "method=geo_backoff\n",
    "knn": "method=knn\n",
    "correlation": "method=correlation\nmin_support=1\n",
    "ridge": "method=ridge\nmin_support=1\n",
    "ridge_context": "method=ridge\nuse_context=true\n",
    "ensemble": "method=ensemble\nmembers=correlation,knn,genus_family\n",
}

# What ``cli.main`` prints before a nonzero exit.
CAUSES = ("data error: ", "config error: ", "usage error: ", "missing input: ", "i/o error: ")

GENERA = (("G1", "F1"), ("G2", "F1"), ("G3", "F2"), ("Mayan", "Mayan"))
PLACES = ((90.0, 0.0), (-90.0, 45.0), (0.0, 180.0), (0.0, -180.0), (10.0, 179.9),
          (10.0, -179.9))


def tiny_dataset(rng: random.Random) -> tuple[str, list[str]]:
    """The dataset text and the genera it has, sorted."""
    features = [f"{i}A Feature {i}" for i in range(1, rng.choice([1, 2, 3, 4, 5, 5]) + 1)]
    # a feature with one value everywhere, or up to three values
    values = {f: ["v"] if rng.random() < 0.3 else ["a", "b", "c"][:rng.randint(1, 3)]
              for f in features}
    lines = []
    present = set()
    for i in range(rng.randint(1, 10)):
        genus, family = rng.choice(GENERA)
        present.add(genus)
        lat, lon = rng.choice(PLACES) if rng.random() < 0.4 else (
            round(rng.uniform(-60, 60), 2), round(rng.uniform(-170, 170), 2))
        cells = []
        for f in features:
            draw = rng.random()
            if draw < 0.85:
                cells.append(f"{f}={rng.choice(values[f])}")
            elif draw < 0.95:
                cells.append(f"{f}=?")
        lines.append(f"l{i}\tL{i}\t{lat}\t{lon}\t{genus}\t{family}\tXX\t{' | '.join(cells)}\n")
    return "".join(lines), sorted(present)


def tiny_spec(rng: random.Random, present: list[str]) -> str:
    # None keeps the default genera, which these datasets lack
    genera = rng.choice(["", rng.choice(present), rng.choice(present), rng.choice(present),
                         ",".join(present), "Absent", None])
    lines = [] if genera is None else [f"genera={genera}"]
    lines.append(f"radius_km={rng.choice([0, 300, 5000, 20000])}")
    lines.append(f"holdout_fraction={rng.choice([0, 0.3, 0.5, 1.0])}")
    lines.append(f"seed={rng.randrange(1000)}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def stage(capsys):
    """Run one stage; a nonzero exit must print one line naming its
    cause, and an exception must not escape ``main``."""

    def run(trial: int, argv: list[str]) -> int:
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - reported as the failure
            pytest.fail(f"trial {trial}: {argv[0]} raised {exc!r}")
        err = capsys.readouterr().err
        if code != 0:
            # log records go to the logging capture, not to stderr
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith(CAUSES), (trial, argv[0], err)
            assert lines[0].split(": ", 1)[1].strip(), (trial, argv[0], err)
        return code

    return run


def test_every_stage_succeeds_usably_or_fails_with_one_line(tmp_path, stage):
    rng = random.Random(20261019)
    for method, text in CONFIGS.items():
        (tmp_path / f"{method}.cfg").write_text(text, encoding="utf-8")
    outcomes = {"split failed": 0, "evaluated": 0}
    for trial in range(N_TRIALS):
        work = tmp_path / f"t{trial}"
        work.mkdir()
        text, present = tiny_dataset(rng)
        (work / "data.tsv").write_text(text, encoding="utf-8")
        (work / "spec.cfg").write_text(tiny_spec(rng, present), encoding="utf-8")
        split = work / "split"
        if stage(trial, ["split", "--input", str(work / "data.tsv"), "--out-dir", str(split),
                         "--spec", str(work / "spec.cfg")]):
            assert not split.exists(), trial
            outcomes["split failed"] += 1
            continue
        systems = []
        for method in CONFIGS:
            out = work / f"filled_{method}.tsv"
            code = stage(trial, ["impute", "--train", str(split / "train.tsv"),
                                 "--test", str(split / "test.tsv"), "--out", str(out),
                                 "--imputer-config", str(tmp_path / f"{method}.cfg")])
            assert code == 0, f"trial {trial}: impute {method} rejects the split's output"
            systems += ["--system", f"{method}={out}"]
        code = stage(trial, ["evaluate", "--test", str(split / "test.tsv"),
                             "--gold", str(split / "test_gold.tsv"), "--out-dir",
                             str(work / "eval"), "--seed", "1", "--samples", "20",
                             "--spec", str(split / "split_spec.cfg"), *systems])
        assert code == 0, f"trial {trial}: evaluate rejects the filled files"
        outcomes["evaluated"] += 1
    # both paths are exercised
    assert min(outcomes.values()) >= 10, outcomes
