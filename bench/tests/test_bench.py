"""Tests of the benchmark itself: generator, output checks, metric names.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from check import check_filled, check_systems, hidden_cells, read_tsv  # noqa: E402
from gen import HELD_OUT_GENERA, generate  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from run import SRC, BenchError, StageRun, check_repeat, check_stages, clear_outputs, imported  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _shape(name):
    return WORKLOADS[name](0).shape


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    shape = _shape(name)
    first = generate(shape, name, 3)
    assert generate(shape, name, 3) == first
    assert generate(shape, name, 4) != first


def test_generator_shape_and_quirks():
    from typoimpute.kb import filter_dataset, parse_dataset
    from typoimpute.splits import DEFAULT_HELD_OUT_GENERA

    assert tuple(g for g, _, _ in HELD_OUT_GENERA) == DEFAULT_HELD_OUT_GENERA
    shape = _shape("baselines-L")
    text = generate(shape, "baselines-L", 1)
    data = parse_dataset(text)
    assert len(data.languages) == shape.languages
    genera = {lang.genus for lang in data.languages}
    assert set(DEFAULT_HELD_OUT_GENERA) <= genera
    # Stray tabs: some records have more than eight tab-separated fields.
    assert any(line.count("\t") > 7 for line in text.splitlines())
    # Held-out genera that are the only genus of their family.
    families = {}
    for lang in data.languages:
        families.setdefault(lang.family, set()).add(lang.genus)
    solo = [genus for genus, family, _ in HELD_OUT_GENERA if family is None]
    assert solo and all(families[genus] == {genus} for genus in solo)
    # The filter has sparse languages and rare features to drop.
    dense = filter_dataset(data)
    assert len(dense.languages) < len(data.languages)
    assert len(dense.catalog.features()) < len(data.catalog.features())


HEADER = "code\tname\tlatitude\tlongitude\tgenus\tfamily\tcountries\tfeatures\n"


def _write(path: Path, rows: list[str]) -> dict:
    path.write_text(HEADER + "".join(r + "\n" for r in rows), encoding="utf-8")
    return read_tsv(path)


@pytest.fixture
def small(tmp_path):
    train = _write(tmp_path / "train.tsv", [
        "a\tA\t1.0\t2.0\tG\tF\tXX\tf1=x | f2=p",
        "b\tB\t1.5\t2.5\tG\tF\tXX\tf1=y | f2=q",
    ])
    test = _write(tmp_path / "test.tsv", [
        "c\tC\t3.0\t4.0\tH\tF\tXX\tf1=x | f2=?",
    ])
    return tmp_path, train, test


def test_check_accepts_a_correct_fill(small):
    tmp, train, test = small
    filled = _write(tmp / "ok.tsv", ["c\tC\t3.0\t4.0\tH\tF\tXX\tf1=x |\tf2=q"])
    assert check_filled(train, test, filled) == []


@pytest.mark.parametrize("row, reason", [
    ("c\tC\t3.0\t4.0\tH\tF\tXX\tf1=y | f2=q", "observed"),
    ("c\tC\t3.0\t4.0\tH\tF\tXX\tf1=x | f2=?", "left hidden"),
    ("c\tC\t3.0\t4.0\tH\tF\tXX\tf1=x | f2=z", "outside the training inventory"),
    ("c\tC\t9.0\t4.0\tH\tF\tXX\tf1=x | f2=q", "metadata"),
])
def test_check_rejects_a_bad_fill(small, row, reason):
    tmp, train, test = small
    filled = _write(tmp / "bad.tsv", [row])
    problems = check_filled(train, test, filled)
    assert any(reason in p for p in problems), problems


def test_check_systems_counts_hidden_cells(small):
    tmp, _, test = small
    gold = _write(tmp / "gold.tsv", ["c\tC\t3.0\t4.0\tH\tF\tXX\tf1=x | f2=p"])
    n = hidden_cells(test, gold)
    assert n == 1
    csv = tmp / "systems.csv"
    csv.write_text("# seed=1\nsystem,macro_accuracy,micro_accuracy,n_blanked,n_missing\n"
                   "knn,0.5,0.5,1,0\n", encoding="utf-8")
    assert check_systems(csv, ("knn",), n) == ([], 0.5)
    problems, _ = check_systems(csv, ("knn",), 2)
    assert problems


def test_check_repeat_flags_a_changed_output():
    stage = WORKLOADS["models-M"](0).stages[1]
    same, changed = StageRun(stage, 0, 1.0, 1.0), StageRun(stage, 0, 1.0, 1.0)
    check_repeat([same], {stage.name: "aa"}, {stage.name: "aa"})
    check_repeat([changed], {stage.name: "ab"}, {stage.name: "aa"})
    assert same.problems == []
    assert changed.problems


def test_rerun_that_writes_nothing_fails(tmp_path):
    workload = WORKLOADS["models-M"](0)
    stage = workload.stages[0]  # split
    (tmp_path / "split").mkdir()
    (tmp_path / stage.out).write_text("first pass", encoding="utf-8")
    (tmp_path / stage.manifest).write_text("command=split\n", encoding="utf-8")
    clear_outputs(stage, tmp_path)
    run = StageRun(stage, 0, 1.0, 1.0)
    check_stages(workload, [run], tmp_path, {})
    assert any("missing manifest" in p for p in run.problems), run.problems
    assert any("missing output" in p for p in run.problems), run.problems


def test_import_stamp(tmp_path):
    stamp = tmp_path / "stamp.txt"
    assert imported(stamp, 1.0) is None
    stamp.write_text(f"3.5 {SRC / 'typoimpute' / 'cli.py'}")
    assert imported(stamp, 1.0) == pytest.approx(2.5)
    stamp.write_text("3.5 /elsewhere/typoimpute/cli.py")
    with pytest.raises(BenchError):
        imported(stamp, 1.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert set(layer_metrics([], {}, 0.0, 0.0, {})) == set(PER_LAYER)


def test_layer_metrics_self_and_busy_time():
    ms = 1_000_000
    spans = [
        [0, "cli.impute", 0, 100 * ms, None],
        [1, "kb.parse", 0, 10 * ms, 0],
        [2, "imputers.ridge.fit", 10 * ms, 60 * ms, 0],
        [3, "imputers.ridge.design", 10 * ms, 30 * ms, 2],
        [4, "imputers.ridge.predict", 60 * ms, 70 * ms, 0],
    ]
    m = layer_metrics(spans, {"imputers.ridge.predict.unanswered": 1}, 1.0, 0.0, {"ridge": 0.5})
    assert m["cli.impute.self_s"] == pytest.approx(0.030)
    assert m["imputers.busy_s"] == pytest.approx(0.060)
    assert m["imputers.self_s"] == pytest.approx(0.060)
    assert m["imputers.ridge.design_rows"] == 1
    assert m["imputers.ridge.answered_ratio"] == 0.0
    assert m["imputers.knn.cells"] == 0
