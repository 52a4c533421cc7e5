"""Command-line interface: exit codes, output files, and determinism."""

import argparse
import csv
import io
import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path, PurePosixPath

import pytest

from typoimpute.cli import build_parser, main
from typoimpute.configio import parse_kv, read_kv
from typoimpute.imputers import ridge
from typoimpute.kb import BLANKED, OBSERVED, UNKNOWN, parse_dataset, serialize_dataset

from oracles import impute_loop_oracle, serialize_oracle
from synth import (Cell, blank_some, build_dataset, cells_of, child_env, make_language,
                   random_dataset)


def _corpus_dataset():
    """12 languages in 3 genera with 6 dense features."""
    languages = []
    cells = {}
    plan = [("GenA", "FamX", 0.0), ("GenB", "FamX", 20.0), ("GenC", "FamY", 40.0)]
    i = 0
    for genus, family, base_lat in plan:
        for j in range(4):
            code = f"l{i:02d}"
            languages.append(
                make_language(code, genus=genus, family=family,
                              lat=base_lat + j, lon=10.0 * j)
            )
            for f in range(6):
                cells[(code, f"f{f} Feature {f}")] = Cell.observed(f"v{(i + f) % 3}")
            i += 1
    return build_dataset(languages, cells)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text(serialize_dataset(_corpus_dataset()), encoding="utf-8")
    return path


SPEC_TEXT = (
    "genera=GenA\n"
    "radius_km=500\n"
    "holdout_fraction=0.1\n"
    "blank_low=0.05\n"
    "blank_high=0.95\n"
    "seed=7\n"
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "split.cfg"
    path.write_text(SPEC_TEXT, encoding="utf-8")
    return path


def _manifest_is_timestamp_free(path):
    items = read_kv(path)
    assert "command" in items
    assert "config_hash" in items
    for key in items:
        assert "time" not in key.lower()
        assert "date" not in key.lower()
    return items


def test_filter_roundtrip(tmp_path, corpus):
    out = tmp_path / "filtered.tsv"
    assert main(["filter", "--input", str(corpus), "--out", str(out)]) == 0
    filtered = parse_dataset(out.read_text(encoding="utf-8"))
    assert len(filtered.languages) == 12  # dense corpus survives the defaults
    items = _manifest_is_timestamp_free(tmp_path / "filtered.tsv.manifest")
    assert items["command"] == "filter"
    assert items["param.min_features"] == "4"
    assert len(items["input.input"]) == 64


def test_filter_thresholds_drop_everything(tmp_path, corpus):
    out = tmp_path / "filtered.tsv"
    code = main([
        "filter", "--input", str(corpus), "--out", str(out), "--min-features", "99",
    ])
    assert code == 0
    assert parse_dataset(out.read_text(encoding="utf-8")).languages == []


def _sha256(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_filter_over_its_input_records_the_input_digest(tmp_path, corpus):
    """Input digests are taken before the first output byte is written,
    so an output that overwrites its input does not stand in for it."""
    before = _sha256(corpus)
    assert main(["filter", "--input", str(corpus), "--out", str(corpus),
                 "--min-features", "30"]) == 0
    assert _sha256(corpus) != before
    assert read_kv(f"{corpus}.manifest")["input.input"] == before


def test_impute_over_its_test_file_records_the_test_digest(tmp_path, split_dirs):
    test = tmp_path / "test.tsv"
    test.write_bytes((split_dirs / "test.tsv").read_bytes())
    before = _sha256(test)
    assert main(["impute", "--train", str(split_dirs / "train.tsv"), "--test", str(test),
                 "--out", str(test)]) == 0
    assert _sha256(test) != before
    items = read_kv(f"{test}.manifest")
    assert items["input.test"] == before
    assert items["input.train"] == _sha256(split_dirs / "train.tsv")


def test_controlled_split_outputs(tmp_path, corpus, spec_file):
    out_dir = tmp_path / "splits"
    code = main([
        "split", "--input", str(corpus), "--out-dir", str(out_dir),
        "--spec", str(spec_file),
    ])
    assert code == 0
    for name in ("train.tsv", "test.tsv", "test_gold.tsv", "provenance.csv",
                 "split_spec.cfg", "run_manifest.txt"):
        assert (out_dir / name).exists(), name

    train = parse_dataset((out_dir / "train.tsv").read_text(encoding="utf-8"))
    gold = parse_dataset((out_dir / "test_gold.tsv").read_text(encoding="utf-8"))
    test = parse_dataset(
        (out_dir / "test.tsv").read_text(encoding="utf-8"), gold=gold
    )
    assert test.languages  # GenA held out
    assert all(lang.genus != "GenA" for lang in train.languages)
    blanked = [c for c in cells_of(test).values() if c.state == BLANKED]
    assert blanked and all(c.value is not None for c in blanked)
    _manifest_is_timestamp_free(out_dir / "run_manifest.txt")


def test_controlled_split_reruns_identically(tmp_path, corpus, spec_file):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main([
            "split", "--input", str(corpus), "--out-dir", str(d),
            "--spec", str(spec_file),
        ]) == 0
    for name in ("train.tsv", "test.tsv", "test_gold.tsv", "provenance.csv",
                 "split_spec.cfg", "run_manifest.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_split_provenance_csv_layout(tmp_path, corpus, spec_file):
    out_dir = tmp_path / "splits"
    assert main(["split", "--input", str(corpus), "--out-dir", str(out_dir),
                 "--spec", str(spec_file)]) == 0
    lines = (out_dir / "provenance.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "code,role,reason,blanking_ratio"
    assert len(lines) == 12 + 1
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 4
        assert parts[1] in ("train", "test", "excluded")


def test_split_provenance_csv_round_trips_through_csv_reader(tmp_path):
    """A code with a comma or a quote, which the parser accepts, stays
    one field; a train or excluded row ends with an empty ratio, and a
    test row's ratio is the repr of its float."""
    plan = [('q"x', "GenA", 0.0, 0.0), ("l01", "GenA", 0.0, 1.0), ("abc", "GenB", 1.0, 0.0),
            ("ab,c", "GenC", 50.0, 100.0), ("l04", "GenC", 50.0, 101.0)]
    languages = [make_language(code, genus=genus, family="FamX", lat=lat, lon=lon)
                 for code, genus, lat, lon in plan]
    cells = {(code, f"f{f}"): Cell.observed(f"v{f % 2}") for code, *_ in plan for f in range(4)}
    dataset = tmp_path / "raw.tsv"
    dataset.write_text(serialize_dataset(build_dataset(languages, cells)), encoding="utf-8")
    spec = tmp_path / "split.cfg"
    spec.write_text("genera=GenA\nradius_km=500\nholdout_fraction=0\nseed=7\n", encoding="utf-8")
    out_dir = tmp_path / "splits"
    assert main(["split", "--input", str(dataset), "--out-dir", str(out_dir),
                 "--spec", str(spec)]) == 0
    text = (out_dir / "provenance.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    assert [row[:3] for row in rows] == [["code", "role", "reason"],
                                         ['q"x', "test", "held-out-genus"],
                                         ["l01", "test", "held-out-genus"],
                                         ["abc", "excluded", "within-radius"],
                                         ["ab,c", "train", "none"],
                                         ["l04", "train", "none"]]
    assert text.splitlines()[3] == "abc,excluded,within-radius,"
    assert [row[3] for row in rows[3:]] == ["", "", ""]
    assert [row[3] for row in rows[1:3]] == [repr(float(row[3])) for row in rows[1:3]]
    assert {row[3] for row in rows[1:3]} == {"0.05", "0.95"}


def test_split_hides_the_share_of_cells_provenance_states(tmp_path):
    """Each test row's ``provenance.csv`` ratio is the share of that
    language's cells that ``test.tsv`` hides: its observed count in
    ``test_gold.tsv`` times the ratio, rounded half up and clamped to
    [1, observed - 1]."""
    rng = random.Random(41)
    dataset = tmp_path / "raw.tsv"
    dataset.write_text(serialize_dataset(random_dataset(
        rng, n_languages=60, n_features=12, p_observed=0.6, min_observed=2)), encoding="utf-8")
    spec = tmp_path / "split.cfg"
    spec.write_text("genera=GenA\nradius_km=0\nholdout_fraction=0.3\nblank_low=0.05\n"
                    "blank_high=0.95\nseed=7\n", encoding="utf-8")
    out_dir = tmp_path / "splits"
    assert main(["split", "--input", str(dataset), "--out-dir", str(out_dir),
                 "--spec", str(spec)]) == 0
    with open(out_dir / "provenance.csv", encoding="utf-8", newline="") as f:
        ratios = {row["code"]: float(row["blanking_ratio"])
                  for row in csv.DictReader(f) if row["role"] == "test"}
    gold = parse_dataset((out_dir / "test_gold.tsv").read_text(encoding="utf-8"))
    test = parse_dataset((out_dir / "test.tsv").read_text(encoding="utf-8"), gold=gold)
    assert sorted(ratios) == sorted(test.codes()) and len(ratios) > 15
    observed = Counter(c for (c, _), cell in cells_of(gold).items() if cell.state == OBSERVED)
    hidden = Counter(c for (c, _), cell in cells_of(test).items() if cell.state == BLANKED)
    for code, ratio in ratios.items():
        want = math.floor(observed[code] * ratio + 0.5)
        assert hidden[code] == max(1, min(observed[code] - 1, want)), code
    assert len(set(hidden.values())) > 3


def test_split_missing_genus_is_data_error(tmp_path, corpus):
    # default spec wants genera this corpus does not contain
    code = main(["split", "--input", str(corpus), "--out-dir", str(tmp_path / "s")])
    assert code == 2


def test_random_split_mode(tmp_path, corpus):
    out_dir = tmp_path / "rand"
    code = main([
        "split", "--input", str(corpus), "--out-dir", str(out_dir),
        "--random-fractions", "0.5,0.25,0.25", "--seed", "3",
    ])
    assert code == 0
    sizes = {}
    for name in ("train", "dev", "test"):
        part = parse_dataset((out_dir / f"{name}.tsv").read_text(encoding="utf-8"))
        sizes[name] = len(part.languages)
    assert sizes == {"train": 6, "dev": 3, "test": 3}


def test_random_split_flag_validation(tmp_path, corpus, spec_file):
    base = ["split", "--input", str(corpus), "--out-dir", str(tmp_path / "x")]
    assert main(base + ["--random-fractions", "0.5,0.5"]) == 1  # no seed
    assert main(base + ["--random-fractions", "0.5,0.5", "--seed", "1"]) == 1  # 2 parts
    assert main(base + ["--random-fractions", "a,b,c", "--seed", "1"]) == 1
    assert main(
        base + ["--random-fractions", "0.5,0.3,0.2", "--seed", "1", "--spec", str(spec_file)]
    ) == 1
    assert not list((tmp_path / "x").glob("*"))


@pytest.mark.parametrize("argv", [
    ["split", "--random-fractions", "0.5,0.5", "--seed", "1"],
    ["blank", "--seed", "1", "--low", "0.8", "--high", "0.2"],
], ids=["split-two-fractions", "blank-low-above-high"])
def test_rejected_split_or_blank_makes_no_out_dir(tmp_path, corpus, argv):
    out_dir = tmp_path / "out"
    assert main([*argv, "--input", str(corpus), "--out-dir", str(out_dir)]) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("flags,spec", [
    (["--random-fractions=-0.1,0.6,0.5", "--seed", "1"], None),
    (["--random-fractions", "nan,0.5,0.5", "--seed", "1"], None),
    (["--random-fractions", "0.5,0.5,inf", "--seed", "1"], None),
    ([], "genera=GenA\nradius_km=inf\n"),
    ([], "genera=GenA\nradius_km=nan\n"),
], ids=["fraction-neg", "fraction-nan", "fraction-inf", "radius-inf", "spec-radius-nan"])
def test_split_non_finite_or_negative_setting_is_config_error(tmp_path, corpus, capsys,
                                                               flags, spec):
    argv = ["split", "--input", str(corpus), "--out-dir", str(tmp_path / "x"), *flags]
    if spec is not None:
        (tmp_path / "spec.cfg").write_text(spec, encoding="utf-8")
        argv += ["--spec", str(tmp_path / "spec.cfg")]
    assert main(argv) == 1
    assert "config error:" in capsys.readouterr().err
    assert not list((tmp_path / "x").glob("*.tsv"))


@pytest.mark.parametrize("flags,spec,message", [
    ([], "genera=\nholdout_fraction=0\n",
     "split leaves the test set empty (genera=, radius_km=1000.0, holdout_fraction=0.0)"),
    ([], "genera=GenA\nholdout_fraction=1.0\n",
     "split leaves no observed cell to train on "
     "(genera=GenA, radius_km=1000.0, holdout_fraction=1.0)"),
    (["--random-fractions", "1,0,0", "--seed", "1"], None,
     "split leaves the test set empty (--random-fractions 1,0,0)"),
    (["--random-fractions", "0,0.5,0.5", "--seed", "1"], None,
     "split leaves no observed cell to train on (--random-fractions 0,0.5,0.5)"),
], ids=["empty-test", "all-held-out", "random-empty-test", "random-empty-train"])
def test_split_that_the_next_stage_rejects_is_a_data_error(tmp_path, corpus, capsys,
                                                           flags, spec, message):
    """``split`` writes nothing, not even its directory, when ``impute``
    or ``evaluate`` would reject what it wrote."""
    out_dir = tmp_path / "out"
    argv = ["split", "--input", str(corpus), "--out-dir", str(out_dir), *flags]
    if spec is not None:
        (tmp_path / "spec.cfg").write_text(spec, encoding="utf-8")
        argv += ["--spec", str(tmp_path / "spec.cfg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("seed,test_codes", [(0, ["bbb", "ddd"]), (1, ["ccc", "ddd"])])
def test_random_split_with_a_test_language_blank_rejects_is_a_data_error(tmp_path, capsys,
                                                                         seed, test_codes):
    """``bbb`` observes one feature; a random split that puts it in the
    test set writes nothing, one that does not succeeds."""
    cells = {(code, f): Cell.observed("y" if f == "f2" else "x")
             for code in ("aaa", "ccc", "ddd") for f in ("f1", "f2", "f3")}
    cells[("bbb", "f1")] = Cell.observed("x")
    cells[("bbb", "f2")] = Cell.unknown()
    data = build_dataset([make_language(code) for code in ("aaa", "bbb", "ccc", "ddd")], cells)
    path = tmp_path / "data.tsv"
    path.write_text(serialize_dataset(data), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["split", "--input", str(path), "--out-dir", str(out_dir),
                 "--random-fractions", "0.5,0,0.5", "--seed", str(seed)])
    if "bbb" in test_codes:
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: split leaves a test set blank rejects: language 'bbb' has 1 observed "
            "features; need at least 2 to blank (--random-fractions 0.5,0,0.5)\n")
        assert not out_dir.exists()
    else:
        assert code == 0
        assert parse_dataset((out_dir / "test.tsv").read_text(encoding="utf-8")).codes() == \
            test_codes
        assert main(["blank", "--input", str(out_dir / "test.tsv"),
                     "--out-dir", str(tmp_path / "blanked"), "--seed", "1"]) == 0


def test_blank_with_nothing_to_hide_is_a_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["blank", "--input", str(empty), "--out-dir", str(out_dir), "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"data error: {empty} has no language to blank\n"
    assert not out_dir.exists()


def test_blank_command(tmp_path, corpus):
    out_dir = tmp_path / "blanked"
    assert main([
        "blank", "--input", str(corpus), "--out-dir", str(out_dir), "--seed", "11",
    ]) == 0
    gold = parse_dataset((out_dir / "gold.tsv").read_text(encoding="utf-8"))
    blanked = parse_dataset(
        (out_dir / "blanked.tsv").read_text(encoding="utf-8"), gold=gold
    )
    states = [c.state for c in cells_of(blanked).values()]
    assert BLANKED in states and OBSERVED in states
    ratios_text = (out_dir / "ratios.csv").read_text(encoding="utf-8")
    lines = ratios_text.splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("# seed=11")
    assert lines[2] == "language,target_ratio"
    assert len(lines) == 3 + 12


def test_blank_requires_seed(tmp_path, corpus):
    assert main(["blank", "--input", str(corpus), "--out-dir", str(tmp_path / "b")]) == 1


def test_blank_too_sparse_is_data_error(tmp_path):
    d = build_dataset([make_language("aaa")], {("aaa", "f0"): Cell.observed("x")})
    path = tmp_path / "tiny.tsv"
    path.write_text(serialize_dataset(d), encoding="utf-8")
    code = main(["blank", "--input", str(path), "--out-dir", str(tmp_path / "b"),
                 "--seed", "1"])
    assert code == 2


@pytest.fixture
def split_dirs(tmp_path, corpus, spec_file):
    out_dir = tmp_path / "splits"
    assert main([
        "split", "--input", str(corpus), "--out-dir", str(out_dir),
        "--spec", str(spec_file),
    ]) == 0
    return out_dir


def test_impute_fallback_fills_everything(tmp_path, split_dirs):
    out = tmp_path / "filled.tsv"
    code = main([
        "impute", "--train", str(split_dirs / "train.tsv"),
        "--test", str(split_dirs / "test.tsv"), "--out", str(out),
    ])
    assert code == 0
    filled = parse_dataset(out.read_text(encoding="utf-8"))
    assert all(cell.state == OBSERVED for cell in cells_of(filled).values())
    items = _manifest_is_timestamp_free(tmp_path / "filled.tsv.manifest")
    assert items["param.fallback"] == "True"
    assert items["param.method"] == "frequency"


def test_impute_no_fallback_leaves_unknowns(tmp_path, split_dirs):
    # target feature unseen in training: strip f5 rows from train
    train = parse_dataset((split_dirs / "train.tsv").read_text(encoding="utf-8"))
    kept = {k: c for k, c in cells_of(train).items() if not k[1].startswith("f5")}
    reduced = build_dataset(train.languages, kept)
    reduced_path = tmp_path / "train_nof5.tsv"
    reduced_path.write_text(serialize_dataset(reduced), encoding="utf-8")

    test_path = split_dirs / "test.tsv"
    test_plain = parse_dataset(test_path.read_text(encoding="utf-8"))
    target_feature = next(f for f in test_plain.features() if f.startswith("f5"))
    hidden_f5 = [
        k for k, c in cells_of(test_plain).items()
        if k[1] == target_feature and c.state != OBSERVED
    ]
    if not hidden_f5:  # ensure at least one hidden f5 cell
        code0 = test_plain.codes()[0]
        cells = dict(cells_of(test_plain))
        cells[(code0, target_feature)] = Cell.unknown()
        test_plain = build_dataset(test_plain.languages, cells)
        test_path = tmp_path / "test_forced.tsv"
        test_path.write_text(serialize_dataset(test_plain), encoding="utf-8")
        hidden_f5 = [(code0, target_feature)]

    out = tmp_path / "filled.tsv"
    code = main([
        "impute", "--train", str(reduced_path), "--test", str(test_path),
        "--out", str(out), "--no-fallback",
    ])
    assert code == 0
    filled = parse_dataset(out.read_text(encoding="utf-8"))
    for key in hidden_f5:
        assert cells_of(filled)[key].state == UNKNOWN
    items = read_kv(f"{out}.manifest")
    assert items["param.fallback"] == "False"


def test_impute_manifest_params_are_the_config_keys(tmp_path, split_dirs):
    cfg = tmp_path / "ridge.cfg"
    cfg.write_text("method=ridge\nlambda=5\nareal_km=800\n", encoding="utf-8")
    out = tmp_path / "ridge_filled.tsv"
    code = main([
        "impute", "--train", str(split_dirs / "train.tsv"),
        "--test", str(split_dirs / "test.tsv"), "--out", str(out),
        "--imputer-config", str(cfg),
    ])
    assert code == 0
    params = {key[len("param."):]: value for key, value in read_kv(f"{out}.manifest").items()
              if key.startswith("param.")}
    assert params == {**read_kv(cfg), "fallback": "True"}


@pytest.mark.parametrize("command,flag", [
    ("impute", ["--k", "3"]),
    ("impute", ["--lambda", "2.5"]),
    ("impute", ["--areal-km", "800"]),
    ("split", ["--radius-km", "500"]),
], ids=["k", "lambda", "areal-km", "radius-km"])
def test_setting_flags_are_usage_errors(tmp_path, corpus, impute_files, capsys, command, flag):
    """Imputer settings come only from ``--imputer-config`` and split
    settings only from ``--spec``; a flag for one is rejected before
    anything is written."""
    (tmp_path / "imputer.cfg").write_text("method=ridge\n", encoding="utf-8")
    before = set(tmp_path.rglob("*"))
    if command == "impute":
        argv = ["impute", "--train", str(impute_files / "train.tsv"),
                "--test", str(impute_files / "test.tsv"), "--out", str(tmp_path / "f.tsv"),
                "--imputer-config", str(tmp_path / "imputer.cfg")]
    else:
        argv = ["split", "--input", str(corpus), "--out-dir", str(tmp_path / "x")]
    assert main([*argv, *flag]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command,flags", [
    ("evaluate", ["--sam", "10"]),
    ("evaluate", ["--excl"]),
    ("impute", ["--imputer-conf", "{cfg}"]),
    ("impute", ["--imputer-config", "{cfg}", "--no-fall"]),
], ids=["samples", "exclude-missing", "imputer-config", "no-fallback"])
def test_flag_prefixes_are_usage_errors(tmp_path, split_dirs, capsys, command, flags):
    """A flag has one spelling: a unique prefix of it is rejected before
    anything is written."""
    filled = _impute(split_dirs, tmp_path / "freq.tsv")
    cfg = tmp_path / "freq.cfg"
    if command == "impute":
        argv = ["impute", "--train", str(split_dirs / "train.tsv"),
                "--test", str(split_dirs / "test.tsv"), "--out", str(tmp_path / "f.tsv")]
    else:
        argv = ["evaluate", "--test", str(split_dirs / "test.tsv"),
                "--gold", str(split_dirs / "test_gold.tsv"), "--out-dir", str(tmp_path / "ev"),
                "--system", f"a={filled}", "--system", f"b={filled}", "--seed", "1"]
    before = set(tmp_path.rglob("*"))
    assert main([*argv, *(flag.format(cfg=cfg) for flag in flags)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before


def test_impute_bad_config_is_usage_error(tmp_path, split_dirs):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("method=telepathy\n", encoding="utf-8")
    code = main([
        "impute", "--train", str(split_dirs / "train.tsv"),
        "--test", str(split_dirs / "test.tsv"),
        "--out", str(tmp_path / "x.tsv"), "--imputer-config", str(cfg),
    ])
    assert code == 1


def _impute(split_dirs, out, method="frequency", extra=()):
    cfg = out.parent / f"{out.stem}.cfg"
    cfg.write_text(f"method={method}\n", encoding="utf-8")
    code = main([
        "impute", "--train", str(split_dirs / "train.tsv"),
        "--test", str(split_dirs / "test.tsv"), "--out", str(out),
        "--imputer-config", str(cfg), *extra,
    ])
    assert code == 0
    return out


def test_evaluate_single_system(tmp_path, split_dirs):
    filled = _impute(split_dirs, tmp_path / "freq.tsv")
    out_dir = tmp_path / "eval"
    code = main([
        "evaluate", "--test", str(split_dirs / "test.tsv"),
        "--gold", str(split_dirs / "test_gold.tsv"),
        "--system", f"freq={filled}", "--out-dir", str(out_dir),
    ])
    assert code == 0
    for name in ("systems.csv", "per_language.csv", "per_genus.csv",
                 "per_feature.csv", "significance.csv", "summary.txt",
                 "run_manifest.txt"):
        assert (out_dir / name).exists(), name
    text = (out_dir / "systems.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0].startswith("# config_hash=")
    assert "freq" in text
    # single system: no pairwise tests, no seed requirement
    sig = (out_dir / "significance.csv").read_text(encoding="utf-8")
    assert len([l for l in sig.splitlines() if l and not l.startswith("#")]) == 1


def test_evaluate_two_systems_with_breakdown(tmp_path, split_dirs, spec_file):
    freq = _impute(split_dirs, tmp_path / "freq.tsv")
    gf = _impute(split_dirs, tmp_path / "gf.tsv", method="genus_family")
    out_dir = tmp_path / "eval2"
    code = main([
        "evaluate", "--test", str(split_dirs / "test.tsv"),
        "--gold", str(split_dirs / "test_gold.tsv"),
        "--system", f"freq={freq}", "--system", f"gf={gf}",
        "--out-dir", str(out_dir), "--seed", "5", "--samples", "400",
        "--spec", str(spec_file),
    ])
    assert code == 0
    sig_rows = [
        l for l in (out_dir / "significance.csv").read_text(encoding="utf-8").splitlines()
        if l and not l.startswith("#")
    ]
    assert len(sig_rows) == 2  # header plus the one pair
    assert sig_rows[1].startswith("freq,gf,")
    assert (out_dir / "breakdown.csv").exists()
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    assert "system ranking" in summary
    assert "pairwise paired permutation tests" in summary
    assert "held-out genus breakdown" in summary


def test_evaluate_reruns_identically(tmp_path, split_dirs):
    freq = _impute(split_dirs, tmp_path / "freq.tsv")
    gf = _impute(split_dirs, tmp_path / "gf.tsv", method="genus_family")
    dirs = [tmp_path / "e1", tmp_path / "e2"]
    for d in dirs:
        assert main([
            "evaluate", "--test", str(split_dirs / "test.tsv"),
            "--gold", str(split_dirs / "test_gold.tsv"),
            "--system", f"freq={freq}", "--system", f"gf={gf}",
            "--out-dir", str(d), "--seed", "5", "--samples", "300",
        ]) == 0
    for name in ("systems.csv", "per_language.csv", "per_genus.csv", "per_feature.csv",
                 "significance.csv", "summary.txt", "run_manifest.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def _with_bom(path: Path, out: Path) -> Path:
    out.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return out


def test_dataset_readers_ignore_a_leading_bom(tmp_path, corpus, split_dirs):
    """A UTF-8 byte order mark before the first record changes no output;
    only the manifests' raw-byte input digests differ."""
    bom_corpus = _with_bom(corpus, tmp_path / "bom.tsv")
    for name, path in (("plain", corpus), ("bom", bom_corpus)):
        assert main(["filter", "--input", str(path), "--out", str(tmp_path / f"{name}.out")]) == 0
    assert (tmp_path / "plain.out").read_bytes() == (tmp_path / "bom.out").read_bytes()

    freq = _impute(split_dirs, tmp_path / "freq.tsv")
    inputs = {"test": split_dirs / "test.tsv", "gold": split_dirs / "test_gold.tsv",
              "system": freq}
    for name, paths in (("plain", inputs),
                        ("bom", {key: _with_bom(path, tmp_path / f"bom_{key}.tsv")
                                 for key, path in inputs.items()})):
        assert main(["evaluate", "--test", str(paths["test"]), "--gold", str(paths["gold"]),
                     "--system", f"freq={paths['system']}",
                     "--out-dir", str(tmp_path / name)]) == 0
    for name in ("systems.csv", "per_language.csv", "per_genus.csv", "per_feature.csv",
                 "significance.csv", "summary.txt"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "bom" / name).read_bytes()
    manifests = [{key: value for key, value in read_kv(tmp_path / name / "run_manifest.txt").items()
                  if not key.startswith("input.")} for name in ("plain", "bom")]
    assert manifests[0] == manifests[1]


def test_impute_config_with_bom_is_read(tmp_path, split_dirs):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes("\ufeffmethod=genus_family\n".encode("utf-8"))
    assert read_kv(cfg) == {"method": "genus_family"}
    out = tmp_path / "gf.tsv"
    assert main(["impute", "--train", str(split_dirs / "train.tsv"),
                 "--test", str(split_dirs / "test.tsv"), "--out", str(out),
                 "--imputer-config", str(cfg)]) == 0
    assert read_kv(f"{out}.manifest")["param.method"] == "genus_family"


def test_evaluate_flag_validation(tmp_path, split_dirs):
    filled = _impute(split_dirs, tmp_path / "freq.tsv")
    base = [
        "evaluate", "--test", str(split_dirs / "test.tsv"),
        "--gold", str(split_dirs / "test_gold.tsv"),
        "--out-dir", str(tmp_path / "ev"),
    ]
    assert main(base + ["--system", f"a={filled}", "--system", f"b={filled}"]) == 1
    assert main(base + ["--system", "nameonly"]) == 1
    assert main(base + ["--system", f"a={filled}", "--system", f"a={filled}",
                        "--seed", "1"]) == 1


@pytest.mark.parametrize("systems", [1, 2])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_evaluate_samples_below_one_is_usage_error(tmp_path, split_dirs, capsys,
                                                   systems, samples):
    filled = _impute(split_dirs, tmp_path / "freq.tsv")
    out_dir = tmp_path / "ev"
    argv = ["evaluate", "--test", str(split_dirs / "test.tsv"),
            "--gold", str(split_dirs / "test_gold.tsv"), "--out-dir", str(out_dir),
            "--seed", "1", "--samples", samples]
    for i in range(systems):
        argv += ["--system", f"s{i}={filled}"]
    assert main(argv) == 1
    assert "usage error: --samples" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("systems", [1, 2])
def test_evaluate_negative_seed_is_usage_error(tmp_path, split_dirs, capsys, systems):
    filled = _impute(split_dirs, tmp_path / "freq.tsv")
    out_dir = tmp_path / "ev"
    argv = ["evaluate", "--test", str(split_dirs / "test.tsv"),
            "--gold", str(split_dirs / "test_gold.tsv"), "--out-dir", str(out_dir),
            "--seed", "-1"]
    for i in range(systems):
        argv += ["--system", f"s{i}={filled}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "usage error: --seed must be nonnegative, got -1\n"
    assert not out_dir.exists()


def test_evaluate_without_blanked_cells_is_data_error(tmp_path, corpus, split_dirs):
    filled = _impute(split_dirs, tmp_path / "freq.tsv")
    code = main([
        "evaluate", "--test", str(corpus), "--gold", str(corpus),
        "--system", f"freq={filled}", "--out-dir", str(tmp_path / "ev"),
    ])
    assert code == 2


def _evaluate_argv(split_dirs, out_dir, *systems):
    argv = ["evaluate", "--test", str(split_dirs / "test.tsv"),
            "--gold", str(split_dirs / "test_gold.tsv"), "--out-dir", str(out_dir)]
    for system in systems:
        argv += ["--system", system]
    return argv


def test_evaluate_scoring_nothing_makes_no_out_dir(tmp_path, split_dirs, capsys):
    out_dir = tmp_path / "eval"
    argv = _evaluate_argv(split_dirs, out_dir, f"none={split_dirs / 'test.tsv'}")
    assert main([*argv, "--exclude-missing"]) == 2
    assert capsys.readouterr().err == "data error: no language has a scored cell\n"
    assert not out_dir.exists()


def test_evaluate_systems_without_a_common_language_make_no_out_dir(tmp_path, split_dirs,
                                                                    capsys):
    # each system answers every other language of the test set
    filled = _impute(split_dirs, tmp_path / "freq.tsv").read_text(encoding="utf-8").splitlines()
    test = (split_dirs / "test.tsv").read_text(encoding="utf-8").splitlines()
    for name, parity in (("even", 0), ("odd", 1)):
        lines = [f if i % 2 == parity else t for i, (f, t) in enumerate(zip(filled, test))]
        (tmp_path / f"{name}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_dir = tmp_path / "eval"
    argv = _evaluate_argv(split_dirs, out_dir, f"even={tmp_path / 'even.tsv'}",
                          f"odd={tmp_path / 'odd.tsv'}")
    assert main([*argv, "--exclude-missing", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "data error: no common languages to compare\n"
    assert not out_dir.exists()


def test_report_renders_evaluation(tmp_path, split_dirs, spec_file):
    freq = _impute(split_dirs, tmp_path / "freq.tsv")
    gf = _impute(split_dirs, tmp_path / "gf.tsv", method="genus_family")
    out_dir = tmp_path / "eval"
    assert main([
        "evaluate", "--test", str(split_dirs / "test.tsv"),
        "--gold", str(split_dirs / "test_gold.tsv"),
        "--system", f"freq={freq}", "--system", f"gf={gf}",
        "--out-dir", str(out_dir), "--seed", "5", "--samples", "300",
        "--spec", str(spec_file),
    ]) == 0
    report_path = tmp_path / "report.txt"
    assert main(["report", "--input", str(out_dir), "--out", str(report_path),
                 "--top", "2"]) == 0
    text = report_path.read_text(encoding="utf-8")
    assert "systems by macro accuracy" in text
    assert "significance" in text
    assert "easiest features (top 2" in text
    assert "held-out genus breakdown" in text
    _manifest_is_timestamp_free(tmp_path / "report.txt.manifest")


def _section(lines, heading):
    """The indented lines under ``heading``."""
    start = lines.index(heading) + 1
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return lines[start:end]


def test_summary_and_report_render_ranking_and_breakdown_alike(tmp_path):
    """Three languages, two hidden cells each.  ``a`` and ``c`` tie on
    macro accuracy and are ranked by name; ``c`` left one wrong cell
    unanswered.  Both files rank the systems alike; the summary orders
    its breakdown by rank, the report by ``breakdown.csv``."""
    languages = [make_language("l1", genus="GenA", family="FamX"),
                 make_language("l2", genus="GenB", family="FamY"),
                 make_language("l3", genus="GenB", family="FamY")]
    gold = {(code, f): Cell.observed("x") for code in ("l1", "l2", "l3") for f in ("f0", "f1", "f2")}
    test = {**gold, **{(code, f): Cell.unknown() for code in ("l1", "l2", "l3") for f in ("f1", "f2")}}
    wrong = {("l2", "f2"): Cell.observed("y"), ("l3", "f1"): Cell.observed("y")}
    filled = {"b": gold, "a": {**gold, **wrong, ("l3", "f2"): Cell.observed("y")},
              "c": {**gold, **wrong, ("l3", "f2"): Cell.unknown()}}
    for name, cells in [("gold", gold), ("test", test), *filled.items()]:
        (tmp_path / f"{name}.tsv").write_text(serialize_dataset(build_dataset(languages, cells)),
                                              encoding="utf-8")
    (tmp_path / "spec.cfg").write_text("genera=GenB\n", encoding="utf-8")
    assert main(["evaluate", "--test", str(tmp_path / "test.tsv"),
                 "--gold", str(tmp_path / "gold.tsv"),
                 *[f"--system={name}={tmp_path / name}.tsv" for name in ("c", "a", "b")],
                 "--out-dir", str(tmp_path / "eval"), "--seed", "1", "--samples", "10",
                 "--spec", str(tmp_path / "spec.cfg")]) == 0
    assert main(["report", "--input", str(tmp_path / "eval"),
                 "--out", str(tmp_path / "report.txt")]) == 0
    summary = (tmp_path / "eval" / "summary.txt").read_text(encoding="utf-8").splitlines()
    report = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()

    ranking = [
        "  1. b: macro=1.0000 micro=1.0000 missing=0/6",
        "  2. a: macro=0.6250 micro=0.5000 missing=0/6",
        "  3. c: macro=0.6250 micro=0.5000 missing=1/6",
    ]
    assert _section(summary, "system ranking (macro accuracy, genus-weighted):") == ranking
    assert _section(report, "systems by macro accuracy:") == ranking

    def breakdown(name, held, other, overall):
        return [f"  {name}:", f"    GenB: {held} (2 languages)",
                f"    other (pooled): {other} (1 languages)",
                f"    other (macro): {other} (1 languages)",
                f"    all (macro): {overall} (3 languages)"]

    a = breakdown("a", "0.2500", "1.0000", "0.6250")
    b = breakdown("b", "1.0000", "1.0000", "1.0000")
    c = breakdown("c", "0.2500", "1.0000", "0.6250")
    assert _section(summary, "held-out genus breakdown:") == b + a + c
    assert _section(report, "held-out genus breakdown:") == c + a + b


@pytest.fixture
def eval_dir(tmp_path, split_dirs):
    filled = _impute(split_dirs, tmp_path / "freq.tsv")
    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--test", str(split_dirs / "test.tsv"),
                 "--gold", str(split_dirs / "test_gold.tsv"),
                 "--system", f"freq={filled}", "--out-dir", str(out_dir)]) == 0
    return out_dir


def test_report_top_zero_shows_no_feature_rows(tmp_path, eval_dir):
    out = tmp_path / "report.txt"
    assert main(["report", "--input", str(eval_dir), "--out", str(out), "--top", "0"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    easiest = lines.index("easiest features (top 0 by mean accuracy):")
    assert lines[easiest + 1] == "hardest features (bottom 0):"
    assert easiest + 2 == len(lines) or not lines[easiest + 2].startswith("  ")


def test_report_negative_top_is_usage_error(tmp_path, eval_dir, capsys):
    out = tmp_path / "report.txt"
    assert main(["report", "--input", str(eval_dir), "--out", str(out), "--top", "-2"]) == 1
    assert "usage error: --top" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_non_evaluation_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--input", str(empty), "--out", str(tmp_path / "r.txt")]) == 1


REPORT_TABLES = {
    "systems.csv": ("system,macro_accuracy,micro_accuracy,n_blanked,n_missing,blanking_r,"
                    "blanking_p", "freq,0.5,0.5,10,0,NA,NA"),
    "significance.csv": ("system_a,system_b,observed_diff,p_value,samples,seed",
                         "freq,gf,0.1,0.5,100,1"),
    "per_feature.csv": ("feature,mean_accuracy,std_accuracy,n_scored", "f1,0.5,0.1,3"),
    "breakdown.csv": ("system,group,accuracy,n_languages", "freq,all (macro),0.5,3"),
}


@pytest.mark.parametrize("name,row", [
    ("systems.csv", "freq,high,0.5,10,0,NA,NA"),
    ("systems.csv", "freq,0.5,0.5"),
    ("significance.csv", "freq,gf,big,0.5,100,1"),
    ("significance.csv", "freq,gf,0.1"),
    ("per_feature.csv", "f1,0.5,wide,3"),
    ("per_feature.csv", "f1,0.5"),
    ("breakdown.csv", "freq,all (macro),most,3"),
    ("breakdown.csv", "freq,all (macro)"),
])
def test_report_on_malformed_table_is_data_error(tmp_path, capsys, name, row):
    eval_dir = tmp_path / "eval"
    eval_dir.mkdir()
    for table, (header, good) in REPORT_TABLES.items():
        (eval_dir / table).write_text(f"# seed=1\n{header}\n{row if table == name else good}\n",
                                      encoding="utf-8")
    out = tmp_path / "report.txt"
    assert main(["report", "--input", str(eval_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and str(eval_dir / name) in err
    assert not out.exists()


def test_missing_input_file(tmp_path):
    assert main(["filter", "--input", str(tmp_path / "nope.tsv"),
                 "--out", str(tmp_path / "o.tsv")]) == 1


def test_malformed_dataset_is_data_error(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("too\tfew\tcolumns\n", encoding="utf-8")
    assert main(["filter", "--input", str(bad), "--out", str(tmp_path / "o.tsv")]) == 2


def test_usage_errors_from_argparse(tmp_path):
    assert main([]) == 1  # missing subcommand
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main(["filter", "--input"]) == 1  # flag without value
    assert main(["filter"]) == 1  # required flags missing


def test_readme_names_every_flag_and_no_other():
    """Every option of every subcommand appears in README.md, and every
    ``--flag`` README.md names is one of them or pip's."""
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for command in commands.values() for action in command._actions
               for flag in action.option_strings} - {"-h", "--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
    assert sorted(options - named) == []
    assert sorted(named - options - {"--no-build-isolation"}) == []


def test_readme_names_every_file_split_blank_and_evaluate_write():
    """Every file name a ``split``, ``blank`` or ``evaluate`` stage of
    tests/golden.json writes appears in README.md."""
    root = Path(__file__).resolve().parents[1]
    golden = json.loads((root / "tests" / "golden.json").read_text(encoding="utf-8"))
    written = {PurePosixPath(path).name for seeds in golden.values() for stages in seeds.values()
               for stage, files in stages.items()
               if stage.split()[0] in ("split", "blank", "evaluate") for path in files}
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert "provenance.csv" in written
    assert sorted(name for name in written if f"`{name}`" not in readme) == []


def test_readme_library_example_matches_the_cli(tmp_path, split_dirs, monkeypatch, capsys):
    """README's library example, run beside a split, writes the file
    ``impute --no-fallback`` writes for its method, and its accuracies
    are the ones ``evaluate`` writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"The same machinery is importable[^`]*```python\n(.*?)```", readme,
                        re.S).group(1)
    cfg = tmp_path / "gf.cfg"
    cfg.write_text("method=genus_family\n", encoding="utf-8")
    assert main(["impute", "--train", str(split_dirs / "train.tsv"),
                 "--test", str(split_dirs / "test.tsv"), "--out", str(tmp_path / "cli.tsv"),
                 "--imputer-config", str(cfg), "--no-fallback"]) == 0
    assert main(["evaluate", "--test", str(split_dirs / "test.tsv"),
                 "--gold", str(split_dirs / "test_gold.tsv"),
                 "--system", f"genus_family={tmp_path / 'cli.tsv'}",
                 "--out-dir", str(tmp_path / "eval")]) == 0
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert (tmp_path / "filled.tsv").read_bytes() == (tmp_path / "cli.tsv").read_bytes()
    report = namespace["report"]
    [row] = [line.split(",") for line in (tmp_path / "eval" / "systems.csv").read_text(
        encoding="utf-8").splitlines() if line.startswith("genus_family,")]
    assert (repr(report.macro_accuracy), repr(report.micro_accuracy)) == (row[1], row[2])
    assert 0 < report.macro_accuracy < 1
    assert capsys.readouterr().out == \
        f"macro={report.macro_accuracy:.4f} micro={report.micro_accuracy:.4f}\n"


@pytest.mark.parametrize("config,vectors,wide", [
    ("method=ridge\nmin_support=1\nuse_context=true\n", False, False),
    ("method=ridge\nmin_support=1\nuse_context=false\n", False, False),
    ("method=ridge\nmin_support=1\nuse_context=false\n", False, True),
    ("method=knn\nk=3\n", False, False),
    ("method=knn\nk=3\n", True, False),
    ("method=correlation\nmin_support=1\n", False, False),
    ("method=frequency\n", False, False),
    ("method=genus_family\n", False, False),
    ("method=geo_backoff\n", False, False),
], ids=["true", "false", "false-wide", "knn", "knn-vectors", "correlation", "frequency",
        "genus_family", "geo_backoff"])
def test_ridge_impute_ignores_blas_thread_count(tmp_path, config, vectors, wide):
    """The ``wide`` case trains on 240 languages and 20 features, so that
    ridge solves targets of more than two blocks of rows in the dual."""
    rng = random.Random(31)
    n_train, n_features = (240, 20) if wide else (120, 10)
    data = random_dataset(rng, n_languages=n_train + 40, n_features=n_features, p_observed=0.6,
                          min_observed=3)
    codes = data.codes()
    train = data.subset(codes[:n_train])
    if wide:
        counts = train.counts
        widest = max(int(counts.onehot[:, list(columns.values())].sum())
                     for columns in counts.columns.values())
        assert widest > 2 * ridge._SOLVE_BLOCK
    (tmp_path / "train.tsv").write_text(serialize_dataset(train), encoding="utf-8")
    test = blank_some(data.subset(codes[n_train:]), rng, per_language=2)
    (tmp_path / "test.tsv").write_text(serialize_dataset(test), encoding="utf-8")
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text(config, encoding="utf-8")
    extra = []
    if vectors:
        (tmp_path / "vectors.tsv").write_text("".join(
            f"{code}\t" + "\t".join(str(rng.gauss(0.0, 1.0)) for _ in range(64)) + "\n"
            for code in codes if rng.random() < 0.8), encoding="utf-8")
        extra = ["--vectors", str(tmp_path / "vectors.tsv")]
    filled = []
    for threads in ("1", "2"):
        env = child_env(threads)
        out = tmp_path / f"filled{threads}.tsv"
        subprocess.run(
            [sys.executable, "-m", "typoimpute.cli", "impute",
             "--train", str(tmp_path / "train.tsv"), "--test", str(tmp_path / "test.tsv"),
             "--out", str(out), "--imputer-config", str(cfg), "--no-fallback", *extra],
            env=env, check=True, capture_output=True, timeout=300,
        )
        filled.append(out.read_bytes())
    assert b"?" not in filled[0]
    assert filled[0] == filled[1]


def test_knn_vector_distances_ignore_blas_thread_count():
    """A threaded BLAS splits ``T @ q`` between its threads, and at some
    shapes, such as 500 training vectors of 1000 components, that moves
    the last bit of some rows; knn's cosine rows must not move."""
    probe = "\n".join([
        "import hashlib, random",
        "import numpy as np",
        "from synth import random_dataset",
        "from typoimpute.imputers import NearestNeighborImputer",
        "data = random_dataset(random.Random(7), n_languages=510, n_features=2, min_observed=1)",
        "codes, gauss = data.codes(), np.random.default_rng(7)",
        "imp = NearestNeighborImputer(vectors={c: gauss.standard_normal(1000) for c in codes})",
        "distance, _ = imp.fit(data.subset(codes[:500]))._distances(data.subset(codes[500:]))",
        "print(hashlib.sha256(distance.tobytes()).hexdigest())",
    ])
    digests = []
    for threads in ("1", "2"):
        env = child_env(threads)
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=Path(__file__).parent,
                              check=True, capture_output=True, text=True, timeout=300)
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def _loaded_modules(code: str, *argv: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; the names of the modules it
    loaded (not those ``sys.modules`` blocks with ``None``)."""
    probe = (f"import sys\n{code}\n"
             "print(' '.join(name for name, m in sys.modules.items() if m is not None))")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=child_env(),
                          check=True, capture_output=True, text=True, timeout=120)
    return set(done.stdout.splitlines()[-1].split())


def _within(modules: set[str], package: str) -> set[str]:
    """The loaded modules that are ``package`` or inside it."""
    return {m for m in modules if m == package or m.startswith(f"{package}.")}


@pytest.fixture(scope="module")
def stage_modules(tmp_path_factory):
    """Every subcommand run once in a fresh interpreter: the modules each
    loaded (plus those of a bare ``import typoimpute.cli``), and the
    evaluation directory."""
    tmp_path = tmp_path_factory.mktemp("stages")
    corpus = tmp_path / "raw.tsv"
    corpus.write_text(serialize_dataset(_corpus_dataset()), encoding="utf-8")
    spec = tmp_path / "split.cfg"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    run = "from typoimpute.cli import main\nif main(sys.argv[1:]):\n    sys.exit('failed')"
    loaded = {"import": _loaded_modules("import typoimpute.cli")}
    loaded["filter"] = _loaded_modules(run, "filter", "--input", str(corpus),
                                       "--out", str(tmp_path / "dense.tsv"))
    loaded["split"] = _loaded_modules(run, "split", "--input", str(corpus),
                                      "--out-dir", str(tmp_path / "splits"), "--spec", str(spec))
    # random languages, so that each system's accuracy varies with the
    # hidden share and every correlation has a p-value
    data = random_dataset(random.Random(37), n_languages=80, n_features=10,
                          p_observed=0.7, min_observed=4)
    codes = data.codes()
    train = tmp_path / "train.tsv"
    train.write_text(serialize_dataset(data.subset(codes[:50])), encoding="utf-8")
    (tmp_path / "rest.tsv").write_text(serialize_dataset(data.subset(codes[50:])),
                                       encoding="utf-8")
    blanked = tmp_path / "blanked"
    loaded["blank"] = _loaded_modules(run, "blank", "--input", str(tmp_path / "rest.tsv"),
                                      "--out-dir", str(blanked), "--seed", "3")
    systems = []
    for method in ("frequency", "genus_family", "knn", "ridge"):
        cfg = tmp_path / f"{method}.cfg"
        cfg.write_text(f"method={method}\n", encoding="utf-8")
        out = tmp_path / f"{method}.tsv"
        loaded[f"impute:{method}"] = _loaded_modules(
            run, "impute", "--train", str(train), "--test", str(blanked / "blanked.tsv"),
            "--out", str(out), "--imputer-config", str(cfg))
        systems += ["--system", f"{method}={out}"]
    out_dir = tmp_path / "eval"
    loaded["evaluate"] = _loaded_modules(
        run, "evaluate", "--test", str(blanked / "blanked.tsv"),
        "--gold", str(blanked / "gold.tsv"), *systems,
        "--out-dir", str(out_dir), "--seed", "5", "--samples", "200")
    loaded["report"] = _loaded_modules(run, "report", "--input", str(out_dir),
                                       "--out", str(tmp_path / "report.txt"))
    return loaded, out_dir


def test_no_command_imports_scipy(stage_modules):
    loaded, out_dir = stage_modules
    for modules in loaded.values():
        assert "scipy" not in modules
    # every system got a blanking p-value, and the systems a meta p-value
    assert ",NA" not in (out_dir / "systems.csv").read_text(encoding="utf-8")
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    assert "across systems" in summary and "p=nan" not in summary


def test_each_command_loads_only_what_it_runs(stage_modules):
    loaded, _ = stage_modules
    assert "typoimpute.cli" in loaded["import"]
    for package in ("numpy", "typoimpute.kb", "typoimpute.evaluate", "typoimpute.imputers",
                    "typoimpute.splits"):
        assert not _within(loaded["import"], package), package
    assert not _within(loaded["report"], "numpy")
    for command in ("import", "report"):
        assert "dataclasses" not in loaded[command], command
    assert "typoimpute.kb" not in loaded["report"]
    for command in ("filter", "split", "blank"):
        assert "typoimpute.kb" in loaded[command]
        for package in ("typoimpute.imputers", "typoimpute.evaluate"):
            assert not _within(loaded[command], package), (command, package)
    for method in ("frequency", "genus_family", "knn"):
        modules = loaded[f"impute:{method}"]
        assert "typoimpute.imputers" in modules
        for package in ("typoimpute.evaluate", "typoimpute.splits"):
            assert not _within(modules, package), (method, package)
    assert "typoimpute.evaluate" in loaded["evaluate"]
    assert not _within(loaded["evaluate"], "typoimpute.imputers")



def test_no_stage_loads_openssl(stage_modules):
    """The manifest digests and split seeds take SHA-256 from the
    interpreter's own module: ``hashlib`` would map OpenSSL's libcrypto,
    some 3.5 MB of each stage's peak RSS.  ``evaluate`` keeps
    ``numpy.random``'s import of ``secrets`` off it too."""
    loaded, _ = stage_modules
    assert "numpy.random" in loaded["evaluate"]
    for command, modules in loaded.items():
        assert "_hashlib" not in modules, command


def test_impute_imports_only_the_imputers_it_builds(stage_modules):
    """A method's module is imported only when a config builds it: a
    frequency or genus_family impute compiles none of the model
    imputers, a knn impute only knn."""
    loaded, _ = stage_modules
    models = {f"typoimpute.imputers.{name}" for name in ("ridge", "knn", "correlation")}
    for method in ("frequency", "genus_family"):
        modules = loaded[f"impute:{method}"]
        assert "typoimpute.imputers.frequency" in modules
        assert not models & modules, method
    assert models & loaded["impute:knn"] == {"typoimpute.imputers.knn"}


# ---------------------------------------------------------------------------
# impute: one fill loop, one table, bad settings


IMPUTE_CONFIGS = {
    "frequency": "method=frequency\n",
    "genus_family": "method=genus_family\n",
    "geo_backoff": "method=geo_backoff\nnear_km=300\nfar_km=900\n",
    "knn": "method=knn\nk=3\n",
    # min_support high enough that some targets have no voter
    "correlation": "method=correlation\nmin_support=25\n",
    "ridge": "method=ridge\nmin_support=2\n",
    "ridge_context": "method=ridge\nmin_support=2\nuse_context=true\n",
    # Both ensembles ask their members in turn; the ids name the policies
    # ensembles had before max_confidence was removed.
    "ensemble_max": "method=ensemble\nmembers=correlation,genus_family\nmin_support=25\n",
    "ensemble_first": "method=ensemble\nmembers=correlation,knn\nmin_support=25\n",
}


@pytest.fixture(scope="module")
def impute_files(tmp_path_factory):
    """A training set that never observes one feature the test set
    hides, so some cells stay unfilled even with the fallback."""
    tmp = tmp_path_factory.mktemp("impute")
    rng = random.Random(41)
    data = random_dataset(rng, n_languages=70, n_features=7, p_observed=0.6, min_observed=3)
    codes = data.codes()
    unseen = data.features()[-1]
    train = data.subset(codes[:50])
    train = build_dataset(train.languages,
                          {k: c for k, c in cells_of(train).items() if k[1] != unseen})
    test = blank_some(data.subset(codes[50:]), rng, per_language=2)
    cells = dict(cells_of(test))
    for code in test.codes()[::3]:
        cells[(code, unseen)] = Cell.unknown()
    test = build_dataset(test.languages, cells)
    (tmp / "train.tsv").write_text(serialize_dataset(train), encoding="utf-8")
    (tmp / "test.tsv").write_text(serialize_dataset(test), encoding="utf-8")
    return tmp


@pytest.mark.parametrize("fallback", [True, False], ids=["fallback", "no-fallback"])
@pytest.mark.parametrize("method", sorted(IMPUTE_CONFIGS))
def test_impute_matches_fill_loop_oracle(tmp_path, impute_files, caplog, method, fallback):
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text(IMPUTE_CONFIGS[method], encoding="utf-8")
    out = tmp_path / "filled.tsv"
    argv = ["impute", "--train", str(impute_files / "train.tsv"),
            "--test", str(impute_files / "test.tsv"), "--out", str(out),
            "--imputer-config", str(cfg)]
    with caplog.at_level("INFO"):
        assert main(argv + ([] if fallback else ["--no-fallback"])) == 0

    train = parse_dataset((impute_files / "train.tsv").read_text(encoding="utf-8"))
    test = parse_dataset((impute_files / "test.tsv").read_text(encoding="utf-8"))
    fill, n_unfilled = impute_loop_oracle(read_kv(cfg), train, test, fallback=fallback)
    assert out.read_text(encoding="utf-8") == serialize_oracle(test, fill=fill)
    assert f"filled {len(fill)} cells ({n_unfilled} left unfilled)" in caplog.text
    assert n_unfilled > 0  # the feature training never observes


def test_impute_fallback_answers_what_the_method_cannot(tmp_path, impute_files):
    """The fallback matters on this data: correlation alone leaves more
    cells as ? than correlation with the global mode behind it."""
    train = parse_dataset((impute_files / "train.tsv").read_text(encoding="utf-8"))
    test = parse_dataset((impute_files / "test.tsv").read_text(encoding="utf-8"))
    config = parse_kv(IMPUTE_CONFIGS["correlation"])
    _, alone = impute_loop_oracle(config, train, test, fallback=False)
    _, backed = impute_loop_oracle(config, train, test, fallback=True)
    assert alone > backed > 0


@pytest.mark.parametrize("method,expected", [
    ("frequency", 1), ("genus_family", 1), ("geo_backoff", 1), ("knn", 1),
    ("correlation", 1), ("ridge", 1), ("ridge_context", 2), ("ensemble_max", 1),
    ("ensemble_first", 1),
])
def test_impute_builds_one_table_per_training_set(tmp_path, impute_files, monkeypatch,
                                                  method, expected):
    """Every imputer of the stage, the fallback included, counts from
    one table of the training set; ridge with ``use_context=true`` adds
    its table over training and test cells."""
    from typoimpute.coded import CodedCounts

    built = []
    real = CodedCounts.__init__

    def counted(self, sources):
        built.append(len(sources))
        real(self, sources)

    monkeypatch.setattr(CodedCounts, "__init__", counted)
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text(IMPUTE_CONFIGS[method], encoding="utf-8")
    assert main(["impute", "--train", str(impute_files / "train.tsv"),
                 "--test", str(impute_files / "test.tsv"), "--out", str(tmp_path / "f.tsv"),
                 "--imputer-config", str(cfg)]) == 0
    assert len(built) == expected
    assert built.count(1) == 1  # the training set's own table


@pytest.mark.parametrize("config", [
    "method=knn\nk=0\n",
    "method=ridge\nlambda=-1\n",
    "method=ridge\nlambda=0\n",
    "method=ridge\nlambda=nan\n",
    "method=ridge\nlambda=inf\n",
    "method=geo_backoff\nnear_km=nan\n",
    "method=correlation\nalpha=nan\n",
    "method=correlation\nalpha=-1\n",
    "method=ensemble\nmembers=ridge,frequency\nlambda=-inf\n",
    "method=geo_backoff\nnear_km=-5\nfar_km=-9\n",
    "method=geo_backoff\nnear_km=5\nfar_km=-9\n",
    "method=geo_backoff\nnear_km=5000\nfar_km=10\n",
    "method=ridge\nareal_km=-1\n",
    "method=ridge\nmin_support=-1\n",
    "method=correlation\nmin_support=-3\n",
    "method=ridge\nk=3\n",
    "method=frequency\nk=0\nlambda=-3\n",
    "method=ensemble\nmembers=knn,frequency\nlambda=2\n",
    "method=ensemble\nmembers=knn,frequency\npolicy=first_success\n",
], ids=["k0", "lambda-neg", "lambda-zero", "lambda-nan", "lambda-inf", "near-nan",
        "alpha-nan", "alpha-neg", "ensemble-lambda", "near-neg", "far-neg", "far-below-near",
        "areal-neg", "ridge-support-neg", "correlation-support-neg", "ridge-unread-k",
        "frequency-unread", "ensemble-unread-lambda", "ensemble-policy"])
def test_impute_bad_numeric_setting_is_config_error(tmp_path, impute_files, capsys, config):
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "f.tsv"
    code = main(["impute", "--train", str(impute_files / "train.tsv"),
                 "--test", str(impute_files / "test.tsv"), "--out", str(out),
                 "--imputer-config", str(cfg)])
    assert code == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def vectors_file(tmp_path, impute_files):
    codes = [code for name in ("train.tsv", "test.tsv")
             for code in parse_dataset((impute_files / name).read_text(encoding="utf-8")).codes()]
    path = tmp_path / "vectors.tsv"
    path.write_text("".join(f"{code}\t{i % 3}.0\t1.0\n" for i, code in enumerate(codes)),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("config,accepted", [
    ("method=frequency\n", False),
    ("method=knn\n", True),
    ("method=ensemble\nmembers=knn,frequency\n", True),
], ids=["frequency", "knn", "ensemble-knn-frequency"])
def test_impute_vectors_need_a_knn_member(tmp_path, impute_files, vectors_file, capsys,
                                         config, accepted):
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "f.tsv"
    code = main(["impute", "--train", str(impute_files / "train.tsv"),
                 "--test", str(impute_files / "test.tsv"), "--out", str(out),
                 "--imputer-config", str(cfg), "--vectors", str(vectors_file)])
    if accepted:
        assert code == 0
        assert len(read_kv(Path(f"{out}.manifest"))["input.vectors"]) == 64
    else:
        assert code == 1
        assert "config error: method frequency does not read language vectors" in \
            capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("config,code,message", [
    ("method=frequency\n", 1, "config error: method frequency does not read language vectors"),
    ("method=knn\n", 2, "data error: vector file line 1: non-finite component"),
], ids=["frequency", "knn"])
def test_impute_vectors_checked_before_they_are_read(tmp_path, impute_files, capsys,
                                                     config, code, message):
    """Only a method with a knn member reads the vector file, so a bad
    file is a data error for knn alone."""
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text("aaa\tnan\t1.0\n", encoding="utf-8")
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "f.tsv"
    assert main(["impute", "--train", str(impute_files / "train.tsv"),
                 "--test", str(impute_files / "test.tsv"), "--out", str(out),
                 "--imputer-config", str(cfg), "--vectors", str(vectors)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_impute_empty_vectors_file_is_data_error(tmp_path, impute_files, capsys, text):
    """A vector file without a single vector is a data error naming the
    file, not a silent fall back to agreement ranking."""
    vectors = tmp_path / "empty.tsv"
    vectors.write_text(text, encoding="utf-8")
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text("method=knn\n", encoding="utf-8")
    out = tmp_path / "f.tsv"
    assert main(["impute", "--train", str(impute_files / "train.tsv"),
                 "--test", str(impute_files / "test.tsv"), "--out", str(out),
                 "--imputer-config", str(cfg), "--vectors", str(vectors)]) == 2
    assert f"data error: vector file {vectors} holds no language vectors" in \
        capsys.readouterr().err
    assert not out.exists()
    assert not Path(f"{out}.manifest").exists()


@pytest.mark.parametrize("train_text", [
    "",
    "aaa\tA\t1.0\t2.0\tGenA\tFamX\tXX\tf=?\nbbb\tB\t3.0\t4.0\tGenA\tFamX\tXX\t\n",
], ids=["empty", "featureless"])
def test_impute_without_training_cells_is_data_error(tmp_path, impute_files, capsys,
                                                     train_text):
    train = tmp_path / "train.tsv"
    train.write_text(train_text, encoding="utf-8")
    out = tmp_path / "f.tsv"
    code = main(["impute", "--train", str(train), "--test", str(impute_files / "test.tsv"),
                 "--out", str(out)])
    assert code == 2
    assert "no observed cells" in capsys.readouterr().err
    assert not out.exists()


def _non_utf8_copy(source: Path, path: Path) -> Path:
    """``source`` with a 0xff byte in the first feature value."""
    data = source.read_bytes()
    at = data.index(b"=") + 1
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    return path


def test_filter_non_utf8_input_is_data_error(tmp_path, corpus, capsys):
    bad = _non_utf8_copy(corpus, tmp_path / "bad.tsv")
    out = tmp_path / "f.tsv"
    assert main(["filter", "--input", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err and "Traceback" not in err
    assert not out.exists()
    assert not Path(f"{out}.manifest").exists()


def test_impute_non_utf8_train_is_data_error(tmp_path, impute_files, capsys):
    bad = _non_utf8_copy(impute_files / "train.tsv", tmp_path / "train.tsv")
    out = tmp_path / "f.tsv"
    assert main(["impute", "--train", str(bad), "--test", str(impute_files / "test.tsv"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err and "Traceback" not in err
    assert not out.exists()
    assert not Path(f"{out}.manifest").exists()


def test_impute_non_utf8_vectors_is_data_error(tmp_path, impute_files, capsys):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_bytes(b"aaa\t0.5\xff\t1.0\n")
    cfg = tmp_path / "imputer.cfg"
    cfg.write_text("method=knn\n", encoding="utf-8")
    out = tmp_path / "f.tsv"
    assert main(["impute", "--train", str(impute_files / "train.tsv"),
                 "--test", str(impute_files / "test.tsv"), "--out", str(out),
                 "--imputer-config", str(cfg), "--vectors", str(vectors)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: vector file {vectors} is not UTF-8")
    assert not out.exists()


def test_impute_reads_its_config_before_its_data(tmp_path, capsys):
    """A bad config is reported even when ``--train`` does not exist:
    the config is checked before any dataset is read.  Both errors exit
    1, so only the message tells them apart."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("method=telepathy\n", encoding="utf-8")
    out = tmp_path / "f.tsv"
    code = main(["impute", "--train", str(tmp_path / "absent.tsv"),
                 "--test", str(tmp_path / "absent_test.tsv"), "--out", str(out),
                 "--imputer-config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "missing input:" not in err
    assert not out.exists()
