"""Controlled splits, random splits, and feature blanking."""

import csv
import io
import math
import random

import pytest

from typoimpute.configio import ConfigError
from typoimpute.kb import BLANKED, OBSERVED
from typoimpute.splits import (
    DEFAULT_HELD_OUT_GENERA,
    LanguageProvenance,
    SplitError,
    SplitSpec,
    blank_features,
    blanking_ratios,
    build_controlled_split,
    even_spacing,
    provenance_csv,
    random_split,
)

from oracles import blank_oracle, great_circle_km
from synth import Cell, build_dataset, cells_of, language_of, make_language, random_dataset


def test_default_genus_list():
    assert DEFAULT_HELD_OUT_GENERA == (
        "Mayan",
        "Tucanoan",
        "Madang",
        "Mahakiranti",
        "Northern Pama-Nyungan",
        "Nilotic",
    )


def test_even_spacing_endpoints_and_step():
    pts = even_spacing(0.05, 0.95, 10)
    assert len(pts) == 10
    assert pts[0] == pytest.approx(0.05)
    assert pts[-1] == pytest.approx(0.95)
    steps = [b - a for a, b in zip(pts, pts[1:])]
    assert all(s == pytest.approx(0.1) for s in steps)


def test_even_spacing_degenerate_counts():
    assert even_spacing(0.05, 0.95, 0) == []
    assert even_spacing(0.05, 0.95, 1) == [0.05]
    assert even_spacing(0.5, 0.5, 4) == [0.5] * 4


def test_blanking_ratios_cover_range_and_permute():
    spec = SplitSpec(seed=9)
    codes = [f"l{i:02d}" for i in range(10)]
    ratios = blanking_ratios(codes, spec)
    assert set(ratios) == set(codes)
    assert sorted(ratios.values()) == pytest.approx(even_spacing(0.05, 0.95, 10))
    # deterministic given the seed
    assert ratios == blanking_ratios(codes, spec)
    # a different seed assigns a different permutation (overwhelmingly)
    other = blanking_ratios(codes, SplitSpec(seed=10))
    assert other != ratios


def _observed_features(d, code):
    return sorted(
        f for (c, f), cell in cells_of(d).items() if c == code and cell.state == OBSERVED
    )


def _blanked_features(d, code):
    return sorted(
        f for (c, f), cell in cells_of(d).items() if c == code and cell.state == BLANKED
    )


def test_blank_features_counts_and_gold():
    rng = random.Random(41)
    for trial in range(20):
        d = random_dataset(
            rng, n_languages=rng.randint(2, 12), n_features=8, min_observed=2
        )
        spec = SplitSpec(seed=trial)
        ratios = blanking_ratios(d.codes(), spec)
        blanked = blank_features(d, spec)
        for code in d.codes():
            before = _observed_features(d, code)
            after_obs = _observed_features(blanked, code)
            after_blank = _blanked_features(blanked, code)
            assert len(after_obs) >= 1
            assert len(after_blank) >= 1
            want = math.floor(ratios[code] * len(before) + 0.5)
            want = max(1, min(len(before) - 1, want))
            assert len(after_blank) == want
            assert sorted(after_obs + after_blank) == before
            for feature in after_blank:
                assert cells_of(blanked)[(code, feature)].value == cells_of(d)[(code, feature)].value


def test_blank_features_matches_seeded_oracle():
    """The exact cells hidden: the seeded sample runs over each
    language's observed features in name order, whatever unknown cells
    sit between them."""
    rng = random.Random(43)
    for trial in range(20):
        d = random_dataset(rng, n_languages=rng.randint(1, 12), n_features=8, min_observed=2)
        cells = dict(cells_of(d))
        for code in d.codes()[::2]:
            cells[(code, "04G unknown")] = Cell.unknown()
        d = build_dataset(d.languages, cells)
        spec = SplitSpec(blanking_low=0.2, blanking_high=0.8, seed=trial)
        got = blank_features(d, spec)
        assert {key: (cell.state, cell.value) for key, cell in cells_of(got).items()} == (
            blank_oracle(d, 0.2, 0.8, trial)
        )


def test_blank_features_exact_half():
    languages = [make_language("aaa")]
    cells = {("aaa", f"f{i:02d}"): Cell.observed("v") for i in range(20)}
    d = build_dataset(languages, cells)
    spec = SplitSpec(blanking_low=0.5, blanking_high=0.5, seed=0)
    blanked = blank_features(d, spec)
    assert len(_blanked_features(blanked, "aaa")) == 10
    assert len(_observed_features(blanked, "aaa")) == 10


def test_blank_features_clamps_to_leave_one_each():
    languages = [make_language("aaa")]
    cells = {("aaa", "f1"): Cell.observed("v"), ("aaa", "f2"): Cell.observed("w")}
    d = build_dataset(languages, cells)
    blanked = blank_features(d, SplitSpec(blanking_low=0.95, blanking_high=0.95, seed=1))
    assert len(_blanked_features(blanked, "aaa")) == 1
    assert len(_observed_features(blanked, "aaa")) == 1


def test_blank_features_requires_two_observed():
    d = build_dataset([make_language("aaa")], {("aaa", "f1"): Cell.observed("v")})
    with pytest.raises(SplitError, match="at least 2"):
        blank_features(d, SplitSpec(seed=0))


def test_random_split_exact_fractions():
    rng = random.Random(42)
    d = random_dataset(rng, n_languages=100, n_features=4)
    train, dev, test = random_split(d, (0.90, 0.05, 0.05), seed=7)
    assert (len(train.languages), len(dev.languages), len(test.languages)) == (90, 5, 5)
    together = sorted(train.codes() + dev.codes() + test.codes())
    assert together == sorted(d.codes())


def test_random_split_largest_remainder_rounding():
    rng = random.Random(43)
    d = random_dataset(rng, n_languages=3, n_features=4)
    train, dev, test = random_split(d, (0.90, 0.05, 0.05), seed=1)
    # exact sizes 2.7/0.15/0.15: floors 2/0/0, the remaining unit goes to
    # the largest remainder (train)
    assert (len(train.languages), len(dev.languages), len(test.languages)) == (3, 0, 0)


def test_random_split_deterministic_and_seed_sensitive():
    rng = random.Random(44)
    d = random_dataset(rng, n_languages=40, n_features=4)
    a = random_split(d, seed=5)
    b = random_split(d, seed=5)
    assert [part.codes() for part in a] == [part.codes() for part in b]
    c = random_split(d, seed=6)
    assert [part.codes() for part in a] != [part.codes() for part in c]


def test_random_split_rejects_bad_fractions():
    rng = random.Random(45)
    d = random_dataset(rng, n_languages=10)
    nan, inf = float("nan"), float("inf")
    for fractions, match in [
        ((0.5, 0.2, 0.2), "sum to 1"),
        ((-0.1, 0.6, 0.5), "nonnegative"),
        ((nan, 0.5, 0.5), "finite"),
        ((0.5, nan, 0.5), "finite"),
        ((inf, 0.5, -inf), "finite"),
    ]:
        with pytest.raises(ConfigError, match=match):
            random_split(d, fractions, seed=0)


def _controlled_fixture(rng, n=30, held_genus="HeldG"):
    """Random fixture containing one geographically clustered held genus."""
    languages = []
    cells = {}
    n_held = rng.randint(3, 6)
    for i in range(n):
        code = f"l{i:02d}"
        if i < n_held:
            genus, family = held_genus, "HeldFam"
            lat = rng.uniform(-5.0, 5.0)
            lon = rng.uniform(-5.0, 5.0)
        else:
            genus, family = f"G{rng.randrange(6)}", f"F{rng.randrange(3)}"
            lat = rng.uniform(-60.0, 60.0)
            lon = rng.uniform(-170.0, 170.0)
        languages.append(make_language(code, genus=genus, family=family, lat=lat, lon=lon))
        for j in range(4):
            cells[(code, f"f{j}")] = Cell.observed(f"v{rng.randrange(3)}")
    return build_dataset(languages, cells)


def check_against_rule_oracle(d, spec, result):
    """Brute-force application of the documented membership rules."""
    held = {lang.code for lang in d.languages if lang.genus in spec.held_out_genera}
    remainder = [lang for lang in d.languages if lang.code not in held]
    test_codes = set(result.test.codes())
    train_codes = set(result.train.codes())

    # test = all held-genus languages plus the sampled extras
    assert held <= test_codes
    extras = test_codes - held
    assert len(extras) == math.floor(spec.random_holdout_fraction * len(remainder) + 0.5)
    assert extras <= {lang.code for lang in remainder}

    # train = remainder minus sample minus radius rule (same-genus rule is
    # vacuous: every held-genus language is already in test)
    held_langs = [lang for lang in d.languages if lang.code in held]
    expected_train = set()
    for lang in remainder:
        if lang.code in extras:
            continue
        near = any(
            great_circle_km(lang.latitude, lang.longitude, h.latitude, h.longitude)
            <= spec.exclusion_radius_km
            for h in held_langs
        )
        if not near:
            expected_train.add(lang.code)
    assert train_codes == expected_train
    assert train_codes.isdisjoint(test_codes)

    # leakage guarantee, checked with the high-precision oracle
    for code in train_codes:
        t = language_of(d, code)
        assert t.genus not in spec.held_out_genera
        for h in held_langs:
            assert (
                great_circle_km(t.latitude, t.longitude, h.latitude, h.longitude)
                > spec.exclusion_radius_km
            )


def test_controlled_split_matches_rule_oracle():
    rng = random.Random(51)
    for trial in range(15):
        d = _controlled_fixture(rng)
        spec = SplitSpec(
            held_out_genera=("HeldG",),
            exclusion_radius_km=rng.choice([500.0, 1000.0, 2000.0]),
            random_holdout_fraction=rng.choice([0.0, 0.1, 0.3]),
            seed=trial,
        )
        result = build_controlled_split(d, spec)
        check_against_rule_oracle(d, spec, result)


def test_controlled_split_missing_genus_named_in_error():
    rng = random.Random(52)
    d = random_dataset(rng, n_languages=10)
    with pytest.raises(SplitError, match="NoSuchGenus"):
        build_controlled_split(d, SplitSpec(held_out_genera=("NoSuchGenus",), seed=0))


def test_controlled_split_empty_spec_keeps_everything():
    rng = random.Random(53)
    d = random_dataset(rng, n_languages=12, min_observed=2)
    spec = SplitSpec(
        held_out_genera=(),
        exclusion_radius_km=0.0,
        random_holdout_fraction=0.0,
        seed=0,
    )
    result = build_controlled_split(d, spec)
    assert result.test.languages == []
    assert result.train.codes() == d.codes()
    assert result.train == d


def test_controlled_split_deterministic():
    rng = random.Random(54)
    d = _controlled_fixture(rng)
    spec = SplitSpec(held_out_genera=("HeldG",), seed=3)
    a = build_controlled_split(d, spec)
    b = build_controlled_split(d, spec)
    assert a.train == b.train
    assert a.test == b.test
    assert a.provenance == b.provenance


def test_controlled_split_blanks_test_languages():
    rng = random.Random(55)
    d = _controlled_fixture(rng)
    spec = SplitSpec(held_out_genera=("HeldG",), seed=4)
    result = build_controlled_split(d, spec)
    for code in result.test.codes():
        assert len(_observed_features(result.test, code)) >= 1
        assert len(_blanked_features(result.test, code)) >= 1
        for feature in _blanked_features(result.test, code):
            assert cells_of(result.test)[(code, feature)].value == cells_of(d)[(code, feature)].value


def test_provenance_covers_every_language_once():
    rng = random.Random(56)
    d = _controlled_fixture(rng)
    spec = SplitSpec(held_out_genera=("HeldG",), seed=5)
    result = build_controlled_split(d, spec)
    assert sorted(p.code for p in result.provenance) == sorted(d.codes())
    roles = {p.code: p.role for p in result.provenance}
    for code in result.train.codes():
        assert roles[code] == "train"
    for code in result.test.codes():
        assert roles[code] == "test"
    for p in result.provenance:
        if p.role == "test":
            assert p.blanking_ratio is not None
        else:
            assert p.blanking_ratio is None


def test_provenance_csv_layout():
    rng = random.Random(57)
    d = _controlled_fixture(rng)
    result = build_controlled_split(d, SplitSpec(held_out_genera=("HeldG",), seed=6))
    text = provenance_csv(result.provenance)
    lines = text.strip().splitlines()
    assert lines[0] == "code,role,reason,blanking_ratio"
    assert len(lines) == len(d.languages) + 1
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 4
        assert parts[1] in ("train", "test", "excluded")


def test_provenance_csv_round_trips_through_csv_reader():
    """A code with a comma or a quote, which the parser accepts, stays
    one field; ordinary rows keep their plain layout."""
    provenance = [
        LanguageProvenance("ab,c", "train", "held-in genus"),
        LanguageProvenance('q"x', "test", "held-out genus", 0.25),
        LanguageProvenance("abc", "excluded", "within radius"),
    ]
    text = provenance_csv(provenance)
    assert text.splitlines()[3] == "abc,excluded,within radius,"
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["code", "role", "reason", "blanking_ratio"],
                    ["ab,c", "train", "held-in genus", ""],
                    ['q"x', "test", "held-out genus", "0.25"],
                    ["abc", "excluded", "within radius", ""]]


def test_spec_file_round_trip(tmp_path):
    spec = SplitSpec(
        held_out_genera=("A", "B"),
        exclusion_radius_km=750.0,
        random_holdout_fraction=0.2,
        blanking_low=0.1,
        blanking_high=0.8,
        seed=13,
    )
    path = tmp_path / "spec.cfg"
    spec.to_file(path)
    assert SplitSpec.from_file(path) == spec


def test_spec_file_keeps_the_defaults_of_absent_keys(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("seed=3\n")
    assert SplitSpec.from_file(path) == SplitSpec(seed=3)
    # an empty genus list is a setting of its own and round-trips
    spec = SplitSpec(held_out_genera=(), seed=3)
    spec.to_file(path)
    assert path.read_text().startswith("genera=\n")
    assert SplitSpec.from_file(path) == spec


def test_spec_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("seed=1\nbogus=2\n")
    with pytest.raises(ConfigError, match="bogus"):
        SplitSpec.from_file(path)


def test_spec_file_rejects_bad_values(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("radius_km=wide\n")
    with pytest.raises(ConfigError, match="bad split spec value"):
        SplitSpec.from_file(path)


def test_spec_validation():
    for settings in [
        {"blanking_low": 0.0},
        {"blanking_low": 0.9, "blanking_high": 0.1},
        {"random_holdout_fraction": 1.5},
        {"exclusion_radius_km": -5.0},
        {"exclusion_radius_km": float("nan")},
        {"exclusion_radius_km": float("inf")},
    ]:
        with pytest.raises(ConfigError):
            SplitSpec(**settings)

