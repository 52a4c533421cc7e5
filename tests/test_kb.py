"""Parsing, serialization, and filtering of the tab-separated format."""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from typoimpute import kb
from typoimpute.cli import _load_dataset
from typoimpute.coded import CodedCounts
from typoimpute.imputers import Answers, Imputer, fill_dataset
from typoimpute.kb import (
    BLANKED,
    BLANKED_CODE,
    OBSERVED,
    OBSERVED_CODE,
    UNKNOWN,
    UNKNOWN_CODE,
    Dataset,
    DatasetError,
    Language,
    ParseError,
    filter_dataset,
    parse_dataset,
    serialize_dataset,
    write_dataset,
)

from oracles import parse_oracle, serialize_oracle
from synth import Cell, build_dataset, cells_of, language_of, make_language, random_dataset

HEADER = "wals code\tname\tlatitude\tlongitude\tgenus\tfamily\tcountrycodes\tfeatures"

ROW_MHI = (
    "mhi\tMarathi\t19.0\t76.0\tIndic\tIndo-European\tIN\t"
    "81A Order of Subject, Object and Verb=SOV | 51A Position of Case Affixes=?"
)
ROW_JPN = (
    "jpn\tJapanese\t37.0\t140.0\tJapanese\tJapanese\tJP\t"
    "81A Order of Subject, Object and Verb=? | 51A Position of Case Affixes=Case suffixes"
)


def test_parse_basic_record():
    d = parse_dataset(HEADER + "\n" + ROW_MHI + "\n")
    assert d.codes() == ["mhi"]
    lang = language_of(d, "mhi")
    assert lang.name == "Marathi"
    assert lang.latitude == 19.0
    assert lang.longitude == 76.0
    assert lang.genus == "Indic"
    assert lang.family == "Indo-European"
    assert lang.country_codes == ("IN",)
    cell = cells_of(d)[("mhi", "81A Order of Subject, Object and Verb")]
    assert cell.state == OBSERVED and cell.value == "SOV"
    unknown = cells_of(d)[("mhi", "51A Position of Case Affixes")]
    assert unknown.state == UNKNOWN and unknown.value is None


def test_parse_without_header():
    d = parse_dataset(ROW_MHI + "\n" + ROW_JPN + "\n")
    assert d.codes() == ["mhi", "jpn"]


def test_parse_alternate_header_spelling():
    header = "code\tname\tlat\tlong\tgenus\tfamily\tcc\tfeats"
    d = parse_dataset(header + "\n" + ROW_JPN + "\n")
    assert d.codes() == ["jpn"]


def test_parse_skips_blank_lines():
    d = parse_dataset("\n" + ROW_MHI + "\n\n" + ROW_JPN + "\n\n")
    assert d.codes() == ["mhi", "jpn"]


def test_stray_tabs_inside_feature_field_do_not_shift_columns():
    line = "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=left\tright | f2=ok"
    d = parse_dataset(line + "\n")
    lang = language_of(d, "abc")
    assert (lang.genus, lang.family) == ("Gen", "Fam")
    assert cells_of(d)[("abc", "f1")].value == "left right"
    assert cells_of(d)[("abc", "f2")].value == "ok"


def test_stray_tabs_multiple_normalized_to_single_spaces():
    line = "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=a\tb\tc | f2=x\ty"
    d = parse_dataset(line + "\n")
    assert cells_of(d)[("abc", "f1")].value == "a b c"
    assert cells_of(d)[("abc", "f2")].value == "x y"


def test_value_may_contain_equals_sign():
    line = "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=a=b"
    d = parse_dataset(line + "\n")
    assert cells_of(d)[("abc", "f1")].value == "a=b"


def test_parse_with_gold_marks_blanked():
    gold = parse_dataset("abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=answer | f2=x\n")
    hidden = "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=? | f2=x | f3=?\n"
    d = parse_dataset(hidden, gold=gold)
    blanked = cells_of(d)[("abc", "f1")]
    assert blanked.state == BLANKED and blanked.value == "answer"
    assert cells_of(d)[("abc", "f2")].state == OBSERVED
    # f3 has no gold observation, so it stays unknown
    assert cells_of(d)[("abc", "f3")].state == UNKNOWN


def test_parse_gold_with_unknown_cell_stays_unknown():
    gold = parse_dataset("abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=?\n")
    d = parse_dataset("abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=?\n", gold=gold)
    assert cells_of(d)[("abc", "f1")].state == UNKNOWN


@pytest.mark.parametrize(
    "line,match",
    [
        ("abc\tAbc\t1.0\t2.0\tGen\tFam\tXX", "expected >= 8"),
        ("abc\tAbc\tnorth\t2.0\tGen\tFam\tXX\tf1=a", "malformed coordinate"),
        ("abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tnovalue", "without '='"),
        ("abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\t=a", "empty name"),
        ("abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=a | f1=b", "duplicate feature"),
        ("abc\tAbc\t95.0\t2.0\tGen\tFam\tXX\tf1=a", "latitude"),
        ("abc\tAbc\t1.0\t181.0\tGen\tFam\tXX\tf1=a", "longitude"),
    ],
)
def test_parse_errors_carry_line_numbers(line, match):
    with pytest.raises(ParseError, match=match) as exc:
        parse_dataset(ROW_MHI + "\n" + line + "\n")
    assert exc.value.lineno == 2


def test_parse_duplicate_code_rejected():
    with pytest.raises(DatasetError, match="duplicate language code"):
        parse_dataset(ROW_MHI + "\n" + ROW_MHI + "\n")


def test_empty_text_gives_empty_dataset():
    d = parse_dataset("")
    assert d.languages == [] and cells_of(d) == {}
    assert serialize_dataset(d) == ""


def test_round_trip_observed_and_unknown():
    rng = random.Random(11)
    for trial in range(25):
        d = random_dataset(rng, n_languages=rng.randint(1, 10), n_features=5)
        text = serialize_dataset(d)
        assert parse_dataset(text) == d


def test_round_trip_with_gold_companion():
    rng = random.Random(12)
    from synth import blank_some

    for trial in range(10):
        d = blank_some(random_dataset(rng, n_languages=8, min_observed=3), rng)
        hidden_text = serialize_dataset(d)
        gold_text = serialize_dataset(d, reveal_blanked=True)
        restored = parse_dataset(hidden_text, gold=parse_dataset(gold_text))
        assert restored == d


def _pair_dataset(**changed):
    """Two languages with one observed, one blanked and one unknown cell;
    ``changed`` replaces cells by key."""
    languages = [make_language("aaa"), make_language("bbb")]
    cells = {("aaa", "f1"): Cell.observed("x"), ("aaa", "f2"): Cell.blanked("y"),
             ("bbb", "f1"): Cell.observed("y"), ("bbb", "f2"): Cell.unknown()}
    cells.update({tuple(key.split(".")): cell for key, cell in changed.items()})
    return build_dataset(languages, cells)


@pytest.mark.parametrize("other", [
    lambda: _pair_dataset(**{"aaa.f2": Cell.blanked("x")}),
    lambda: _pair_dataset(**{"aaa.f2": Cell.unknown()}),
    lambda: _pair_dataset(**{"bbb.f2": Cell.blanked("y")}),
    lambda: build_dataset(reversed(_pair_dataset().languages), cells_of(_pair_dataset())),
], ids=["blanked-gold", "blanked-vs-unknown", "unknown-vs-blanked", "language-order"])
def test_datasets_differing_in_one_cell_or_order_are_unequal(other):
    d, e = _pair_dataset(), other()
    assert d != e and e != d
    assert d == _pair_dataset()


def test_parsed_dataset_equals_its_coded_twin():
    """Equality reads the coded table: a dataset built from unsorted,
    repeated names and unordered cells equals the parsed file."""
    gold = parse_dataset(serialize_dataset(_pair_dataset(), reveal_blanked=True))
    parsed = parse_dataset(serialize_dataset(_pair_dataset()), gold=gold)
    twin = Dataset(
        _pair_dataset().languages, ["f2", "f1", "f2", "f1"], ["y", "y", "x", "y"],
        np.array([1, 0, 0, 1]), np.array([0, 1, 2, 3]), np.array([-1, 2, 1, 3]),
        np.array([UNKNOWN_CODE, OBSERVED_CODE, BLANKED_CODE, OBSERVED_CODE], dtype=np.int8),
    )
    assert parsed == twin


class _Canned(Imputer):
    """Answers the cells of a fixed {cell index: value} table, or list of
    (cell index, value) pairs, whatever it is asked about."""

    def __init__(self, answers):
        self.answers = list(answers.items() if isinstance(answers, dict) else answers)

    def predict(self, test, cells):
        n = len(self.answers)
        return Answers(np.array([cell for cell, _ in self.answers], dtype=np.intp), np.arange(n),
                       np.ones(n), np.zeros(n, dtype=np.intp),
                       tuple(value for _, value in self.answers), ("canned",))


def test_filled_dataset_serializes_answers_and_keeps_unanswered_gold():
    d = build_dataset(
        [make_language("aaa")],
        {
            ("aaa", "f1"): Cell.blanked("gold"),
            ("aaa", "f2"): Cell.unknown(),
            ("aaa", "f3"): Cell.observed("x"),
        },
    )
    text = serialize_dataset(fill_dataset(_Canned({0: "p1", 1: "p2"}), d))
    assert text.endswith("\tf1=p1 | f2=p2 | f3=x\n")
    # an unanswered blanked cell keeps its gold value, shown only on reveal
    filled = fill_dataset(_Canned({1: "p2"}), d)
    assert serialize_dataset(filled).endswith("\tf1=? | f2=p2 | f3=x\n")
    assert serialize_dataset(filled, reveal_blanked=True).endswith("\tf1=gold | f2=p2 | f3=x\n")
    assert cells_of(filled)[("aaa", "f1")] == Cell.blanked("gold")


@pytest.mark.parametrize("cell", [1, 2, -1], ids=["observed", "nonexistent", "negative"])
def test_fill_rejects_an_answer_for_a_cell_it_did_not_ask_about(cell):
    d = build_dataset([make_language("aaa")],
                      {("aaa", "f1"): Cell.unknown(), ("aaa", "f2"): Cell.observed("x")})
    with pytest.raises(DatasetError, match="_Canned answered a cell the test set does not hide"):
        fill_dataset(_Canned({0: "y", cell: "y"}), d)


def test_fill_rejects_a_cell_answered_twice():
    """Answers are arrays, which keep a repeated cell where a dict kept
    its last answer: a second answer for a cell is an error, even one
    that repeats the value."""
    d = build_dataset([make_language("aaa")],
                      {("aaa", "f1"): Cell.unknown(), ("aaa", "f2"): Cell.blanked("g")})
    for twice in ([(0, "y"), (1, "y"), (0, "z")], [(1, "y"), (1, "y")]):
        with pytest.raises(DatasetError, match="_Canned answered a cell twice"):
            fill_dataset(_Canned(twice), d)


def test_serialize_reveal_blanked_writes_gold():
    d = build_dataset([make_language("aaa")], {("aaa", "f1"): Cell.blanked("gold")})
    assert "f1=?" in serialize_dataset(d)
    assert "f1=gold" in serialize_dataset(d, reveal_blanked=True)


def _hidden_cells_dataset(rng: random.Random, n_languages: int) -> Dataset:
    """Random cells, some blanked and some unknown, and a language with
    no cell at all."""
    d = random_dataset(rng, n_languages=n_languages, n_features=6, min_observed=1)
    cells = dict(cells_of(d))
    for key in rng.sample(sorted(cells), len(cells) // 3):
        cells[key] = Cell.blanked(cells[key].value) if rng.random() < 0.5 else Cell.unknown()
    return build_dataset(d.languages + [make_language("zzz")], cells)


@pytest.mark.parametrize("block", [1, 3, 7, 256])
def test_serialize_matches_oracle_across_blocks(block, monkeypatch):
    """Blocks of languages, filled cells and revealed gold values give
    the text of the one-cell-at-a-time oracle."""
    from typoimpute import kb

    monkeypatch.setattr(kb, "_SERIALIZE_BLOCK", block)
    rng = random.Random(block)
    for n_languages in (1, 2, 3, 7, 8, 20):
        d = _hidden_cells_dataset(rng, n_languages)
        keys = list(cells_of(d))
        hidden = [i for i, cell in enumerate(cells_of(d).values()) if cell.state != OBSERVED]
        answers = {i: f"p{n}" for n, i in enumerate(rng.sample(hidden, len(hidden) // 2))}
        fill = {keys[i]: value for i, value in answers.items()}
        filled = fill_dataset(_Canned(answers), d)
        for reveal in (False, True):
            assert serialize_dataset(d, reveal) == serialize_oracle(d, None, reveal)
            assert serialize_dataset(filled, reveal) == serialize_oracle(d, fill, reveal)


def test_parsed_and_built_datasets_agree_on_cell_dtypes():
    rng = random.Random(13)
    built = _hidden_cells_dataset(rng, 12)
    gold = build_dataset(built.languages, {key: Cell.observed(cell.value) if cell.value else cell
                                           for key, cell in cells_of(built).items()})
    parsed = parse_dataset(serialize_dataset(built), gold=gold)
    assert parsed == built
    for name in ("cell_row", "cell_feature", "cell_value", "cell_state"):
        assert getattr(parsed, name).dtype == getattr(built, name).dtype, name
    assert built.cell_state.dtype == np.int8


def test_catalog_inventories_sorted_with_counts():
    d = build_dataset(
        [make_language("aaa"), make_language("bbb")],
        {
            ("aaa", "f1"): Cell.observed("zz"),
            ("bbb", "f1"): Cell.observed("aa"),
            ("aaa", "f2"): Cell.unknown(),
        },
    )
    assert d.features() == ["f1", "f2"]
    assert d.counts.columns == {"f1": {"aa": 0, "zz": 1}}
    assert d.counts.totals.tolist() == [1, 1]


def test_dataset_accessors():
    d = build_dataset(
        [make_language("aaa", genus="G1")],
        {
            ("aaa", "f1"): Cell.observed("x"),
            ("aaa", "f2"): Cell.blanked("y"),
            ("aaa", "f3"): Cell.unknown(),
        },
    )
    assert d.features() == ["f1", "f2", "f3"]
    assert d.feature_names == ["f1", "f2", "f3"] and d.value_names == ["x", "y"]
    assert d.cell_row.tolist() == [0, 0, 0]
    assert d.cell_feature.tolist() == [0, 1, 2]
    assert d.cell_value.tolist() == [0, 1, -1]
    assert d.cell_state.tolist() == [OBSERVED_CODE, BLANKED_CODE, UNKNOWN_CODE]
    assert len(cells_of(d)) == 3 and cells_of(d)[("aaa", "f2")] == Cell.blanked("y")
    assert language_of(d, "aaa").genus == "G1"
    with pytest.raises(KeyError):
        language_of(d, "zzz")


def test_counts_cover_observed_values_only():
    """Blanked gold values, and values that only dropped languages held,
    are no count columns; a language repeated in a later source keeps
    its first source's row."""
    d = build_dataset(
        [make_language("aaa"), make_language("bbb"), make_language("ccc")],
        {
            ("aaa", "f1"): Cell.observed("x"),
            ("aaa", "f2"): Cell.blanked("gold"),
            ("bbb", "f1"): Cell.observed("y"),
            ("bbb", "f2"): Cell.observed("z"),
            ("ccc", "f2"): Cell.unknown(),
        },
    )
    assert d.counts.columns == {"f1": {"x": 0, "y": 1}, "f2": {"z": 2}}
    assert filter_dataset(d, 1, 2).counts.columns == {"f1": {"x": 0, "y": 1}}
    sub = d.subset(["aaa", "ccc"])
    assert sub.counts.columns == {"f1": {"x": 0}}
    other = build_dataset(
        [make_language("bbb"), make_language("aaa"), make_language("ddd")],
        {
            ("bbb", "f1"): Cell.observed("w"),
            ("aaa", "f1"): Cell.observed("q"),
            ("ddd", "f3"): Cell.observed("v"),
        },
    )
    both = CodedCounts([sub, other])
    assert [lang.code for lang in both.languages] == ["aaa", "ccc", "bbb", "ddd"]
    assert both.columns == {"f1": {"w": 0, "x": 1}, "f3": {"v": 2}}
    assert both.onehot.tolist() == [[0, 1, 0], [0, 0, 0], [1, 0, 0], [0, 0, 1]]
    assert both.seen.tolist() == [[1, 0], [0, 0], [1, 0], [0, 1]]


def test_dataset_build_rejects_unknown_language_cells():
    with pytest.raises(DatasetError, match="unknown language"):
        build_dataset([make_language("aaa")], {("bbb", "f1"): Cell.observed("x")})


def test_dataset_rejects_duplicate_codes():
    with pytest.raises(DatasetError, match="duplicate"):
        build_dataset([make_language("aaa"), make_language("aaa")], {})


def test_subset_keeps_order_and_cells():
    rng = random.Random(5)
    d = random_dataset(rng, n_languages=8)
    keep = d.codes()[::2]
    sub = d.subset(keep)
    assert sub.codes() == keep
    assert all(key[0] in set(keep) for key in cells_of(sub))


def _filter_oracle(d, min_feats, min_langs):
    """Independent fixed-point filter over plain sets."""
    langs = set(d.codes())
    feats = {f for (_, f) in cells_of(d)}
    while True:
        obs_count = {
            c: sum(
                1
                for (code, f), cell in cells_of(d).items()
                if code == c and f in feats and cell.state == OBSERVED
            )
            for c in langs
        }
        langs_next = {c for c in langs if obs_count[c] >= min_feats}
        lang_count = {
            f: sum(
                1
                for (code, ff), cell in cells_of(d).items()
                if ff == f and code in langs_next and cell.state == OBSERVED
            )
            for f in feats
        }
        feats_next = {f for f in feats if lang_count[f] >= min_langs}
        if langs_next == langs and feats_next == feats:
            return langs, feats
        langs, feats = langs_next, feats_next


def test_filter_matches_fixed_point_oracle():
    rng = random.Random(21)
    for trial in range(30):
        d = random_dataset(
            rng,
            n_languages=rng.randint(5, 18),
            n_features=rng.randint(3, 8),
            p_observed=rng.uniform(0.2, 0.9),
            min_observed=0,
        )
        # Unknown and blanked cells count for nothing; one feature has
        # only unknown cells, which min_languages=0 keeps.
        cells = dict(cells_of(d))
        for code in d.codes()[::2]:
            cells[(code, "zz only unknown")] = Cell.unknown()
        for key in sorted(cells)[::5]:
            if cells[key].state == OBSERVED:
                cells[key] = Cell.blanked(cells[key].value)
        d = build_dataset(d.languages, cells)
        min_feats = rng.randint(0, 4)
        min_langs = rng.randint(0, 6) if trial % 3 else 0
        got = filter_dataset(d, min_feats, min_langs)
        want_langs, want_feats = _filter_oracle(d, min_feats, min_langs)
        assert got.codes() == [code for code in d.codes() if code in want_langs]
        assert dict(cells_of(got)) == {
            (code, f): cell for (code, f), cell in cells_of(d).items()
            if code in want_langs and f in want_feats
        }
        assert got.features() == sorted({f for _, f in cells_of(got)})
        if min_langs == 0 and want_langs & set(d.codes()[::2]):
            assert "zz only unknown" in got.features()


def test_filter_cascade_removal():
    # l2 and l3 observe f2 only through l1; dropping l1 must cascade
    languages = [make_language(c) for c in ("l1", "l2", "l3")]
    cells = {
        ("l1", "f1"): Cell.observed("a"),
        ("l1", "f2"): Cell.observed("a"),
        ("l2", "f2"): Cell.observed("a"),
        ("l3", "f2"): Cell.observed("a"),
    }
    d = build_dataset(languages, cells)
    out = filter_dataset(d, min_feats_per_lang=2, min_langs_per_feat=3)
    assert out.codes() == []


def test_filter_defaults_keep_dense_data():
    # 10 languages x 4 observed features exactly meets the defaults
    languages = [make_language(f"l{i:02d}") for i in range(10)]
    cells = {
        (lang.code, f"f{j}"): Cell.observed("a")
        for lang in languages
        for j in range(4)
    }
    d = build_dataset(languages, cells)
    out = filter_dataset(d)
    assert len(out.languages) == 10
    assert len(out.features()) == 4


def test_language_validation():
    with pytest.raises(DatasetError):
        Language(code="", name="x", latitude=0, longitude=0, genus="g", family="f")
    with pytest.raises(DatasetError):
        make_language("aaa", lat=91.0)


# ---------------------------------------------------------------------------
# the coded parser against the record-by-record oracle


def _bench_text(workload: str) -> str:
    bench = Path(__file__).resolve().parents[1] / "bench"
    modules = {}
    for name in ("gen", "workloads"):
        spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        sys.modules[name] = modules[name]  # workloads imports gen by name
        spec.loader.exec_module(modules[name])
    return modules["gen"].generate(modules["workloads"].WORKLOADS[workload](1).shape, workload, 1)


def _hide(text: str, every: int) -> str:
    """``text`` with the value of every ``every``-th feature segment
    replaced by ``?``; stray tabs and the header stay."""
    lines = text.splitlines()
    count = 0
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        segments = "\t".join(fields[7:]).split("|")
        for j, segment in enumerate(segments):
            count += 1
            if count % every == 0:
                segments[j] = segment.split("=", 1)[0] + "=?"
        lines[i] = "\t".join(fields[:7] + ["|".join(segments)])
    return "\n".join(lines) + "\n"


def _as_oracle(d: Dataset):
    return d.languages, {key: (cell.state, cell.value) for key, cell in cells_of(d).items()}


def _oracle_text(languages, cells, reveal_blanked=False) -> str:
    parts = {lang.code: [] for lang in languages}
    for (code, feature), (state, value) in sorted(cells.items()):
        shown = state == OBSERVED or (reveal_blanked and state == BLANKED)
        parts[code].append(f"{feature}={value if shown else '?'}")
    lines = []
    for lang in languages:
        lines.append("\t".join([lang.code, lang.name, str(lang.latitude), str(lang.longitude),
                                lang.genus, lang.family, " ".join(lang.country_codes),
                                " | ".join(parts[lang.code])]))
    return "".join(line + "\n" for line in lines)


def _assert_coded_invariants(d: Dataset):
    assert d.feature_names == sorted(set(d.feature_names))
    assert d.value_names == sorted(set(d.value_names))
    key = d.cell_row * len(d.feature_names) + d.cell_feature
    assert (np.diff(key) > 0).all()
    assert set(np.unique(d.cell_feature).tolist()) == set(range(len(d.feature_names)))
    used = d.cell_value[d.cell_value >= 0]
    assert set(used.tolist()) == set(range(len(d.value_names)))
    assert ((d.cell_value < 0) == (d.cell_state == UNKNOWN_CODE)).all()


@pytest.mark.parametrize("workload", ["models-M", "baselines-L", "context-random"])
def test_parse_matches_oracle_on_bench_files(workload):
    text = _bench_text(workload)
    want = parse_oracle(text)
    d = parse_dataset(text)
    assert _as_oracle(d) == want
    _assert_coded_invariants(d)
    written = serialize_dataset(d)
    assert written == _oracle_text(*want)
    assert serialize_dataset(parse_dataset(written)) == written

    # The gold join: hidden cells the gold file observes become blanked.
    gold_text = _hide(text, 7)
    hidden_text = _hide(text, 3)
    want = parse_oracle(hidden_text, gold=parse_oracle(gold_text)[1])
    states = {state for state, _ in want[1].values()}
    assert states == {OBSERVED, BLANKED, UNKNOWN}
    d = parse_dataset(hidden_text, gold=parse_dataset(gold_text))
    assert _as_oracle(d) == want
    _assert_coded_invariants(d)
    assert serialize_dataset(d) == _oracle_text(*want)
    revealed = serialize_dataset(d, reveal_blanked=True)
    assert revealed == _oracle_text(*want, reveal_blanked=True)
    assert parse_dataset(serialize_dataset(d), gold=parse_dataset(revealed)) == d


EDGE_TEXTS = {
    "header": HEADER + "\n" + ROW_MHI + "\n" + ROW_JPN + "\n",
    "alt-header": "code\tname\tlat\tlong\tgenus\tfamily\tcc\tfeats\n" + ROW_JPN + "\n",
    "blank-lines": "\n" + ROW_MHI + "\n\n" + ROW_JPN + "\n\n",
    "stray-tab": "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=left\tright | f2=ok\n",
    "stray-tabs": "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=a\tb\tc |\tf2=x\ty\n",
    "equals": "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=a=b | f2==c | f3=?\n",
    "gold-misses": "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=? | a=? | zz=?\n"
                   "zzz\tZ\t0\t0\tG\tF\t\tf3=?\n",
    "empty-field": "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\t\nxyz\tXyz\t-3.5\t7\tGen\tFam\t\tf1=?\n",
    "unsorted": "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tb=2 | a=1 | c=?\n"
                "xyz\tX\t0\t0\tG\tF\tXX\ta=1 | d=0\n",
    "duplicate-feature": ROW_MHI + "\nabc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=a | f1=b\n",
    "duplicate-code": ROW_MHI + "\n" + ROW_MHI + "\n",
    "no-equals": ROW_MHI + "\nabc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=a | novalue\n",
    "bad-coordinate": ROW_MHI + "\nabc\tAbc\tnorth\t2.0\tGen\tFam\tXX\tf1=a\n",
    "empty": "",
}


@pytest.mark.parametrize("text", list(EDGE_TEXTS.values()), ids=list(EDGE_TEXTS))
def test_parse_matches_oracle_on_edge_cases(text):
    gold = parse_dataset("aaa\tA\t0\t0\tG\tF\tXX\tf3=x\n"
                         "abc\tAbc\t1.0\t2.0\tGen\tFam\tXX\tf1=g | f3=h | c=i\n")
    gold_cells = {key: (cell.state, cell.value) for key, cell in cells_of(gold).items()}
    for kwargs, oracle_kwargs in (({}, {}), ({"gold": gold}, {"gold": gold_cells})):
        try:
            want = parse_oracle(text, **oracle_kwargs)
        except DatasetError as exc:
            with pytest.raises(type(exc)) as got:
                parse_dataset(text, **kwargs)
            assert str(got.value) == str(exc)
            continue
        d = parse_dataset(text, **kwargs)
        assert _as_oracle(d) == want
        _assert_coded_invariants(d)
        assert serialize_dataset(d) == _oracle_text(*want)


# Random texts for the differential test: records from small pools, so
# codes, features and values repeat, with faults injected on chosen lines.
_CODES = ["abc", "xyz", "mhi", "jpn", "q1", "q 2", "z9", "aaa", "bbb", "ccc"]
_NAMES = ["f1", "f2", "81A Order", "Case", "x"]
_VALUES = ["a", "b", "?", "SOV", "x=y", "No case", "=", "a?", "??", ""]
_FAULTS = ["fields", "coordinate", "range", "empty-code", "duplicate-code",
           "header-late", "no-equals", "empty-name", "duplicate-feature",
           "two-segments", "record-and-segment"]


def _pad(rng) -> str:
    return rng.choice(["", "", " ", "  ", "\t"])


def _random_line(rng, code: str, fault: str | None = None, first_code: str = "") -> str:
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    segments = [f"{_pad(rng)}{name}{_pad(rng)}={_pad(rng)}{rng.choice(_VALUES)}{_pad(rng)}"
                for name in names]
    for _ in range(rng.randrange(3)):  # empty and whitespace-only segments
        segments.insert(rng.randrange(len(segments) + 1), rng.choice(["", " ", "\t", " \t "]))
    bad_segments = {
        "no-equals": ["novalue"],
        "empty-name": [f"{_pad(rng)}={_pad(rng)}v"],
        "duplicate-feature": [f" {name}{_pad(rng)}= b"
                              for name in rng.sample(names, min(len(names), rng.randint(1, 2)))],
        "two-segments": ["no value", f" {rng.choice(names)}=dup"],
        "record-and-segment": ["novalue"],
    }.get(fault, [])
    for segment in bad_segments:
        segments.insert(rng.randrange(len(segments) + 1), segment)
    fields = [code, f"Lang {code}", rng.choice(["0", "12.5", "-3.25", " 7 ", "90"]),
              rng.choice(["0", "-180", "140.0", "2"]), rng.choice(["G1", "G2"]),
              rng.choice(["F1", " F2 "]), rng.choice(["", "XX", "XX YY"]),
              rng.choice(["|", " | "]).join(segments)]
    if fault == "fields":
        fields = fields[:rng.randint(1, 7)]
    elif fault in ("coordinate", "record-and-segment"):
        fields[rng.choice([2, 3])] = "north"
    elif fault == "range":
        fields[2], fields[3] = rng.choice([("91", "0"), ("0", "-181.5")])
    elif fault == "empty-code":
        fields[0] = rng.choice(["", "  "])
    elif fault == "duplicate-code":
        fields[0] = f" {first_code} "
    elif fault == "header-late":
        return HEADER
    return "\t".join(fields)


def _random_text(rng, faults: list[str]) -> str:
    """Records over ``_CODES`` with ``faults`` on distinct records after the
    first, in order; blank lines, a header and CRLF endings at random."""
    codes = rng.sample(_CODES, rng.randint(len(faults) + 1, len(_CODES)))
    at = sorted(rng.sample(range(1, len(codes)), len(faults))) if faults else []
    kinds = dict(zip(at, faults))
    lines = [HEADER] if rng.random() < 0.3 else []
    for i, code in enumerate(codes):
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "  ", "\t"]))
        lines.append(_random_line(rng, code, kinds.get(i), codes[0]))
    return "".join(line + rng.choice(["\n", "\n", "\r\n"]) for line in lines)


def _differential_cases():
    pairs = [(a, b) for a in _FAULTS for b in _FAULTS]
    for i in range(300):
        if i % 3 == 0:
            yield i, []
        elif i % 3 == 1:
            yield i, [_FAULTS[i // 3 % len(_FAULTS)]]
        else:
            yield i, list(pairs[i // 3 % len(pairs)])


def test_parse_matches_oracle_on_random_texts():
    """Type and message of the first fault in file order, or the parsed
    table, match the oracle's on seeded texts, with and without gold."""
    raised = set()
    for seed, faults in _differential_cases():
        rng = random.Random(seed)
        text = _random_text(rng, faults)
        gold = parse_dataset(_random_text(rng, []))
        gold_cells = {key: (cell.state, cell.value) for key, cell in cells_of(gold).items()}
        for kwargs, oracle_kwargs in (({}, {}), ({"gold": gold}, {"gold": gold_cells})):
            try:
                want = parse_oracle(text, **oracle_kwargs)
            except DatasetError as exc:
                with pytest.raises(DatasetError) as got:
                    parse_dataset(text, **kwargs)
                assert (type(got.value), str(got.value)) == (type(exc), str(exc)), (seed, text)
                raised.add(str(exc))
                continue
            assert not faults, (seed, text)
            d = parse_dataset(text, **kwargs)
            assert _as_oracle(d) == want, (seed, text)
            _assert_coded_invariants(d)
    # Every kind of fault was the first on some text.
    for kind in ("expected >= 8 tab-separated fields", "malformed coordinate",
                 "latitude 91.0 out of range", "longitude -181.5 out of range",
                 "language code must be nonempty", "duplicate language code",
                 "feature segment without '='", "feature segment with empty name",
                 "duplicate feature"):
        assert any(kind in message for message in raised), kind


# Line separators of ``str.splitlines``: a text file's own newline
# handling turns "\r\n" and "\r" into "\n" and leaves the others inside
# the lines it yields, for ``parse_dataset`` to split.
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


def _separator_texts():
    bad = "abc\tAbc\tnorth\t2.0\tGen\tFam\tXX\tf1=a"
    for sep in _SEPARATORS:
        for lines, end in (([ROW_MHI, ROW_JPN], sep), (["", ROW_MHI, "", "", ROW_JPN, ""], sep),
                           ([HEADER, ROW_MHI, ROW_JPN], ""), ([ROW_MHI, "", bad, ROW_JPN], sep),
                           ([ROW_MHI, ROW_MHI], "")):
            for bom in ("", "\ufeff"):
                yield bom + sep.join(lines) + end
    yield "\r\n".join([ROW_MHI, "\x85" + ROW_JPN, "\u2028", "\r", bad])


def _assert_streamed_as_text(path: Path, gold: Dataset | None = None) -> None:
    """``_load_dataset`` of ``path`` gives the dataset, or the error, of
    ``parse_dataset`` on the file's whole text."""
    try:
        want = parse_dataset(path.read_text(encoding="utf-8-sig"), gold=gold)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as got:
            _load_dataset(path, gold=gold)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        assert getattr(got.value, "lineno", None) == getattr(exc, "lineno", None)
        return
    assert _load_dataset(path, gold=gold) == want


def test_streamed_parse_matches_the_text_parse(tmp_path):
    """A file read line by line parses as its whole text does: the
    fault-ordering texts, with and without gold, and every line
    separator, a BOM, blank lines, a header and no final newline."""
    path = tmp_path / "in.tsv"
    raised = 0
    for seed, faults in _differential_cases():
        rng = random.Random(seed)
        path.write_bytes(_random_text(rng, faults).encode("utf-8"))
        gold = parse_dataset(_random_text(rng, []))
        for g in (None, gold):
            _assert_streamed_as_text(path, g)
        raised += bool(faults)
    for text in _separator_texts():
        path.write_bytes(text.encode("utf-8"))
        _assert_streamed_as_text(path)
    assert raised


def test_streamed_parse_peak_memory_is_below_the_text_parse(tmp_path):
    """Reading the largest bench file line by line holds no whole text:
    the ``tracemalloc`` peak of ``_load_dataset`` is at least half the
    file's length below that of ``read_text`` and ``parse_dataset``."""
    import tracemalloc

    path = tmp_path / "in.tsv"
    path.write_text(_bench_text("baselines-L"), encoding="utf-8")
    peaks = []
    for load in (lambda: parse_dataset(path.read_text(encoding="utf-8-sig")),
                 lambda: _load_dataset(path)):
        tracemalloc.start()
        try:
            load()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] - path.stat().st_size / 2


def test_parse_peak_memory_stays_within_six_times_the_text():
    """Parsing holds no per-cell Python string: the ``tracemalloc`` peak of
    one parse of the largest bench file stays under 6x its length."""
    import tracemalloc

    text = _bench_text("baselines-L")
    tracemalloc.start()
    try:
        parse_dataset(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * len(text)


def test_serialize_peak_memory_stays_within_four_times_the_output():
    """Serializing builds its per-cell strings one block of languages at
    a time: the ``tracemalloc`` peak of one serialize of the largest
    bench file stays under 4x the length of the text it returns."""
    import tracemalloc

    d = parse_dataset(_bench_text("baselines-L"))
    tracemalloc.start()
    try:
        text = serialize_dataset(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def _assert_written_as_serialized(d: Dataset, path: Path) -> None:
    for reveal in (False, True):
        write_dataset(path, d, reveal_blanked=reveal)
        assert path.read_bytes() == serialize_dataset(d, reveal).encode("utf-8")


@pytest.mark.parametrize("workload", ["models-M", "baselines-L", "context-random"])
def test_write_dataset_writes_the_serialized_bytes_of_bench_datasets(workload, tmp_path):
    """The workload's data, filtered, and its controlled split, whose
    test set has blanked cells."""
    from typoimpute.splits import SplitSpec, build_controlled_split

    d = parse_dataset(_bench_text(workload))
    dense = filter_dataset(d)
    split = build_controlled_split(dense, SplitSpec(seed=1))
    assert (split.test.cell_state == BLANKED_CODE).any()
    for part in (d, dense, split.train, split.test):
        _assert_written_as_serialized(part, tmp_path / "out.tsv")


@pytest.mark.parametrize("n_languages", [0] + [blocks * kb._SERIALIZE_BLOCK + d
                                               for blocks in (1, 2) for d in (-1, 0, 1)])
def test_write_dataset_writes_the_serialized_bytes_at_block_edges(n_languages, tmp_path):
    """No language, and one language short of, at and past one and two
    blocks."""
    d = (parse_dataset("") if n_languages == 0
         else _hidden_cells_dataset(random.Random(n_languages), n_languages - 1))
    assert len(d.languages) == n_languages
    _assert_written_as_serialized(d, tmp_path / "out.tsv")


def test_write_dataset_peak_memory_is_two_thirds_of_serialize_and_write(tmp_path):
    """Writing one block at a time holds no whole text: the
    ``tracemalloc`` peak of ``write_dataset`` on the largest bench file
    (2000 languages x 150 features) is at most two thirds of that of
    ``serialize_dataset`` and ``write_text``."""
    import tracemalloc

    d = parse_dataset(_bench_text("baselines-L"))
    peaks = []
    for write in (lambda path: path.write_text(serialize_dataset(d), encoding="utf-8"),
                  lambda path: write_dataset(path, d)):
        tracemalloc.start()
        try:
            write(tmp_path / "out.tsv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 / 3 * peaks[0]
