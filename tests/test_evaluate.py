"""Scoring, permutation significance, and the correlation analyses."""

import logging
import math
import random
import re
import sys
from collections import Counter

import numpy as np
import pytest

from typoimpute import evaluate
from typoimpute.evaluate import (
    CorrelationResult,
    EvalReport,
    EvaluationError,
    UndefinedCorrelationError,
    blanking_ratio_correlation,
    feature_accuracy_table,
    genus_breakdown,
    genus_weights,
    meta_correlation,
    output_from_dataset,
    paired_permutation_test,
    pearson,
    score,
)

from oracles import (
    exhaustive_permutation_p,
    macro_oracle,
    one_shot_permutation_oracle,
    pearson_oracle,
    score_oracle,
    t_tail_oracle,
)
from synth import (Cell, blank_some, blanked_keys, build_dataset, cells_of, fill, fill_blanked,
                   make_language, output_for, random_dataset)


def make_gold(rows, n_observed=2):
    """rows: (code, genus, {feature: gold_value}). Adds filler observed
    cells so blanking ratios are defined."""
    languages = []
    cells = {}
    for code, genus, blanked in rows:
        languages.append(make_language(code, genus=genus, family="Fam" + genus))
        for feature, value in blanked.items():
            cells[(code, feature)] = Cell.blanked(value)
        for i in range(n_observed):
            cells[(code, f"obs{i}")] = Cell.observed("o")
    return build_dataset(languages, cells)


def test_hand_worked_macro():
    # genus A: one language at 1.0; genus B: two languages at 0.5 and 0.0
    gold = make_gold([
        ("la1", "A", {"f1": "x", "f2": "x"}),
        ("lb1", "B", {"f1": "x", "f2": "x"}),
        ("lb2", "B", {"f1": "x", "f2": "x"}),
    ])
    correct = {("la1", "f1"), ("la1", "f2"), ("lb1", "f1")}
    report = score(gold, output_for(gold, correct))
    assert report.macro_accuracy == pytest.approx(0.625)
    assert report.micro_accuracy == pytest.approx(0.5)
    assert report.per_genus == {"A": 1.0, "B": 0.25}
    assert report.n_blanked == 6
    assert report.n_correct == 3
    assert report.n_missing == 0


def test_all_correct_is_exactly_one():
    gold = make_gold([
        ("la1", "A", {"f1": "x"}),
        ("lb1", "B", {"f1": "y", "f2": "z"}),
    ])
    keys = set(blanked_keys(gold))
    report = score(gold, output_for(gold, keys))
    assert report.macro_accuracy == 1.0
    assert report.micro_accuracy == 1.0


def test_macro_equals_micro_when_degenerate():
    gold = make_gold([("la1", "A", {"f1": "x", "f2": "y", "f3": "z"})])
    correct = {("la1", "f1"), ("la1", "f3")}
    report = score(gold, output_for(gold, correct))
    assert report.macro_accuracy == report.micro_accuracy == pytest.approx(2 / 3)


def test_missing_predictions_count_as_wrong():
    rows = [(f"l{i:02d}", f"G{i}", {"f1": "x", "f2": "x"}) for i in range(10)]
    gold = make_gold(rows)
    cells = cells_of(fill_blanked(gold, blanked_keys(gold)))
    # drop every prediction for one language
    cells.update({key: Cell.unknown() for key in blanked_keys(gold) if key[0] == "l00"})
    partial = build_dataset(gold.languages, cells)
    report = score(gold, output_from_dataset("sys", partial, gold))
    assert report.macro_accuracy == pytest.approx(0.9)
    assert report.n_missing == 2
    assert report.per_language["l00"] == 0.0


def test_exclude_missing_drops_cells_and_languages():
    rows = [(f"l{i:02d}", f"G{i}", {"f1": "x", "f2": "x"}) for i in range(10)]
    gold = make_gold(rows)
    cells = cells_of(fill_blanked(gold, blanked_keys(gold)))
    cells.update({key: Cell.unknown() for key in blanked_keys(gold) if key[0] == "l00"})
    cells[("l01", "f1")] = Cell.unknown()  # l01 keeps one correct prediction
    partial = build_dataset(gold.languages, cells)
    report = score(gold, output_from_dataset("sys", partial, gold), exclude_missing=True)
    assert "l00" not in report.per_language  # fully missing language dropped
    assert report.per_language["l01"] == 1.0  # scored on the remaining cell
    assert report.macro_accuracy == pytest.approx(1.0)
    assert report.n_missing == 3
    assert report.exclude_missing is True


def test_non_blanked_predictions_warn_and_are_ignored(caplog):
    gold = make_gold([("la1", "A", {"f1": "x"})])
    gold = build_dataset(gold.languages, {**cells_of(gold), ("la1", "f2"): Cell.unknown()})
    clean = fill_blanked(gold, {("la1", "f1")})
    cells = cells_of(clean)
    cells[("la1", "f2")] = Cell.observed("x")  # unknown, not blanked
    cells[("la1", "obs0")] = Cell.observed("whatever")  # observed cell
    cells[("zzz", "f1")] = Cell.observed("whatever")  # unknown language
    noisy = build_dataset(clean.languages + [make_language("zzz")], cells)
    with caplog.at_level(logging.WARNING, logger="typoimpute.evaluate"):
        report = score(gold, output_from_dataset("noisy", noisy, gold))
    assert caplog.messages == ["system noisy predicts 1 non-blanked cells (la1:f2); ignored"]
    clean = score(gold, output_from_dataset("clean", clean, gold))
    assert vars(report) == {**vars(clean), "system": "noisy"}


def test_non_blanked_warning_lists_the_first_three_by_code_and_feature(caplog):
    languages = [make_language(code) for code in ("lc", "la", "lb")]
    cells = {(code, feature): Cell.unknown() for code in ("lc", "la", "lb") for feature in ("f2", "f1")}
    cells[("la", "f0")] = Cell.blanked("x")
    gold = build_dataset(languages, cells)
    answers = {key: "x" for key in cells}
    with caplog.at_level(logging.WARNING, logger="typoimpute.evaluate"):
        score(gold, output_from_dataset("sys", fill(gold, answers), gold))
    assert caplog.messages == [
        "system sys predicts 6 non-blanked cells (la:f1, la:f2, lb:f1, ...); ignored"]


def test_score_requires_blanked_cells():
    languages = [make_language("la1")]
    gold = build_dataset(languages, {("la1", "f1"): Cell.observed("x")})
    with pytest.raises(EvaluationError, match="no blanked cells"):
        score(gold, output_from_dataset("sys", gold, gold))


def test_score_rejects_an_output_of_another_table():
    gold = make_gold([("la1", "A", {"f1": "x"})])
    other = make_gold([("la1", "A", {"f1": "x", "f2": "y"})])
    with pytest.raises(EvaluationError, match="answers a table of 4 cells, not the gold table of 3"):
        score(gold, output_for(other, set()))


def test_macro_matches_oracle_on_random_fixtures():
    rng = random.Random(100)
    for _ in range(20):
        rows = []
        for i in range(rng.randint(2, 12)):
            genus = f"G{rng.randint(0, 3)}"
            blanked = {f"f{j}": "x" for j in range(rng.randint(1, 4))}
            rows.append((f"l{i:02d}", genus, blanked))
        gold = make_gold(rows)
        all_keys = set(blanked_keys(gold))
        correct = {k for k in all_keys if rng.random() < 0.6}
        report = score(gold, output_for(gold, correct))
        want = macro_oracle(report.per_language, report.language_genus)
        assert report.macro_accuracy == pytest.approx(want)
        weights = genus_weights(report.language_genus)
        weighted = sum(weights[c] * report.per_language[c] for c in weights)
        assert weighted == pytest.approx(report.macro_accuracy)


def test_score_invariant_under_language_order():
    rows = [
        ("la1", "A", {"f1": "x"}),
        ("lb1", "B", {"f1": "y", "f2": "z"}),
        ("lc1", "C", {"f2": "w"}),
    ]
    gold = make_gold(rows)
    shuffled = build_dataset(list(reversed(gold.languages)), cells_of(gold))
    correct = {("la1", "f1"), ("lb1", "f2")}
    a = score(gold, output_for(gold, correct))
    b = score(shuffled, output_for(shuffled, correct))
    assert a.macro_accuracy == b.macro_accuracy
    assert a.micro_accuracy == b.micro_accuracy
    assert a.per_language == b.per_language


def test_fixing_a_wrong_prediction_never_hurts():
    rng = random.Random(101)
    for _ in range(20):
        rows = []
        for i in range(rng.randint(2, 8)):
            blanked = {f"f{j}": "x" for j in range(rng.randint(1, 3))}
            rows.append((f"l{i:02d}", f"G{rng.randint(0, 2)}", blanked))
        gold = make_gold(rows)
        all_keys = blanked_keys(gold)
        correct = {k for k in all_keys if rng.random() < 0.5}
        wrong = [k for k in all_keys if k not in correct]
        if not wrong:
            continue
        base = score(gold, output_for(gold, correct))
        improved_keys = correct | {rng.choice(wrong)}
        improved = score(gold, output_for(gold, improved_keys))
        assert improved.macro_accuracy >= base.macro_accuracy
        assert improved.micro_accuracy >= base.micro_accuracy


def test_removing_a_correct_prediction_never_helps():
    rng = random.Random(102)
    for _ in range(20):
        rows = []
        for i in range(rng.randint(2, 8)):
            blanked = {f"f{j}": "x" for j in range(rng.randint(1, 3))}
            rows.append((f"l{i:02d}", f"G{rng.randint(0, 2)}", blanked))
        gold = make_gold(rows)
        all_keys = blanked_keys(gold)
        correct = {k for k in all_keys if rng.random() < 0.7}
        if not correct:
            continue
        filled = fill_blanked(gold, correct)
        base = score(gold, output_from_dataset("sys", filled, gold))
        cells = cells_of(filled)
        cells[rng.choice(sorted(correct))] = Cell.unknown()
        dropped = build_dataset(gold.languages, cells)
        worse = score(gold, output_from_dataset("sys", dropped, gold))
        assert worse.macro_accuracy <= base.macro_accuracy
        assert worse.micro_accuracy <= base.micro_accuracy


def _scoring_case(rng):
    """A gold table of observed, blanked and unknown cells, and a system's
    predictions for it: each blanked cell right, wrong (another gold
    value or one no cell holds) or missing, every blanked cell of one
    language missing, and some predictions for unknown or observed cells
    and for a language or feature the gold table lacks."""
    data = random_dataset(rng, n_languages=rng.randint(1, 8), n_features=rng.randint(1, 5),
                          n_values=rng.randint(1, 3), p_observed=0.7)
    gold = blank_some(data, rng, per_language=rng.randint(0, 3))
    cells = dict(cells_of(gold))
    for code in gold.codes():
        for feature in gold.features():
            if (code, feature) not in cells and rng.random() < 0.5:
                cells[(code, feature)] = Cell.unknown()
    gold = build_dataset(gold.languages, cells)
    predictions = {}
    for key, cell in sorted(cells_of(gold).items()):
        kind = rng.choice(["right", "wrong", "unheard", "missing"] if cell.state == "blanked"
                          else ["stray", "none", "none"])
        if kind == "right":
            predictions[key] = cell.value
        elif kind == "wrong":
            predictions[key] = rng.choice([v for v in gold.value_names if v != cell.value] or ["zz"])
        elif kind in ("unheard", "stray"):
            predictions[key] = "zz"
    hidden = sorted({code for (code, _), cell in cells_of(gold).items() if cell.state == "blanked"})
    if hidden:
        dropped = rng.choice(hidden)
        predictions = {key: v for key, v in predictions.items()
                       if key[0] != dropped or cells_of(gold)[key].state != "blanked"}
    predictions[("zzz", gold.features()[0])] = "v0"
    predictions[(gold.codes()[0], "no such feature")] = "v0"
    return gold, predictions


def test_score_matches_per_cell_oracle():
    """Every report field equals the per-cell loop's over the predictions
    dict, floats bit for bit, with and without ``exclude_missing``, when
    the predictions reach ``score`` as a filled dataset read by
    ``output_from_dataset``; both error paths raise the oracle's
    message."""
    rng = random.Random(20)
    outcomes = Counter()
    for _ in range(200):
        gold, predictions = _scoring_case(rng)
        output = output_from_dataset("sys", fill(gold, predictions), gold)
        for exclude_missing in (False, True):
            try:
                want = score_oracle(gold, "sys", predictions, exclude_missing)
            except ValueError as err:
                with pytest.raises(EvaluationError, match=f"^{re.escape(str(err))}$"):
                    score(gold, output, exclude_missing)
                outcomes[str(err)] += 1
                continue
            report = score(gold, output, exclude_missing)
            assert vars(report) == want
            outcomes["missing" if report.n_missing else "complete", exclude_missing] += 1
    assert outcomes["gold dataset has no blanked cells to score"] > 0
    assert outcomes["no language has a scored cell"] > 0
    assert outcomes["missing", True] > 50


# ---------------------------------------------------------------------------
# permutation test


def _two_system_reports(rng, n_languages=5):
    rows = [
        (f"l{i:02d}", f"G{i}", {"f1": "x", "f2": "y"}) for i in range(n_languages)
    ]
    gold = make_gold(rows)
    all_keys = blanked_keys(gold)
    correct_a = {k for k in all_keys if rng.random() < 0.6}
    correct_b = {k for k in all_keys if rng.random() < 0.4}
    a = score(gold, output_for(gold, correct_a, "A"))
    b = score(gold, output_for(gold, correct_b, "B"))
    return a, b


def test_identical_systems_give_p_exactly_one():
    rng = random.Random(103)
    a, _ = _two_system_reports(rng)
    result = paired_permutation_test(a, a, samples=2000, seed=1)
    assert result.p_value == 1.0
    assert result.observed_diff == 0.0


def test_permutation_rejects_a_negative_seed():
    a, b = _two_system_reports(random.Random(104))
    with pytest.raises(EvaluationError, match="seed must be nonnegative, got -1"):
        paired_permutation_test(a, b, samples=10, seed=-1)


def test_permutation_symmetric_in_argument_order():
    rng = random.Random(104)
    a, b = _two_system_reports(rng)
    ab = paired_permutation_test(a, b, samples=3000, seed=2)
    ba = paired_permutation_test(b, a, samples=3000, seed=2)
    assert ab.p_value == ba.p_value
    assert ab.observed_diff == ba.observed_diff
    assert (ab.system_a, ab.system_b) == (ba.system_b, ba.system_a)


def test_permutation_close_to_exhaustive():
    rng = random.Random(105)
    for trial in range(5):
        a, b = _two_system_reports(rng, n_languages=5)
        codes = sorted(a.per_language)
        weights = genus_weights({c: a.language_genus[c] for c in codes})
        diffs = [
            weights[c] * (a.per_language[c] - b.per_language[c]) for c in codes
        ]
        exact = exhaustive_permutation_p(diffs)
        mc = paired_permutation_test(a, b, samples=5000, seed=trial)
        assert abs(mc.p_value - exact) <= 0.02
        assert mc.observed_diff == pytest.approx(
            abs(a.macro_accuracy - b.macro_accuracy)
        )


def test_permutation_deterministic_given_seed():
    rng = random.Random(106)
    a, b = _two_system_reports(rng)
    p1 = paired_permutation_test(a, b, samples=1000, seed=3).p_value
    p2 = paired_permutation_test(a, b, samples=1000, seed=3).p_value
    assert p1 == p2


def test_permutation_p_in_unit_interval():
    rng = random.Random(107)
    for seed in range(5):
        a, b = _two_system_reports(rng)
        p = paired_permutation_test(a, b, samples=200, seed=seed).p_value
        assert 0.0 < p <= 1.0


def _accuracy_reports(rng, n_languages):
    """Two systems' reports with per-language accuracies in quarters (so
    some sign patterns tie the observed difference) over ~n/3 genera."""
    codes = [f"l{i:03d}" for i in range(n_languages)]
    genus = {code: f"G{rng.randrange(max(1, n_languages // 3))}" for code in codes}

    def report(system):
        per_language = {code: rng.randrange(5) / 4 for code in codes}
        return EvalReport(system, per_language, genus, {}, {}, 0.0, 0.0, {}, 0, 0, 0)

    return report("A"), report("B")


@pytest.mark.parametrize("n_languages", [1, 7, 300])
def test_blocked_permutation_matches_one_shot_oracle(n_languages):
    block = evaluate._SIGN_BLOCK
    rng = random.Random(109 + n_languages)
    a, b = _accuracy_reports(rng, n_languages)
    for samples in (1, block - 1, block, block + 1, 5000):
        seed = rng.randrange(1000)
        result = paired_permutation_test(a, b, samples=samples, seed=seed)
        observed, p = one_shot_permutation_oracle(
            a.per_language, b.per_language, a.language_genus, samples, seed)
        assert (result.observed_diff, result.p_value) == (observed, p)
        assert (result.samples, result.n_languages) == (samples, n_languages)


def test_permutation_peak_memory_does_not_grow_with_samples():
    """Signs are drawn in blocks of 64 samples and mapped to +/-1 in
    place: 20,000 samples over 300 languages peak within four 64 x 300
    float blocks (614,400 bytes; about 340,000 measured), not the 48 MB
    of one samples x languages sign matrix.  A first call outside the
    trace keeps the import of ``numpy.random`` out of the peak."""
    import tracemalloc

    a, b = _accuracy_reports(random.Random(110), 300)
    paired_permutation_test(a, b, samples=1, seed=0)
    tracemalloc.start()
    try:
        paired_permutation_test(a, b, samples=20000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 64 * 300 * 8


def test_permutation_input_validation():
    rng = random.Random(108)
    a, b = _two_system_reports(rng)
    with pytest.raises(EvaluationError, match="positive"):
        paired_permutation_test(a, b, samples=0)
    rows = [("zz1", "Z", {"f1": "x"})]
    other = make_gold(rows)
    other = score(other, output_for(other, set(), "C"))
    with pytest.raises(EvaluationError, match="common"):
        paired_permutation_test(a, other)


# ---------------------------------------------------------------------------
# correlations


def test_pearson_perfect_negative():
    result = pearson([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
    assert result.r == -1.0
    assert result.p_value == 0.0
    assert result.n == 4


def test_pearson_matches_oracle():
    rng = random.Random(109)
    for _ in range(20):
        n = rng.randint(3, 40)
        xs = [rng.random() for _ in range(n)]
        ys = [rng.random() for _ in range(n)]
        result = pearson(xs, ys)
        assert result.r == pytest.approx(pearson_oracle(xs, ys), rel=1e-12, abs=1e-12)
        assert 0.0 <= result.p_value <= 1.0


P_GRID_N = (3, 4, 5, 7, 20, 207, 2000, 5000)
P_GRID_ABS_R = (1e-12, 1e-8, 1e-5, 0.5, 1 - 1e-9, 1 - 1e-15)


def _p_grid_r(n):
    rng = random.Random(113 + n)
    rs = [rng.uniform(-1.0, 1.0) for _ in range(30)]
    return rs + [s * a for a in P_GRID_ABS_R for s in (1.0, -1.0)]


def test_t_tail_matches_mpmath_oracle():
    for n in P_GRID_N:
        for r in _p_grid_r(n):
            got = evaluate._t_approx_p(r, n)
            want = t_tail_oracle(r, n)
            if want < sys.float_info.min:
                # below the normal doubles only an underflowed value will do
                assert 0.0 <= got < sys.float_info.min, (r, n, got, want)
            else:
                assert abs(got - want) <= 1e-10 * want, (r, n, got, want)


def test_t_tail_properties():
    for n in P_GRID_N:
        assert evaluate._t_approx_p(0.0, n) == 1.0
        assert evaluate._t_approx_p(-0.0, n) == 1.0
        rs = _p_grid_r(n)
        for r in rs:
            p = evaluate._t_approx_p(r, n)
            assert 0.0 <= p <= 1.0
            assert evaluate._t_approx_p(-r, n) == p
        by_abs = [evaluate._t_approx_p(a, n) for a in sorted({abs(r) for r in rs} | {0.0, 1.0})]
        assert by_abs[-1] == 0.0
        assert all(later <= earlier for earlier, later in zip(by_abs, by_abs[1:]))
    assert math.isnan(evaluate._t_approx_p(0.5, 2))


def test_t_tail_refuses_an_unconverged_fraction(monkeypatch):
    monkeypatch.setattr(evaluate, "_CF_MAX_STEPS", 1)
    with pytest.raises(EvaluationError, match="did not converge"):
        evaluate._t_approx_p(0.3, 207)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pearson_rejects_non_finite_input(bad):
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [1.0, 0.5, 0.2, 0.9]
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        pearson(xs[:2] + [bad] + xs[3:], ys)
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        pearson(xs, ys[:2] + [bad] + ys[3:])
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        meta_correlation([(0.6, 0.1), (0.7, bad), (0.8, 0.2)])
    with pytest.raises(UndefinedCorrelationError, match="not finite"):
        meta_correlation([(bad, 0.1), (0.7, 0.3)])


def test_pearson_validation():
    with pytest.raises(UndefinedCorrelationError, match="constant"):
        pearson([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
    with pytest.raises(UndefinedCorrelationError, match="at least 3"):
        pearson([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(EvaluationError, match="length"):
        pearson([1.0, 2.0, 3.0], [0.1, 0.2])


def test_planted_correlation_recovered():
    rng = np.random.default_rng(110)
    n = 500
    xs = rng.normal(size=n)
    ys = 0.3 * xs + math.sqrt(1 - 0.3**2) * rng.normal(size=n)
    result = pearson(list(xs), list(ys))
    assert abs(result.r - 0.3) <= 0.1
    assert result.p_value < 0.05


def test_blanking_ratio_correlation_reads_report_fields():
    report = EvalReport(
        system="sys",
        per_language={f"l{i}": 1.0 - 0.1 * i for i in range(5)},
        language_genus={f"l{i}": "G" for i in range(5)},
        language_ratio={f"l{i}": 0.1 * i for i in range(5)},
        per_genus={"G": 0.8},
        macro_accuracy=0.8,
        micro_accuracy=0.8,
        per_feature={"f": (4, 5)},
        n_blanked=5,
        n_missing=0,
        n_correct=4,
    )
    result = blanking_ratio_correlation(report)
    assert result.r == -1.0
    assert result.p_value == 0.0


def test_blanking_ratio_uses_hidden_share():
    gold = make_gold(
        [("la1", "A", {"f1": "x", "f2": "y"})], n_observed=6
    )
    report = score(gold, output_for(gold, set()))
    assert report.language_ratio["la1"] == pytest.approx(2 / 8)


def test_meta_correlation_two_and_three_systems():
    two = meta_correlation([(0.6, 0.1), (0.7, 0.3)])
    assert abs(two.r) == 1.0
    assert math.isnan(two.p_value)
    assert two.n == 2

    three = meta_correlation([(0.6, 0.1), (0.7, 0.3), (0.8, 0.2)])
    assert -1.0 <= three.r <= 1.0
    assert 0.0 <= three.p_value <= 1.0

    with pytest.raises(UndefinedCorrelationError, match="at least 2"):
        meta_correlation([(0.6, 0.1)])
    with pytest.raises(UndefinedCorrelationError, match="constant"):
        meta_correlation([(0.5, 0.1), (0.5, 0.2)])


# ---------------------------------------------------------------------------
# tables


def test_feature_accuracy_table_mean_and_spread():
    rows = [("la1", "A", {"f1": "x"} )]
    gold = make_gold([
        ("la1", "A", {"f1": "x", "f2": "y"}),
        ("lb1", "B", {"f1": "x", "f2": "y"}),
        ("lc1", "C", {"f1": "x", "f2": "y"}),
        ("ld1", "D", {"f1": "x", "f2": "y"}),
        ("le1", "E", {"f1": "x", "f2": "y"}),
    ])
    # system A: 3/5 on f1; system B: 7/10 -> use f2 to differ
    correct_a = {(f"l{c}1", "f1") for c in "abc"} | {(f"l{c}1", "f2") for c in "abcd"}
    correct_b = {(f"l{c}1", "f1") for c in "abcd"} | {(f"l{c}1", "f2") for c in "ab"}
    ra = score(gold, output_for(gold, correct_a, "A"))
    rb = score(gold, output_for(gold, correct_b, "B"))
    table = {row.feature: row for row in feature_accuracy_table([ra, rb])}
    assert table["f1"].mean_accuracy == pytest.approx((0.6 + 0.8) / 2)
    assert table["f1"].std_accuracy == pytest.approx(0.1)
    assert table["f1"].n_scored == 5
    assert table["f2"].mean_accuracy == pytest.approx((0.8 + 0.4) / 2)

    solo = feature_accuracy_table([ra])
    assert all(row.std_accuracy == 0.0 for row in solo)

    with pytest.raises(EvaluationError):
        feature_accuracy_table([])


def test_genus_breakdown_rows():
    gold = make_gold([
        ("lh1", "Held1", {"f1": "x", "f2": "y"}),
        ("lh2", "Held1", {"f1": "x"}),
        ("li1", "Held2", {"f1": "x"}),
        ("lo1", "OtherA", {"f1": "x"}),
        ("lo2", "OtherB", {"f1": "x", "f2": "y"}),
    ])
    correct = {
        ("lh1", "f1"), ("lh1", "f2"), ("li1", "f1"),
        ("lo1", "f1"), ("lo2", "f1"),
    }
    report = score(gold, output_for(gold, correct))
    rows = genus_breakdown(report, ["Held1", "Held2", "HeldAbsent"])
    labels = [row.group for row in rows]
    assert labels == ["Held1", "Held2", "other (pooled)", "other (macro)", "all (macro)"]
    by_label = {row.group: row for row in rows}
    assert by_label["Held1"].accuracy == pytest.approx(0.5)  # (1.0 + 0.0) / 2
    assert by_label["Held1"].n_languages == 2
    assert by_label["Held2"].accuracy == 1.0
    assert by_label["other (pooled)"].accuracy == pytest.approx((1.0 + 0.5) / 2)
    assert by_label["other (macro)"].accuracy == pytest.approx((1.0 + 0.5) / 2)
    assert by_label["all (macro)"].accuracy == report.macro_accuracy
    assert by_label["all (macro)"].n_languages == 5


# ---------------------------------------------------------------------------
# adapters


def test_output_from_dataset_collects_filled_hidden_cells():
    languages = [make_language("la1")]
    reference = build_dataset(languages, {
        ("la1", "f1"): Cell.blanked("x"),
        ("la1", "f2"): Cell.unknown(),
        ("la1", "f3"): Cell.observed("kept"),
    })
    filled = build_dataset(languages, {
        ("la1", "f1"): Cell.observed("x"),
        ("la1", "f2"): Cell.observed("py"),
        ("la1", "f3"): Cell.observed("kept"),
        ("la1", "f4"): Cell.observed("x"),  # no reference cell
    })
    out = output_from_dataset("sys", filled, reference)
    # reference values: kept = 0, x = 1; "py" is no reference value
    assert out.name == "sys"
    assert out.predicted.tolist() == [1, -2, -1]


def test_output_from_dataset_skips_still_unknown():
    languages = [make_language("la1")]
    reference = build_dataset(languages, {("la1", "f1"): Cell.blanked("x")})
    filled = build_dataset(languages, {("la1", "f1"): Cell.unknown()})
    out = output_from_dataset("sys", filled, reference)
    assert out.predicted.tolist() == [-1]
