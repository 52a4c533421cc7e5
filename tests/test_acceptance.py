"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as
the acceptance checklist.  Tolerances and instance counts are part of
the criteria and must not be loosened.
"""

import math
import random
import time

import numpy as np

from typoimpute.evaluate import (
    EvalReport,
    SystemOutput,
    blanking_ratio_correlation,
    genus_weights,
    paired_permutation_test,
    score,
)
from typoimpute.imputers import (
    CorrelationImputer,
    GenusFamilyBackoffImputer,
    GlobalFrequencyImputer,
    fill_dataset,
    solve_ridge,
)
from typoimpute.kb import BLANKED, OBSERVED, parse_dataset, serialize_dataset
from typoimpute.splits import SplitSpec, blank_features, blanking_ratios, build_controlled_split, even_spacing

from oracles import (
    correlation_scores_oracle,
    exhaustive_permutation_p,
    genus_family_oracle,
    global_mode_oracle,
    great_circle_km,
    normal_equation_residual,
    vote_prediction_oracle,
)
from synth import Cell, build_dataset, cells_of, language_of, make_language, predict_one, random_dataset


def _verdict(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def make_gold(rows, n_observed=2):
    languages = []
    cells = {}
    for code, genus, blanked in rows:
        languages.append(make_language(code, genus=genus, family="Fam" + genus))
        for feature, value in blanked.items():
            cells[(code, feature)] = Cell.blanked(value)
        for i in range(n_observed):
            cells[(code, f"obs{i}")] = Cell.observed("o")
    return build_dataset(languages, cells)


def predictions_for(gold, correct_keys, wrong_value="WRONG"):
    out = {}
    for (code, feature), cell in cells_of(gold).items():
        if cell.state == BLANKED:
            key = (code, feature)
            out[key] = cell.value if key in correct_keys else wrong_value
    return out


# ---------------------------------------------------------------------------
# 1. split membership vs the brute-force rule oracle


def _split_fixture(rng):
    """30 languages; one designated held genus with 3-6 members."""
    languages = []
    cells = {}
    n_held = rng.randint(3, 6)
    for i in range(30):
        code = f"l{i:02d}"
        if i < n_held:
            genus, family = "HeldG", "HeldFam"
            lat, lon = rng.uniform(-10, 10), rng.uniform(-10, 10)
        else:
            genus = f"G{rng.randrange(6)}"
            family = f"F{rng.randrange(3)}"
            lat, lon = rng.uniform(-60, 60), rng.uniform(-170, 170)
        languages.append(make_language(code, genus=genus, family=family, lat=lat, lon=lon))
        for j in range(4):
            cells[(code, f"f{j}")] = Cell.observed(f"v{rng.randrange(3)}")
    return build_dataset(languages, cells)


def _membership_violations(d, spec, result):
    held = {lang.code for lang in d.languages if lang.genus in spec.held_out_genera}
    held_langs = [language_of(d, code) for code in sorted(held)]
    remainder = [lang for lang in d.languages if lang.code not in held]
    test_codes = set(result.test.codes())
    train_codes = set(result.train.codes())

    violations = 0
    if not held <= test_codes:
        violations += 1
    extras = test_codes - held
    expect_extras = math.floor(spec.random_holdout_fraction * len(remainder) + 0.5)
    if len(extras) != expect_extras or not extras <= {l.code for l in remainder}:
        violations += 1

    expected_train = set()
    for lang in remainder:
        if lang.code in extras:
            continue
        near = any(
            great_circle_km(
                lang.latitude, lang.longitude, h.latitude, h.longitude, dps=25
            )
            <= spec.exclusion_radius_km
            for h in held_langs
        )
        if not near:
            expected_train.add(lang.code)
    if train_codes != expected_train:
        violations += 1
    if not train_codes.isdisjoint(test_codes):
        violations += 1
    return violations


def test_acceptance_1_split_membership():
    rng = random.Random(2001)
    violations = 0
    for trial in range(100):
        d = _split_fixture(rng)
        spec = SplitSpec(
            held_out_genera=("HeldG",),
            exclusion_radius_km=rng.choice([250.0, 1000.0, 3000.0]),
            random_holdout_fraction=rng.choice([0.0, 0.1, 0.25]),
            seed=trial,
        )
        result = build_controlled_split(d, spec)
        violations += _membership_violations(d, spec, result)
    assert _verdict(1, "split-membership", violations == 0)


# ---------------------------------------------------------------------------
# 2. counting imputers vs brute-force oracles


def test_acceptance_2_counting_oracles():
    rng = random.Random(2002)
    mismatches = 0
    for trial in range(200):
        train = random_dataset(
            rng,
            n_languages=rng.randint(2, 20),
            n_features=rng.randint(2, 5),
            n_values=rng.randint(2, 4),
            p_observed=rng.choice([0.5, 0.8, 1.0]),
            min_observed=1,
        )
        freq = GlobalFrequencyImputer().fit(train)
        backoff = GenusFamilyBackoffImputer().fit(train)
        min_support = rng.choice([1, 3, 5])
        corr = CorrelationImputer(min_support=min_support).fit(train)

        for target in train.features():
            # every language at once, each observing all but the target
            cells = {key: cell for key, cell in cells_of(train).items() if key[1] != target}
            test = build_dataset(train.languages,
                                 {**cells, **{(c, target): Cell.unknown() for c in train.codes()}})
            got = [fill_dataset(imp, test) for imp in (freq, backoff, corr)]
            for code in train.codes():
                lang = language_of(train, code)
                observed = {f: cell.value for (c, f), cell in cells.items() if c == code}
                pred_freq, pred_backoff, pred = (g.get((code, target)) for g in got)

                want = global_mode_oracle(train, target)
                if (pred_freq and (pred_freq.value, pred_freq.confidence)) != want:
                    mismatches += 1

                want = genus_family_oracle(train, lang, target)
                if (pred_backoff and (pred_backoff.value, pred_backoff.confidence,
                                      pred_backoff.source)) != want:
                    mismatches += 1

                want_scores = correlation_scores_oracle(
                    train, observed, target, min_support=min_support
                )
                if (want_scores is None) != (pred is None):
                    mismatches += 1
                elif want_scores is not None:
                    # the value is defined where the top two totals are
                    # more than 1e-9 apart
                    value, confidence = vote_prediction_oracle(want_scores)
                    top = sorted(want_scores.values())[-2:]
                    decided = len(top) < 2 or top[1] - top[0] > 1e-9
                    if decided and pred.value != value:
                        mismatches += 1
                    elif abs(pred.confidence - confidence) > 1e-9:
                        mismatches += 1
    assert _verdict(2, "counting-oracles", mismatches == 0)


# ---------------------------------------------------------------------------
# 3. ridge correctness


def test_acceptance_3_ridge_correctness():
    rng = np.random.default_rng(2003)
    ok = True
    for trial in range(100):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 21))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        norms = {}
        for lam in (0.01, 1.0, 100.0):
            w, b = solve_ridge(X, y, lam)
            if normal_equation_residual(X, y, lam, w, b) > 1e-8:
                ok = False
            norms[lam] = float(np.linalg.norm(w))
        if not (norms[0.01] >= norms[1.0] - 1e-12 and norms[1.0] >= norms[100.0] - 1e-12):
            ok = False
    assert _verdict(3, "ridge-correctness", ok)


# ---------------------------------------------------------------------------
# 4. permutation-test calibration


def test_acceptance_4_permutation_calibration():
    rng = random.Random(2004)
    started = time.monotonic()
    ok = True
    for trial in range(20):
        rows = [
            (f"l{i:02d}", f"G{i}", {"f1": "x", "f2": "y"}) for i in range(5)
        ]
        gold = make_gold(rows)
        all_keys = sorted(predictions_for(gold, set()))
        a = score(gold, SystemOutput("A", predictions_for(
            gold, {k for k in all_keys if rng.random() < 0.6})))
        b = score(gold, SystemOutput("B", predictions_for(
            gold, {k for k in all_keys if rng.random() < 0.4})))

        codes = sorted(a.per_language)
        weights = genus_weights({c: a.language_genus[c] for c in codes})
        diffs = [weights[c] * (a.per_language[c] - b.per_language[c]) for c in codes]
        exact = exhaustive_permutation_p(diffs)
        mc = paired_permutation_test(a, b, samples=5000, seed=trial)
        if abs(mc.p_value - exact) > 0.02:
            ok = False
        if paired_permutation_test(a, a, samples=5000, seed=trial).p_value != 1.0:
            ok = False
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        ok = False
    assert _verdict(4, "permutation-calibration", ok)


# ---------------------------------------------------------------------------
# 5. metric identities and properties


def test_acceptance_5_metric_identities():
    ok = True

    # equal-weight degenerate case: one language per genus, one cell each
    rows = [(f"l{i:02d}", f"G{i}", {"f1": "x"}) for i in range(7)]
    gold = make_gold(rows)
    correct = {(f"l{i:02d}", "f1") for i in (0, 2, 5)}
    report = score(gold, SystemOutput("sys", predictions_for(gold, correct)))
    if report.macro_accuracy != report.micro_accuracy:
        ok = False

    # hand-computed macro: genus A at 1.0, genus B at (0.5 + 0.0)/2
    gold = make_gold([
        ("la1", "A", {"f1": "x", "f2": "x"}),
        ("lb1", "B", {"f1": "x", "f2": "x"}),
        ("lb2", "B", {"f1": "x", "f2": "x"}),
    ])
    hand = {("la1", "f1"), ("la1", "f2"), ("lb1", "f1")}
    report = score(gold, SystemOutput("sys", predictions_for(gold, hand)))
    if abs(report.macro_accuracy - 0.625) > 1e-15:
        ok = False

    # property suite
    rng = random.Random(2005)
    for trial in range(30):
        rows = []
        for i in range(rng.randint(2, 8)):
            blanked = {f"f{j}": "x" for j in range(rng.randint(1, 3))}
            rows.append((f"l{i:02d}", f"G{rng.randint(0, 2)}", blanked))
        gold = make_gold(rows)
        all_keys = sorted(predictions_for(gold, set()))
        correct = {k for k in all_keys if rng.random() < 0.5}
        base = score(gold, SystemOutput("sys", predictions_for(gold, correct)))

        # permutation invariance under record order
        shuffled_langs = list(gold.languages)
        rng.shuffle(shuffled_langs)
        shuffled = build_dataset(shuffled_langs, cells_of(gold))
        again = score(shuffled, SystemOutput("sys", predictions_for(shuffled, correct)))
        if (again.macro_accuracy != base.macro_accuracy
                or again.micro_accuracy != base.micro_accuracy):
            ok = False

        # monotonicity under prediction edits
        wrong = [k for k in all_keys if k not in correct]
        if wrong:
            improved = score(gold, SystemOutput(
                "sys", predictions_for(gold, correct | {rng.choice(wrong)})))
            if (improved.macro_accuracy < base.macro_accuracy
                    or improved.micro_accuracy < base.micro_accuracy):
                ok = False
        if correct:
            preds = predictions_for(gold, correct)
            del preds[rng.choice(sorted(correct))]
            worse = score(gold, SystemOutput("sys", preds))
            if (worse.macro_accuracy > base.macro_accuracy
                    or worse.micro_accuracy > base.micro_accuracy):
                ok = False
    assert _verdict(5, "metric-identities", ok)


# ---------------------------------------------------------------------------
# 6. blanking behavior


def test_acceptance_6_blanking():
    rng = random.Random(2006)
    ok = True
    for trial in range(50):
        d = random_dataset(
            rng,
            n_languages=rng.randint(2, 15),
            n_features=rng.randint(3, 8),
            min_observed=2,
        )
        spec = SplitSpec(seed=trial)
        blanked = blank_features(d, spec)
        ratios = blanking_ratios(d.codes(), spec)
        if sorted(ratios.values()) != even_spacing(
            spec.blanking_low, spec.blanking_high, len(d.codes())
        ):
            ok = False
        for code in blanked.codes():
            states = [c.state for (c2, _), c in cells_of(blanked).items() if c2 == code]
            if OBSERVED not in states or BLANKED not in states:
                ok = False

    # planted correlation between hidden share and accuracy
    z = np.random.default_rng(2006)
    n = 500
    x = z.normal(size=n)
    y = 0.3 * x + math.sqrt(1 - 0.3**2) * z.normal(size=n)
    ratios_in = 0.5 + 0.15 * x  # affine maps preserve the correlation
    accs_in = 0.5 + 0.1 * y
    report = EvalReport(
        system="sys",
        per_language={f"l{i}": float(accs_in[i]) for i in range(n)},
        language_genus={f"l{i}": "G" for i in range(n)},
        language_ratio={f"l{i}": float(ratios_in[i]) for i in range(n)},
        per_genus={"G": 0.5},
        macro_accuracy=0.5,
        micro_accuracy=0.5,
        per_feature={"f": (1, 2)},
        n_blanked=n,
        n_missing=0,
        n_correct=n // 2,
    )
    result = blanking_ratio_correlation(report)
    if abs(result.r - 0.3) > 0.1:
        ok = False
    assert _verdict(6, "blanking-behavior", ok)


# ---------------------------------------------------------------------------
# 7. correlation imputer on deterministic implications


def test_acceptance_7_deterministic_implication():
    rng = random.Random(2007)
    ok = True
    for trial in range(10):
        a_values = [f"a{i}" for i in range(rng.randint(2, 4))]
        b_values = [f"b{i}" for i in range(len(a_values))]
        rng.shuffle(b_values)
        mapping = dict(zip(a_values, b_values))
        per_value = rng.randint(5, 8)  # support >= 5 for every pair

        languages = []
        cells = {}
        i = 0
        for a in a_values:
            for _ in range(per_value):
                code = f"l{i:03d}"
                languages.append(make_language(code))
                cells[(code, "A")] = Cell.observed(a)
                cells[(code, "B")] = Cell.observed(mapping[a])
                if rng.random() < 0.5:
                    cells[(code, "C")] = Cell.observed("const")
                i += 1
        train = build_dataset(languages, cells)
        imp = CorrelationImputer(min_support=5).fit(train)
        for a in a_values:
            if predict_one(imp, make_language("qry"), {"A": a}, "B").value != mapping[a]:
                ok = False
    assert _verdict(7, "implication-accuracy", ok)


# ---------------------------------------------------------------------------
# 8. parser robustness under injected tabs


def _base_record(rng, i):
    code = "abcdefghij"[i % 10] + f"{i:02d}"
    name = rng.choice(["Toki Pona", "Examplese", "Testish", "Sample Lang"])
    lat = round(rng.uniform(-60, 60), 4)
    lon = round(rng.uniform(-170, 170), 4)
    genus = rng.choice(["Genus One", "Genus Two", "OtherGen"])
    family = rng.choice(["Family A", "Family B"])
    countries = rng.choice(["US", "BR DE", "IN"])
    features = {}
    for j in range(rng.randint(1, 4)):
        fname = f"{j}A Feature With Spaces {j}"
        value = rng.choice(["Value One", "No dominant order", "SOV", "a=b mix"])
        features[fname] = value
    return code, name, lat, lon, genus, family, countries, features


def _record_line(record):
    code, name, lat, lon, genus, family, countries, features = record
    field = " | ".join(f"{k}={v}" for k, v in sorted(features.items()))
    return "\t".join([code, name, str(lat), str(lon), genus, family, countries, field])


def test_acceptance_8_parser_fuzz():
    rng = random.Random(2008)
    ok = True
    for i in range(1000):
        record = _base_record(rng, i % 260)
        line = _record_line(record)
        head, field = line.rsplit("\t", 1)
        spaces = [p for p, ch in enumerate(field) if ch == " "]
        n_tabs = rng.randint(0, min(3, len(spaces)))
        for p in rng.sample(spaces, n_tabs):
            field = field[:p] + "\t" + field[p + 1:]
        fuzzed = head + "\t" + field

        d = parse_dataset(fuzzed)
        code, name, lat, lon, genus, family, countries, features = record
        lang = d.languages[0]
        if (lang.code, lang.name, lang.genus, lang.family) != (code, name, genus, family):
            ok = False
        if (lang.latitude, lang.longitude) != (lat, lon):
            ok = False
        if " ".join(lang.country_codes) != countries:
            ok = False
        parsed_features = {
            f: c.value for (_, f), c in cells_of(d).items() if c.state == OBSERVED
        }
        if parsed_features != features:
            ok = False

        # round trip
        if parse_dataset(serialize_dataset(d)) != d:
            ok = False
    assert _verdict(8, "parser-fuzz", ok)
