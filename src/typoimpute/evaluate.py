"""Scoring imputation systems against gold values.

The headline number is genus-macro accuracy: per-language accuracy over
hidden cells, averaged within each genus, then averaged across genera.
This keeps large families from dominating the score.  Hidden cells a
system failed to fill count as wrong unless scoring is asked to exclude
them.  Statistical comparisons between systems use a paired permutation
test on per-language accuracies weighted the same way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EvaluationError
from .kb import BLANKED_CODE, OBSERVED_CODE, Dataset, locate_cells

__all__ = [
    "EvaluationError",
    "UndefinedCorrelationError",
    "SystemOutput",
    "EvalReport",
    "PermutationResult",
    "CorrelationResult",
    "output_from_dataset",
    "score",
    "genus_weights",
    "paired_permutation_test",
    "pearson",
    "blanking_ratio_correlation",
    "meta_correlation",
    "feature_accuracy_table",
    "genus_breakdown",
]

log = logging.getLogger(__name__)


class UndefinedCorrelationError(EvaluationError):
    """Raised when a correlation has no defined value (constant axis or
    too few points)."""


@dataclass(frozen=True)
class SystemOutput:
    """A named set of predicted values keyed by (language code, feature)."""

    name: str
    predictions: Mapping[tuple[str, str], str]


def output_from_dataset(name: str, filled: Dataset, reference: Dataset) -> SystemOutput:
    """Read predictions out of a filled copy of ``reference``.

    A prediction is any cell observed in ``filled`` whose counterpart in
    ``reference`` is hidden (blanked or unknown).  Cells the filled copy
    left unknown stay missing.
    """
    codes = filled.codes()
    at = locate_cells(reference, codes, filled.feature_names, filled.cell_row, filled.cell_feature)
    hit = (filled.cell_state == OBSERVED_CODE) & (at >= 0)
    hit[hit] = reference.cell_state[at[hit]] != OBSERVED_CODE
    cells = zip(filled.cell_row[hit].tolist(), filled.cell_feature[hit].tolist(),
                filled.cell_value[hit].tolist())
    predictions = {(codes[r], filled.feature_names[f]): filled.value_names[v] for r, f, v in cells}
    return SystemOutput(name, predictions)


@dataclass
class EvalReport:
    """Per-system scores over one gold dataset."""

    system: str
    per_language: dict[str, float]
    language_genus: dict[str, str]
    language_ratio: dict[str, float]
    per_genus: dict[str, float]
    macro_accuracy: float
    micro_accuracy: float
    per_feature: dict[str, tuple[int, int]]  # feature -> (correct, scored)
    n_blanked: int
    n_missing: int
    n_correct: int
    exclude_missing: bool = False

    def feature_accuracy(self, feature: str) -> float:
        correct, total = self.per_feature[feature]
        return correct / total


def score(gold: Dataset, output: SystemOutput, exclude_missing: bool = False) -> EvalReport:
    """Score one system against the blanked cells of ``gold``.

    Hidden cells without a prediction count as wrong; with
    ``exclude_missing`` they are dropped from every denominator instead
    (a language whose hidden cells are all missing is then dropped
    entirely).  Predictions for cells that are not blanked are ignored
    with a warning.
    """
    blanked = gold.cell_state == BLANKED_CODE
    if not blanked.any():
        raise EvaluationError("gold dataset has no blanked cells to score")
    codes = gold.codes()
    row, feature = gold.cell_row[blanked], gold.cell_feature[blanked]
    keys = [(codes[r], gold.feature_names[f]) for r, f in zip(row.tolist(), feature.tolist())]
    extra = sorted(set(output.predictions) - set(keys))
    if extra:
        shown = ", ".join(f"{code}:{feature}" for code, feature in extra[:3])
        more = ", ..." if len(extra) > 3 else ""
        log.warning(
            "system %s predicts %d non-blanked cells (%s%s); ignored",
            output.name,
            len(extra),
            shown,
            more,
        )
    # each prediction as a value code: -1 when missing, -2 when no gold
    # cell holds that value
    value_code = {name: i for i, name in enumerate(gold.value_names)}
    value_code[None] = -1
    predicted = np.array([value_code.get(output.predictions.get(key), -2) for key in keys],
                         dtype=np.intp)
    missing = predicted == -1
    correct = predicted == gold.cell_value[blanked]
    scored = ~missing if exclude_missing else np.ones_like(missing)

    n_rows, n_features = len(codes), len(gold.feature_names)
    hidden = np.bincount(row, minlength=n_rows).tolist()
    observed = np.bincount(gold.cell_row[gold.cell_state == OBSERVED_CODE],
                           minlength=n_rows).tolist()
    row_scored = np.bincount(row[scored], minlength=n_rows).tolist()
    row_correct = np.bincount(row[correct], minlength=n_rows).tolist()
    feature_scored = np.bincount(feature[scored], minlength=n_features).tolist()
    feature_correct = np.bincount(feature[correct], minlength=n_features).tolist()
    rows = [r for r, n in enumerate(row_scored) if n]
    if not rows:
        raise EvaluationError("no language has a scored cell")
    per_language = {codes[r]: row_correct[r] / row_scored[r] for r in rows}
    language_genus = {codes[r]: gold.languages[r].genus for r in rows}
    language_ratio = {codes[r]: hidden[r] / (hidden[r] + observed[r]) for r in rows}
    per_feature = {name: (c, t) for name, c, t in zip(gold.feature_names, feature_correct,
                                                      feature_scored) if t}
    n_correct = int(correct.sum())

    genus_values: dict[str, list[float]] = {}
    for code in sorted(per_language):
        genus_values.setdefault(language_genus[code], []).append(per_language[code])
    per_genus = {
        genus: sum(values) / len(values) for genus, values in sorted(genus_values.items())
    }
    macro = sum(per_genus.values()) / len(per_genus)

    return EvalReport(
        system=output.name,
        per_language=per_language,
        language_genus=language_genus,
        language_ratio=language_ratio,
        per_genus=per_genus,
        macro_accuracy=macro,
        micro_accuracy=n_correct / int(scored.sum()),
        per_feature=per_feature,
        n_blanked=len(keys),
        n_missing=int(missing.sum()),
        n_correct=n_correct,
        exclude_missing=exclude_missing,
    )


def genus_weights(language_genus: Mapping[str, str]) -> dict[str, float]:
    """Per-language weights that make the weighted sum of language
    accuracies equal the genus-macro average."""
    sizes: dict[str, int] = {}
    for genus in language_genus.values():
        sizes[genus] = sizes.get(genus, 0) + 1
    n_genera = len(sizes)
    return {
        code: 1.0 / (n_genera * sizes[genus])
        for code, genus in sorted(language_genus.items())
    }


@dataclass(frozen=True)
class PermutationResult:
    system_a: str
    system_b: str
    observed_diff: float
    p_value: float
    samples: int
    seed: int
    n_languages: int


# Permutation samples whose signs are drawn at once.
_SIGN_BLOCK = 256


def paired_permutation_test(
    a: EvalReport,
    b: EvalReport,
    samples: int = 5000,
    seed: int = 0,
) -> PermutationResult:
    """Two-sided paired permutation test on the genus-macro difference.

    Each sample swaps the two systems' predictions for a language with
    probability one half and recomputes |macro(a) - macro(b)|.  Because
    the macro average is a fixed weighted sum of per-language
    accuracies, a swap is a sign flip of that language's accuracy
    difference.  The p-value uses the add-one estimate
    (1 + hits) / (1 + samples), so it is never zero.  Signs are drawn
    in blocks of samples, so memory does not grow with ``samples``.
    """
    if samples < 1:
        raise EvaluationError("samples must be positive")
    codes = sorted(set(a.per_language) & set(b.per_language))
    if not codes:
        raise EvaluationError("no common languages to compare")
    weights_map = genus_weights({code: a.language_genus[code] for code in codes})
    weights = np.array([weights_map[code] for code in codes])
    diffs = np.array([a.per_language[code] - b.per_language[code] for code in codes])
    weighted = weights * diffs
    observed = abs(float(weighted.sum()))

    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, samples, _SIGN_BLOCK):
        # the generator's stream does not depend on how draws are split
        signs = rng.integers(0, 2, size=(min(_SIGN_BLOCK, samples - start), len(codes))) * 2 - 1
        stats = np.abs(signs @ weighted)
        # tolerance so sign flips that land exactly on the observed value
        # count as extreme despite float noise
        hits += int((stats >= observed - 1e-12).sum())
    p = (1 + hits) / (1 + samples)
    return PermutationResult(a.system, b.system, observed, p, samples, seed, len(codes))


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float
    n: int


def _pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise UndefinedCorrelationError("an input is not finite")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        raise UndefinedCorrelationError("an axis is constant")
    r = float(xd @ yd) / denom
    return max(-1.0, min(1.0, r))


# For b = 1/2 and n up to 1e9, scanned around the branch switch, the
# continued fraction needed at most 72 steps; the cap only turns a bug
# into an error.
_CF_MAX_STEPS = 300
_CF_TINY = 1e-300


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b),
    evaluated by the modified Lentz method (Numerical Recipes, 6.4)."""

    def nonzero(v: float) -> float:
        return v if abs(v) >= _CF_TINY else _CF_TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-15:
            return h
    raise EvaluationError(
        f"incomplete beta did not converge for a={a!r}, b={b!r}, x={x!r}"
    )


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for 0 < x <= 1, with ``y`` = 1 - x passed in so that it
    keeps its own precision."""
    if y == 0.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log(y)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    # each tail's fraction converges fast only on its own side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _t_approx_p(r: float, n: int) -> float:
    """Two-sided p-value of the t test of a Pearson ``r`` over ``n``
    points: I_x((n - 2)/2, 1/2) at x = (1 - r)(1 + r), which is
    P(|T| >= |t|) for Student's t with n - 2 degrees of freedom.  Fewer
    than 3 points have no p-value (NaN)."""
    if n < 3:
        return float("nan")
    if abs(r) == 1.0:
        return 0.0
    return _betainc((n - 2) / 2, 0.5, (1.0 - r) * (1.0 + r), r * r)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Pearson correlation with the usual t-approximation p-value."""
    if len(xs) != len(ys):
        raise EvaluationError("correlation inputs differ in length")
    n = len(xs)
    if n < 3:
        raise UndefinedCorrelationError(f"need at least 3 points, got {n}")
    r = _pearson_r(xs, ys)
    return CorrelationResult(r, _t_approx_p(r, n), n)


def blanking_ratio_correlation(report: EvalReport) -> CorrelationResult:
    """Correlation between a language's share of hidden cells and its
    accuracy, for one system."""
    codes = sorted(report.per_language)
    return pearson(
        [report.language_ratio[code] for code in codes],
        [report.per_language[code] for code in codes],
    )


def meta_correlation(points: Sequence[tuple[float, float]]) -> CorrelationResult:
    """Correlation across systems between overall macro accuracy and the
    system's own blanking-ratio correlation coefficient.

    ``points`` holds one (macro_accuracy, blanking_r) pair per system.
    Two points are allowed (the correlation is then +/-1 by
    construction) but get no p-value.
    """
    n = len(points)
    if n < 2:
        raise UndefinedCorrelationError(f"need at least 2 systems, got {n}")
    macros = [p[0] for p in points]
    blanking = [p[1] for p in points]
    r = _pearson_r(macros, blanking)
    return CorrelationResult(r, _t_approx_p(r, n), n)


@dataclass(frozen=True)
class FeatureRow:
    feature: str
    mean_accuracy: float
    std_accuracy: float
    n_scored: int


def feature_accuracy_table(reports: Sequence[EvalReport]) -> list[FeatureRow]:
    """Per-feature accuracy averaged across systems.

    The spread column is the population standard deviation over systems;
    n_scored counts the gold cells for the feature.  Features skipped by
    some system (possible when missing cells are excluded) are dropped.
    """
    if not reports:
        raise EvaluationError("no reports given")
    common = sorted(set.intersection(*(set(r.per_feature) for r in reports)))
    rows = []
    for feature in common:
        accs = np.array([r.feature_accuracy(feature) for r in reports])
        totals = {r.per_feature[feature][1] for r in reports}
        rows.append(
            FeatureRow(
                feature=feature,
                mean_accuracy=float(accs.mean()),
                std_accuracy=float(accs.std(ddof=0)),
                n_scored=max(totals),
            )
        )
    return rows


@dataclass(frozen=True)
class GenusRow:
    group: str
    accuracy: float
    n_languages: int


def genus_breakdown(
    report: EvalReport, held_out_genera: Iterable[str]
) -> list[GenusRow]:
    """Accuracy per held-out genus plus the remaining languages.

    The remainder is reported twice: pooled (mean over its languages)
    and macro (mean of its genus means), since either convention is a
    reasonable reading of "everything else".
    """
    held = [g for g in held_out_genera if g in report.per_genus]
    rows = []
    for genus in held:
        members = [
            code for code, g in report.language_genus.items() if g == genus
        ]
        rows.append(GenusRow(genus, report.per_genus[genus], len(members)))
    held_set = set(held)
    other_codes = sorted(
        code for code, g in report.language_genus.items() if g not in held_set
    )
    if other_codes:
        pooled = sum(report.per_language[code] for code in other_codes) / len(other_codes)
        other_genera = sorted(
            {report.language_genus[code] for code in other_codes}
        )
        macro = sum(report.per_genus[g] for g in other_genera) / len(other_genera)
        rows.append(GenusRow("other (pooled)", pooled, len(other_codes)))
        rows.append(GenusRow("other (macro)", macro, len(other_codes)))
    rows.append(GenusRow("all (macro)", report.macro_accuracy, len(report.per_language)))
    return rows
