"""Seeded generators for synthetic language datasets used across tests,
a per-cell view of the coded cell table for writing them by hand,
filled copies of a gold table for scoring, a per-cell view of an
imputer's ``Answers``, and the environment of a child interpreter."""

from __future__ import annotations

import os
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

import typoimpute
from typoimpute.evaluate import SystemOutput, output_from_dataset
from typoimpute.imputers import Answers
from typoimpute.kb import OBSERVED_CODE, STATES, Dataset, DatasetError, Language, serialize_dataset

GENERA = [
    ("GenA", "FamX"),
    ("GenB", "FamX"),
    ("GenC", "FamY"),
    ("GenD", "FamY"),
    ("GenE", "FamZ"),
]


@dataclass(frozen=True)
class Cell:
    """One (language, feature) cell.

    ``state`` is one of ``observed`` (value known), ``blanked`` (value
    hidden for evaluation; ``value`` holds the gold answer), or
    ``unknown`` (no value available; ``value`` is None).
    """

    state: str
    value: Optional[str] = None

    @classmethod
    def observed(cls, value: str) -> "Cell":
        return cls("observed", value)

    @classmethod
    def blanked(cls, gold: str) -> "Cell":
        return cls("blanked", gold)

    @classmethod
    def unknown(cls) -> "Cell":
        return cls("unknown", None)


def build_dataset(languages: Iterable[Language], cells: Mapping[tuple[str, str], Cell]) -> Dataset:
    """The dataset of ``languages`` with a (code, feature) -> Cell mapping
    as its cell table."""
    languages = list(languages)
    rows = {lang.code: i for i, lang in enumerate(languages)}
    for code, _ in cells:
        if code not in rows:
            raise DatasetError(f"cell references unknown language {code!r}")
    # Each cell names its own feature and value; construction interns them.
    values = [cell.value for cell in cells.values()]
    index = np.arange(len(values))
    return Dataset(languages, [feature for _, feature in cells], values,
                   np.array([rows[code] for code, _ in cells], dtype=np.intp), index,
                   np.where([value is None for value in values], -1, index),
                   np.array([STATES.index(cell.state) for cell in cells.values()], dtype=np.int8))


def cells_of(d: Dataset) -> dict[tuple[str, str], Cell]:
    """The cell table of ``d`` as a (code, feature) -> Cell mapping, in
    table order."""
    codes = d.codes()
    values = d.value_names + [None]  # an unknown cell's -1 reads None
    cells = zip(d.cell_row.tolist(), d.cell_feature.tolist(),
                d.cell_value.tolist(), d.cell_state.tolist())
    return {(codes[r], d.feature_names[f]): Cell(STATES[s], values[v]) for r, f, v, s in cells}


def language_of(d: Dataset, code: str) -> Language:
    return d.languages[d.rows[code]]


def make_language(
    code: str,
    genus: str = "GenA",
    family: str = "FamX",
    lat: float = 0.0,
    lon: float = 0.0,
    name: str | None = None,
    countries: tuple[str, ...] = ("XX",),
) -> Language:
    return Language(
        code=code,
        name=name if name is not None else code.upper(),
        latitude=lat,
        longitude=lon,
        genus=genus,
        family=family,
        country_codes=countries,
    )


def point(lat: float, lon: float) -> SimpleNamespace:
    """A place: ``typoimpute.geo`` reads any object's ``latitude`` and ``longitude``."""
    return SimpleNamespace(latitude=lat, longitude=lon)


def feature_names(n: int) -> list[str]:
    # realistic names contain spaces and digits
    return [f"{i + 1:02d}F Feature {i + 1}" for i in range(n)]


def random_dataset(
    rng: random.Random,
    n_languages: int = 12,
    n_features: int = 6,
    n_values: int = 3,
    p_observed: float = 0.7,
    min_observed: int = 2,
    genera=GENERA,
    singleton_genera: bool = False,
) -> Dataset:
    """Random sparse dataset; every language observes >= min_observed
    features.  ``singleton_genera`` gives each language its own genus and
    family so the genetic back-off levels stay empty."""
    features = feature_names(n_features)
    languages = []
    cells = {}
    for i in range(n_languages):
        code = f"l{i:02d}"
        if singleton_genera:
            genus, family = f"Gen-{code}", f"Fam-{code}"
        else:
            genus, family = genera[rng.randrange(len(genera))]
        languages.append(
            make_language(
                code,
                genus=genus,
                family=family,
                lat=rng.uniform(-60.0, 60.0),
                lon=rng.uniform(-170.0, 170.0),
            )
        )
        chosen = [f for f in features if rng.random() < p_observed]
        missing = [f for f in features if f not in chosen]
        while len(chosen) < min(min_observed, n_features):
            chosen.append(missing.pop(rng.randrange(len(missing))))
        for feature in chosen:
            cells[(code, feature)] = Cell.observed(f"v{rng.randrange(n_values)}")
    return build_dataset(languages, cells)


def blank_some(dataset: Dataset, rng: random.Random, per_language: int = 1) -> Dataset:
    """Turn up to ``per_language`` observed cells per language into
    blanked cells carrying their gold value; languages keep at least one
    observed cell."""
    table = cells_of(dataset)
    cells = dict(table)
    for lang in dataset.languages:
        observed = sorted(
            f for (c, f), cell in table.items()
            if c == lang.code and cell.state == "observed"
        )
        if len(observed) < 2:
            continue
        n = min(per_language, len(observed) - 1)
        for feature in rng.sample(observed, n):
            cells[(lang.code, feature)] = Cell.blanked(cells[(lang.code, feature)].value)
    return build_dataset(dataset.languages, cells)


def fill(gold: Dataset, answers: Mapping[tuple[str, str], str]) -> Dataset:
    """``gold`` as a system fills it: the value of each (code, feature) of
    ``answers`` observed, and every other hidden cell unknown.  An answer
    may name an observed cell, or a language or a feature ``gold`` lacks."""
    cells = {key: cell if cell.state == "observed" else Cell.unknown()
             for key, cell in cells_of(gold).items()}
    cells.update((key, Cell.observed(value)) for key, value in answers.items())
    extra = sorted({code for code, _ in answers} - set(gold.rows))
    return build_dataset(gold.languages + [make_language(code) for code in extra], cells)


def blanked_keys(gold: Dataset) -> list[tuple[str, str]]:
    """The (code, feature) of each blanked cell of ``gold``, sorted."""
    return sorted(key for key, cell in cells_of(gold).items() if cell.state == "blanked")


def fill_blanked(gold: Dataset, correct_keys, wrong_value: str = "WRONG") -> Dataset:
    """``gold`` with every blanked cell answered: with its gold value at
    the keys in ``correct_keys`` and ``wrong_value`` elsewhere."""
    return fill(gold, {key: cell.value if key in correct_keys else wrong_value
                       for key, cell in cells_of(gold).items() if cell.state == "blanked"})


def output_for(gold: Dataset, correct_keys, name: str = "sys",
               wrong_value: str = "WRONG") -> SystemOutput:
    """The answers of ``fill_blanked(gold, correct_keys, wrong_value)``,
    read against ``gold`` as ``evaluate`` reads a system file."""
    return output_from_dataset(name, fill_blanked(gold, correct_keys, wrong_value), gold)


def as_text(dataset: Dataset, **kwargs) -> str:
    return serialize_dataset(dataset, **kwargs)


def observed_of(dataset: Dataset, code: str) -> dict[str, str]:
    """feature -> value over the observed cells of one language."""
    row = dataset.rows[code]
    lo, hi = dataset.bounds[row], dataset.bounds[row + 1]
    return {dataset.feature_names[f]: dataset.value_names[v] for f, v, s in zip(
        dataset.cell_feature[lo:hi].tolist(), dataset.cell_value[lo:hi].tolist(),
        dataset.cell_state[lo:hi].tolist()) if s == OBSERVED_CODE}


class Answer(NamedTuple):
    """One answered cell, as ``answer_map`` reads it from an ``Answers``."""

    value: str
    confidence: float
    source: str


def answer_map(answers: Answers) -> dict[int, Answer]:
    """Cell index -> Answer of every answer of ``answers``, in its order;
    a cell answered twice keeps its last answer."""
    return {cell: Answer(answers.names[v], c, answers.labels[s]) for cell, v, c, s in zip(
        answers.cell.tolist(), answers.value.tolist(), answers.confidence.tolist(),
        answers.source.tolist())}


def answers_of(mapping: Mapping[int, tuple[str, float, str]]) -> Answers:
    """The ``Answers`` of cell index -> (value, confidence, source), in
    the mapping's order: what a hand-written imputer returns."""
    cells = np.array(list(mapping), dtype=np.intp)
    index = np.arange(len(cells))
    return Answers(cells, index, np.array([a[1] for a in mapping.values()], dtype=float), index,
                   tuple(a[0] for a in mapping.values()), tuple(a[2] for a in mapping.values()))


def predictions_of(imputer, test: Dataset) -> dict:
    """The fitted imputer's answers for the hidden cells of ``test``,
    from one ``predict`` call, keyed by (code, feature) in table order."""
    answers = answer_map(imputer.predict(test, np.flatnonzero(test.cell_state != OBSERVED_CODE)))
    codes = test.codes()
    return {(codes[test.cell_row[c]], test.feature_names[test.cell_feature[c]]): p
            for c, p in sorted(answers.items())}


def predict_one(imputer, language: Language, observed: dict[str, str], target: str):
    """The fitted imputer's Answer for one cell, or None: a test set of
    ``language`` alone, observing ``observed`` with ``target`` hidden,
    asked about its one hidden cell."""
    if target in observed:
        raise ValueError(f"target {target!r} is already observed")
    cells = {(language.code, feature): Cell.observed(value) for feature, value in observed.items()}
    cells[(language.code, target)] = Cell.unknown()
    test = build_dataset([language], cells)
    hidden = np.flatnonzero(test.cell_state != OBSERVED_CODE)
    return answer_map(imputer.predict(test, hidden)).get(int(hidden[0]))


def child_env(threads: Optional[str] = None) -> dict[str, str]:
    """The environment of a child interpreter that imports this
    checkout's ``typoimpute``, with BLAS on ``threads`` threads if given."""
    src = str(Path(typoimpute.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    if threads is not None:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 threads))
    return env
