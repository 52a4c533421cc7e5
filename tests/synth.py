"""Seeded generators for synthetic language datasets used across tests,
and a per-cell view of the coded cell table for writing them by hand."""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

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


def as_text(dataset: Dataset, **kwargs) -> str:
    return serialize_dataset(dataset, **kwargs)


def observed_of(dataset: Dataset, code: str) -> dict[str, str]:
    """feature -> value over the observed cells of one language."""
    row = dataset.rows[code]
    lo, hi = dataset.bounds[row], dataset.bounds[row + 1]
    return {dataset.feature_names[f]: dataset.value_names[v] for f, v, s in zip(
        dataset.cell_feature[lo:hi].tolist(), dataset.cell_value[lo:hi].tolist(),
        dataset.cell_state[lo:hi].tolist()) if s == OBSERVED_CODE}


def predict_one(imputer, language: Language, observed: dict[str, str], target: str):
    """The fitted imputer's prediction for one cell, or None: a test set
    of ``language`` alone, observing ``observed`` with ``target`` hidden,
    filled through ``fill_dataset``."""
    from typoimpute.imputers import fill_dataset

    if target in observed:
        raise ValueError(f"target {target!r} is already observed")
    cells = {(language.code, feature): Cell.observed(value) for feature, value in observed.items()}
    cells[(language.code, target)] = Cell.unknown()
    test = build_dataset([language], cells)
    return fill_dataset(imputer, test).get((language.code, target))
