"""Data model and tab-separated I/O for WALS-style language datasets.

A dataset file is newline-delimited UTF-8 with 8 logical tab-separated
columns per record: language code, name, latitude, longitude, genus,
family, country codes, and a feature list.  The feature list joins
``name=value`` pairs with `` | ``.  A value of ``?`` marks a cell whose
value is unknown (or hidden for evaluation when a gold companion file is
supplied).

Real-world files of this format are known to carry stray tab characters
inside feature values, so everything after the seventh column is treated
as one logical field: the extra tabs are normalized to single spaces
instead of shifting columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .coded import CodedCounts

__all__ = [
    "DatasetError",
    "ParseError",
    "Language",
    "Cell",
    "FeatureCatalog",
    "Dataset",
    "parse_dataset",
    "serialize_dataset",
    "filter_dataset",
]

UNKNOWN_MARKER = "?"

# Cell states
OBSERVED = "observed"
BLANKED = "blanked"
UNKNOWN = "unknown"

# Recognized header spellings for the latitude/longitude columns; a first
# line whose 3rd/4th fields match is treated as a header and skipped.
_LAT_HEADERS = {"lat", "latitude"}
_LON_HEADERS = {"long", "lon", "longitude"}


class DatasetError(Exception):
    """A dataset violates a structural constraint."""


class ParseError(DatasetError):
    """A record could not be parsed; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Language:
    """Per-language metadata: identity, geography, and phylogeny."""

    code: str
    name: str
    latitude: float
    longitude: float
    genus: str
    family: str
    country_codes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.code:
            raise DatasetError("language code must be nonempty")
        if not -90.0 <= self.latitude <= 90.0:
            raise DatasetError(f"{self.code}: latitude {self.latitude} out of range")
        if not -180.0 <= self.longitude <= 180.0:
            raise DatasetError(f"{self.code}: longitude {self.longitude} out of range")


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
        return cls(OBSERVED, value)

    @classmethod
    def blanked(cls, gold: str) -> "Cell":
        return cls(BLANKED, gold)

    @classmethod
    def unknown(cls) -> "Cell":
        return cls(UNKNOWN, None)


class FeatureCatalog:
    """Every known feature with its value inventory and training counts.

    The inventory of a feature is the lexicographically sorted list of
    values observed in the backing dataset; counts record how often each
    value was observed.  Features that occur only as unknown cells are
    listed with an empty inventory.
    """

    def __init__(self, entries: Mapping[str, Counter] | None = None):
        self._counts: dict[str, Counter] = {f: Counter(c) for f, c in (entries or {}).items()}

    @classmethod
    def from_cells(cls, cells: Mapping[tuple[str, str], Cell]) -> "FeatureCatalog":
        counts: dict[str, Counter] = {}
        for (_, feature), cell in cells.items():
            bucket = counts.setdefault(feature, Counter())
            if cell.state == OBSERVED:
                bucket[cell.value] += 1
        return cls(counts)

    def features(self) -> list[str]:
        return sorted(self._counts)

    def __contains__(self, feature: str) -> bool:
        return feature in self._counts

    def values(self, feature: str) -> tuple[str, ...]:
        """Lexicographically ordered value inventory of ``feature``."""
        return tuple(sorted(self._counts[feature]))

    def counts(self, feature: str) -> Counter:
        return Counter(self._counts[feature])

    def count(self, feature: str, value: str) -> int:
        return self._counts[feature][value]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureCatalog):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"FeatureCatalog({len(self._counts)} features)"


@dataclass
class Dataset:
    """Languages plus a sparse (language, feature) cell matrix.

    Treated as immutable after construction; all pipeline operations
    build new datasets rather than mutating.  ``counts`` is therefore
    built once, on first use, and shared by every imputer fitted on the
    dataset.
    """

    languages: list[Language]
    cells: dict[tuple[str, str], Cell]
    catalog: FeatureCatalog = field(default_factory=FeatureCatalog)
    _by_language: dict[str, dict[str, Cell]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        codes = set()
        for lang in self.languages:
            if lang.code in codes:
                raise DatasetError(f"duplicate language code {lang.code!r}")
            codes.add(lang.code)
            self._by_language[lang.code] = {}
        for (code, feature), cell in self.cells.items():
            if code not in codes:
                raise DatasetError(f"cell references unknown language {code!r}")
            if feature not in self.catalog:
                raise DatasetError(f"cell references unknown feature {feature!r}")
            self._by_language[code][feature] = cell

    @classmethod
    def build(cls, languages: Iterable[Language], cells: Mapping[tuple[str, str], Cell]) -> "Dataset":
        """Construct a dataset, deriving the catalog from the cells."""
        cells = dict(cells)
        return cls(list(languages), cells, FeatureCatalog.from_cells(cells))

    @cached_property
    def counts(self) -> CodedCounts:
        """Integer tables of the observed cells."""
        return CodedCounts([self])

    def language(self, code: str) -> Language:
        for lang in self.languages:
            if lang.code == code:
                return lang
        raise KeyError(code)

    def codes(self) -> list[str]:
        return [lang.code for lang in self.languages]

    def features_of(self, code: str) -> list[str]:
        """Feature names of all cells of a language, sorted."""
        return sorted(self._by_language.get(code, {}))

    def cells_of(self, code: str) -> dict[str, Cell]:
        return dict(self._by_language.get(code, {}))

    def observed_of(self, code: str) -> dict[str, str]:
        """Mapping feature -> value over the observed cells of a language."""
        return {
            f: cell.value
            for f, cell in self._by_language.get(code, {}).items()
            if cell.state == OBSERVED
        }

    def blanked_of(self, code: str) -> dict[str, str]:
        """Mapping feature -> gold value over the blanked cells of a language."""
        return {
            f: cell.value
            for f, cell in self._by_language.get(code, {}).items()
            if cell.state == BLANKED
        }

    def n_observed(self, code: str) -> int:
        return sum(
            1 for cell in self._by_language.get(code, {}).values() if cell.state == OBSERVED
        )

    def subset(self, codes: Iterable[str]) -> "Dataset":
        """New dataset restricted to ``codes``, original order kept."""
        keep = set(codes)
        languages = [lang for lang in self.languages if lang.code in keep]
        cells = {key: cell for key, cell in self.cells.items() if key[0] in keep}
        return Dataset.build(languages, cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.languages == other.languages
            and self.cells == other.cells
            and self.catalog == other.catalog
        )


def canonical_value(text: str) -> str:
    """Normalize a feature value the way the parser would: tabs become
    single spaces and surrounding whitespace is trimmed."""
    return text.replace("\t", " ").strip()


def _parse_feature_field(raw: str, lineno: int) -> list[tuple[str, str]]:
    """Split a raw feature field into (name, value) pairs.

    ``raw`` has already had stray tabs normalized to spaces.  Segments
    are separated by ``|``; each splits on its first ``=`` (names never
    contain ``=``, values may).  Whitespace-only segments are ignored so
    that an empty field yields no cells.
    """
    pairs = []
    for segment in raw.split("|"):
        segment = segment.strip()
        if not segment:
            continue
        if "=" not in segment:
            raise ParseError(lineno, f"feature segment without '=': {segment!r}")
        name, value = segment.split("=", 1)
        name = name.strip()
        value = value.strip()
        if not name:
            raise ParseError(lineno, f"feature segment with empty name: {segment!r}")
        pairs.append((name, value))
    return pairs


def _is_header(fields: list[str]) -> bool:
    if len(fields) < 7:
        return False
    return (
        fields[2].strip().lower() in _LAT_HEADERS
        and fields[3].strip().lower() in _LON_HEADERS
    )


def parse_dataset(text: str, gold: Dataset | None = None) -> Dataset:
    """Parse tab-separated records into a Dataset.

    Columns 1-7 are positional; every remaining field belongs to the
    feature list and is re-joined with a single space, so tabs inside
    feature values do not shift columns.  A ``?`` value produces an
    unknown cell, or a blanked cell carrying the gold value when
    ``gold`` observes that same cell.

    Raises ParseError with the offending line number for malformed
    records, and DatasetError for duplicate language codes.
    """
    languages: list[Language] = []
    cells: dict[tuple[str, str], Cell] = {}
    seen: set[str] = set()

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if lineno == 1 and _is_header(fields):
            continue
        if len(fields) < 8:
            raise ParseError(lineno, f"expected >= 8 tab-separated fields, got {len(fields)}")
        code = fields[0].strip()
        try:
            latitude = float(fields[2])
            longitude = float(fields[3])
        except ValueError:
            raise ParseError(lineno, f"malformed coordinate: {fields[2]!r}, {fields[3]!r}") from None
        try:
            language = Language(
                code=code,
                name=fields[1].strip(),
                latitude=latitude,
                longitude=longitude,
                genus=fields[4].strip(),
                family=fields[5].strip(),
                country_codes=tuple(fields[6].split()),
            )
        except DatasetError as exc:
            raise ParseError(lineno, str(exc)) from None
        if code in seen:
            raise DatasetError(f"duplicate language code {code!r} (line {lineno})")
        seen.add(code)
        languages.append(language)

        feature_field = " ".join(fields[7:])
        for name, value in _parse_feature_field(feature_field, lineno):
            key = (code, name)
            if key in cells:
                raise ParseError(lineno, f"duplicate feature {name!r} for language {code!r}")
            if value == UNKNOWN_MARKER:
                gold_cell = gold.cells.get(key) if gold is not None else None
                if gold_cell is not None and gold_cell.state == OBSERVED:
                    cells[key] = Cell.blanked(gold_cell.value)
                else:
                    cells[key] = Cell.unknown()
            else:
                cells[key] = Cell.observed(value)

    return Dataset.build(languages, cells)


def _format_float(x: float) -> str:
    # str() round-trips floats exactly in Python 3.
    return str(x)


def serialize_dataset(
    d: Dataset,
    fill: Mapping[tuple[str, str], str] | None = None,
    reveal_blanked: bool = False,
) -> str:
    """Serialize a dataset back to the 8-column tab-separated format.

    Features are emitted in catalog-lexicographic order.  Observed cells
    carry their value; blanked and unknown cells carry ``?`` unless they
    are covered by ``fill`` (predictions) or, for blanked cells,
    ``reveal_blanked`` is set (used to write gold companion files).
    """
    fill = dict(fill) if fill else {}
    for key in fill:
        cell = d.cells.get(key)
        if cell is None:
            raise DatasetError(f"fill references nonexistent cell {key!r}")
        if cell.state == OBSERVED:
            raise DatasetError(f"fill references observed cell {key!r}")

    lines = []
    for lang in d.languages:
        parts = []
        for feature in d.features_of(lang.code):
            cell = d.cells[(lang.code, feature)]
            if cell.state == OBSERVED:
                value = cell.value
            elif (lang.code, feature) in fill:
                value = fill[(lang.code, feature)]
            elif cell.state == BLANKED and reveal_blanked:
                value = cell.value
            else:
                value = UNKNOWN_MARKER
            parts.append(f"{feature}={value}")
        lines.append(
            "\t".join(
                [
                    lang.code,
                    lang.name,
                    _format_float(lang.latitude),
                    _format_float(lang.longitude),
                    lang.genus,
                    lang.family,
                    " ".join(lang.country_codes),
                    " | ".join(parts),
                ]
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def filter_dataset(
    d: Dataset,
    min_feats_per_lang: int = 4,
    min_langs_per_feat: int = 10,
) -> Dataset:
    """Drop sparse languages and rare features, iterating to a fixed point.

    Languages with fewer than ``min_feats_per_lang`` observed features
    are removed first, then features observed in fewer than
    ``min_langs_per_feat`` of the remaining languages; removal repeats
    until neither rule fires.  The result may be empty.
    """
    lang_codes = [lang.code for lang in d.languages]
    observed: dict[str, set[str]] = {c: set() for c in lang_codes}
    feature_langs: dict[str, set[str]] = {}
    for (code, feature), cell in d.cells.items():
        if cell.state == OBSERVED:
            observed[code].add(feature)
            feature_langs.setdefault(feature, set()).add(code)
    # Features never observed still exist in the matrix as unknown cells.
    for (_, feature) in d.cells:
        feature_langs.setdefault(feature, set())

    keep_langs = set(lang_codes)
    keep_feats = set(feature_langs)
    while True:
        drop_langs = {
            c for c in keep_langs if len(observed[c] & keep_feats) < min_feats_per_lang
        }
        keep_langs -= drop_langs
        drop_feats = {
            f for f in keep_feats if len(feature_langs[f] & keep_langs) < min_langs_per_feat
        }
        keep_feats -= drop_feats
        if not drop_langs and not drop_feats:
            break

    languages = [lang for lang in d.languages if lang.code in keep_langs]
    cells = {
        (code, feature): cell
        for (code, feature), cell in d.cells.items()
        if code in keep_langs and feature in keep_feats
    }
    return Dataset.build(languages, cells)
