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

Lines are split with ``str.splitlines`` and numbered from 1, and only
line 1 may be a header.  ``parse_dataset`` takes a whole text or an open
file, which it reads one line at a time, so the CLI never holds an
input's whole text.  The parser works once per line and once per
distinct feature segment, never once per cell: each file interns its raw
segments in one table, each distinct segment is split into name and
value and checked once, and the cell arrays are built by indexing that
table, already in ``Dataset`` order.  Errors are still reported at the
first faulty line in file order.

Each dataset is one integer-coded cell table, the only data model every
pipeline stage and every imputer reads: a cell is an index into its
parallel arrays, never an object of its own.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import DatasetError, ParseError

if TYPE_CHECKING:
    from .coded import CodedCounts

__all__ = [
    "DatasetError",
    "ParseError",
    "Language",
    "Dataset",
    "parse_dataset",
    "serialize_dataset",
    "write_dataset",
    "filter_dataset",
]

UNKNOWN_MARKER = "?"

# Cell states; a state's code in ``Dataset.cell_state`` is its index in STATES.
OBSERVED = "observed"
BLANKED = "blanked"
UNKNOWN = "unknown"
STATES = (OBSERVED, BLANKED, UNKNOWN)
OBSERVED_CODE, BLANKED_CODE, UNKNOWN_CODE = range(len(STATES))

# ``Dataset``'s parallel per-cell arrays.
_CELL_ARRAYS = ("cell_row", "cell_feature", "cell_value", "cell_state")

# Languages per block of ``serialize_dataset`` and ``write_dataset``.
_SERIALIZE_BLOCK = 64

# Recognized header spellings for the latitude/longitude columns; a first
# line whose 3rd/4th fields match is treated as a header and skipped.
_LAT_HEADERS = {"lat", "latitude"}
_LON_HEADERS = {"long", "lon", "longitude"}


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


def intern_names(names: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct names ``codes`` use, sorted, and ``codes`` renumbered
    into them; ``names`` may repeat a name, and -1 (no name) stays -1."""
    used = np.zeros(len(names) + 1, dtype=bool)
    used[codes] = True  # -1 marks the spare last slot
    kept = sorted({names[i] for i in np.flatnonzero(used[:-1]).tolist()})
    index = {name: i for i, name in enumerate(kept)}
    renumber = np.array([index.get(name, -1) for name in names] + [-1], dtype=np.intp)
    return kept, renumber[codes]


@dataclass(eq=False)
class Dataset:
    """Languages plus a sparse (language, feature) cell table, coded as
    integers: one entry per cell in each of ``cell_row`` (index into
    ``languages``), ``cell_feature`` (into ``feature_names``),
    ``cell_value`` (into ``value_names``; -1 for an unknown cell, while a
    blanked cell holds its gold value) and ``cell_state`` (into
    ``STATES``).  Construction keeps exactly the names some cell uses,
    sorted, so codes order like names, orders cells by row, then
    feature, and maps each code to its row in ``rows``.

    Treated as immutable after construction; all pipeline operations
    build new datasets rather than mutating.  ``counts`` is therefore
    built once, on first use, and shared by every imputer fitted on the
    dataset.
    """

    languages: list[Language]
    feature_names: list[str]
    value_names: list[str]
    cell_row: np.ndarray
    cell_feature: np.ndarray
    cell_value: np.ndarray
    cell_state: np.ndarray

    def __post_init__(self):
        self.rows: dict[str, int] = {}
        for i, lang in enumerate(self.languages):
            if lang.code in self.rows:
                raise DatasetError(f"duplicate language code {lang.code!r}")
            self.rows[lang.code] = i
        self.feature_names, self.cell_feature = intern_names(self.feature_names, self.cell_feature)
        self.value_names, self.cell_value = intern_names(self.value_names, self.cell_value)
        key = self.cell_row * len(self.feature_names) + self.cell_feature
        if (key[1:] <= key[:-1]).any():
            order = np.argsort(key, kind="stable")
            for name in _CELL_ARRAYS:
                setattr(self, name, getattr(self, name)[order])

    @cached_property
    def counts(self) -> CodedCounts:
        """Integer tables of the observed cells."""
        from .coded import CodedCounts  # coded reads this module's state codes
        return CodedCounts([self])

    @cached_property
    def bounds(self) -> np.ndarray:
        """Row i's cells are ``cell_*[bounds[i]:bounds[i + 1]]``."""
        return np.searchsorted(self.cell_row, np.arange(len(self.languages) + 1))

    def codes(self) -> list[str]:
        return [lang.code for lang in self.languages]

    def features(self) -> list[str]:
        """Names of the features some cell has, sorted."""
        return list(self.feature_names)

    # ``bench/tests`` lists the feature names as ``catalog.features()``.
    catalog = property(lambda self: self)
    # ``bench/trace_child.py`` counts parsed cells as ``len(result.cells)``.
    cells = property(lambda self: self.cell_row)

    def _take(self, keep_rows: np.ndarray, keep_cells: np.ndarray) -> "Dataset":
        """The languages of ``keep_rows``, order kept, with those of their
        cells that ``keep_cells`` marks."""
        cells = keep_cells & keep_rows[self.cell_row]
        languages = [lang for lang, keep in zip(self.languages, keep_rows.tolist()) if keep]
        return Dataset(languages, self.feature_names, self.value_names,
                       (np.cumsum(keep_rows) - 1)[self.cell_row[cells]],
                       self.cell_feature[cells], self.cell_value[cells], self.cell_state[cells])

    def subset(self, codes: Iterable[str]) -> "Dataset":
        """New dataset restricted to ``codes``, original order kept."""
        keep = set(codes)
        keep_rows = np.array([lang.code in keep for lang in self.languages], dtype=bool)
        return self._take(keep_rows, np.ones(len(self.cell_row), dtype=bool))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.languages == other.languages and self.feature_names == other.feature_names
                and self.value_names == other.value_names
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _CELL_ARRAYS))


def locate_cells(d: Dataset, codes: list[str], features: list[str],
                 row: np.ndarray, feature: np.ndarray) -> np.ndarray:
    """Index of the cell of ``d`` at each (codes[row], features[feature]),
    or -1 where ``d`` has no such cell."""
    index = {name: i for i, name in enumerate(d.feature_names)}
    d_row = np.array([d.rows.get(code, -1) for code in codes], dtype=np.intp)[row]
    d_feature = np.array([index.get(name, -1) for name in features], dtype=np.intp)[feature]
    width = len(d.feature_names)
    # Cells are ordered by (row, feature), so their keys increase.
    keys = d.cell_row * width + d.cell_feature
    wanted = d_row * width + d_feature
    at = np.searchsorted(keys, wanted)
    found = (d_row >= 0) & (d_feature >= 0) & (at < len(keys))
    found[found] = keys[at[found]] == wanted[found]
    return np.where(found, at, -1)


def _is_header(fields: list[str]) -> bool:
    if len(fields) < 7:
        return False
    return (
        fields[2].strip().lower() in _LAT_HEADERS
        and fields[3].strip().lower() in _LON_HEADERS
    )


def parse_dataset(text: str | Iterable[str], gold: Dataset | None = None) -> Dataset:
    """Parse tab-separated records into a Dataset.

    ``text`` is the whole text or an iterable of its lines, such as an
    open file, read one at a time.  Each string is split again with
    ``str.splitlines``, so a file's lines and their numbers are exactly
    those of its text's ``splitlines()``, whatever line separators the
    file's own newline handling leaves in them.

    Columns 1-7 are positional; every remaining field belongs to the
    feature list and is re-joined with a single space, so tabs inside
    feature values do not shift columns.  Its segments are separated by
    ``|``; each splits on its first ``=`` (names never contain ``=``,
    values may), and whitespace-only segments are ignored.  A ``?``
    value produces an unknown cell, or a blanked cell carrying the gold
    value when ``gold`` observes that same cell.

    Raises ParseError with the line number of the first malformed record
    or segment in file order, and DatasetError for duplicate language
    codes.
    """
    languages: list[Language] = []
    rows: dict[str, int] = {}
    linenos: list[int] = []
    # Each distinct raw segment of the file is coded once; cells hold codes.
    segments: defaultdict[str, int] = defaultdict(count().__next__)
    cell_segments = array("q")
    row_sizes = array("q")
    fault: DatasetError | None = None
    source = (text,) if isinstance(text, str) else text
    try:
        for lineno, line in enumerate(chain.from_iterable(map(str.splitlines, source)), start=1):
            if not line.strip():
                continue
            fields = line.split("\t", 7)
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
            if code in rows:
                raise DatasetError(f"duplicate language code {code!r} (line {lineno})")
            rows[code] = len(languages)
            languages.append(language)
            linenos.append(lineno)
            parts = fields[7].replace("\t", " ").split("|")
            cell_segments.extend(map(segments.__getitem__, parts))
            row_sizes.append(len(parts))
    except DatasetError as exc:
        # Raised once the segments of the lines before it are checked.
        fault = exc
    # The caller's text is passed on, not kept: each intermediate is
    # dropped as soon as the next step no longer reads it.
    del text, source

    # Per distinct segment: feature and value codes; feature -1 marks a
    # whitespace-only segment and -2 a malformed one.
    features: dict[str, int] = {}
    values: dict[str, int] = {}
    malformed: dict[int, str] = {}
    segment_feature = np.empty(len(segments), dtype=np.intp)
    segment_value = np.empty(len(segments), dtype=np.intp)
    for i, raw in enumerate(segments):
        segment = raw.strip()
        name, eq, value = segment.partition("=")
        name = name.strip()
        value = value.strip()
        if not segment:
            segment_feature[i] = -1
        elif not eq or not name:
            segment_feature[i] = -2
            malformed[i] = (f"feature segment without '=': {segment!r}" if not eq
                            else f"feature segment with empty name: {segment!r}")
        else:
            segment_feature[i] = features.setdefault(name, len(features))
            segment_value[i] = -1 if value == UNKNOWN_MARKER else values.setdefault(value, len(values))
    del segments

    # Feature codes in name order: cells sorted by (row, feature) code are
    # then in ``Dataset`` order, which construction need not redo.
    names = sorted(features)
    rank = np.empty(len(names), dtype=np.intp)
    rank[[features[name] for name in names]] = np.arange(len(names))
    named = segment_feature >= 0
    segment_feature[named] = rank[segment_feature[named]]

    # Each per-cell array is dropped as soon as the next step no longer reads it.
    segment = np.frombuffer(cell_segments, dtype=np.int64)
    sizes = np.frombuffer(row_sizes, dtype=np.int64)
    feature = segment_feature[segment]
    faulty = feature == -2
    kept = np.flatnonzero(feature >= 0)
    key = np.repeat(np.arange(len(sizes)), sizes)[kept]
    key *= len(names)
    key += feature[kept]
    del feature
    order = np.argsort(key, kind="stable")
    key = key[order]
    # A cell repeating an earlier cell's feature on its line is faulty.
    faulty[kept[order[1:][key[1:] == key[:-1]]]] = True
    if faulty.any():
        row = np.repeat(np.arange(len(sizes)), sizes)
        feature = segment_feature[segment]
        r = int(row[np.argmax(faulty)])
        # On the first faulty line, a malformed segment is reported before
        # a repeated feature.
        cells = np.flatnonzero(faulty & (row == r))
        first = int(cells[np.argmax(feature[cells] == -2)])
        raise ParseError(linenos[r], malformed.get(int(segment[first])) or (
            f"duplicate feature {names[feature[first]]!r} "
            f"for language {languages[r].code!r}"))
    if fault is not None:
        raise fault

    del faulty, sizes, row_sizes
    cells = kept[order]
    del kept, order
    value = segment_value[segment[cells]]
    del segment, cell_segments, cells, segment_feature, segment_value
    row, feature = np.divmod(key, max(len(names), 1))
    del key
    state = np.where(value < 0, UNKNOWN_CODE, OBSERVED_CODE).astype(np.int8)
    value_names = list(values)
    if gold is not None:
        at = locate_cells(gold, list(rows), names, row, feature)
        hidden = (value < 0) & (at >= 0)
        hidden[hidden] = gold.cell_state[at[hidden]] == OBSERVED_CODE
        state[hidden] = BLANKED_CODE
        # Gold value codes follow this file's own value names.
        value[hidden] = len(value_names) + gold.cell_value[at[hidden]]
        value_names += gold.value_names
    return Dataset(languages, names, value_names, row, feature, value, state)


def _serialized_blocks(d: Dataset, reveal_blanked: bool) -> Iterator[str]:
    """The text of ``d`` as ``serialize_dataset`` writes it, one block of
    ``_SERIALIZE_BLOCK`` languages at a time."""
    # A hidden cell reads the marker after the value names.
    names = d.value_names + [UNKNOWN_MARKER]
    prefixes = [f"{feature}=" for feature in d.feature_names]
    bounds = d.bounds.tolist()
    for lo in range(0, len(d.languages), _SERIALIZE_BLOCK):
        hi = min(lo + _SERIALIZE_BLOCK, len(d.languages))
        first, last = bounds[lo], bounds[hi]
        state = d.cell_state[first:last]
        shown = state == OBSERVED_CODE
        if reveal_blanked:
            shown |= state == BLANKED_CODE
        value = np.where(shown, d.cell_value[first:last], len(d.value_names))
        parts = [prefixes[f] + names[v] for f, v in
                 zip(d.cell_feature[first:last].tolist(), value.tolist())]
        # str() round-trips floats exactly.
        lines = [
            "\t".join([lang.code, lang.name, str(lang.latitude), str(lang.longitude), lang.genus,
                       lang.family, " ".join(lang.country_codes),
                       " | ".join(parts[start - first:end - first])])
            for lang, start, end in zip(d.languages[lo:hi], bounds[lo:hi], bounds[lo + 1:hi + 1])
        ]
        block = "\n".join(lines + [""])
        # Only the block itself lives across the yield, and only until
        # the caller has written it.
        del parts, lines
        yield block
        del block


def serialize_dataset(d: Dataset, reveal_blanked: bool = False) -> str:
    """Serialize a dataset back to the 8-column tab-separated format.

    Features are emitted in lexicographic order.  Observed cells carry
    their value; blanked and unknown cells carry ``?`` unless, for
    blanked cells, ``reveal_blanked`` is set (used to write gold
    companion files).  A filled dataset (``fill_dataset``) holds its
    answers as observed cells.
    """
    return "".join(_serialized_blocks(d, reveal_blanked))


def write_dataset(path: str | Path, d: Dataset, reveal_blanked: bool = False) -> None:
    """Write ``serialize_dataset(d, reveal_blanked)`` to ``path`` as UTF-8,
    one block of languages at a time, never the whole text."""
    with open(path, "w", encoding="utf-8") as handle:
        # writelines drops each block before it asks for the next
        handle.writelines(_serialized_blocks(d, reveal_blanked))


def filter_dataset(
    d: Dataset,
    min_feats_per_lang: int = 4,
    min_langs_per_feat: int = 10,
) -> Dataset:
    """Drop sparse languages and rare features, iterating to a fixed point.

    Languages with fewer than ``min_feats_per_lang`` observed features
    are removed first, then features observed in fewer than
    ``min_langs_per_feat`` of the remaining languages; removal repeats
    until neither rule fires.  Features never observed count zero
    languages.  The result may be empty.
    """
    observed = d.cell_state == OBSERVED_CODE
    row, feature = d.cell_row[observed], d.cell_feature[observed]
    keep_rows = np.ones(len(d.languages), dtype=bool)
    keep_features = np.ones(len(d.feature_names), dtype=bool)
    while True:
        per_row = np.bincount(row[keep_features[feature]], minlength=len(keep_rows))
        drop_rows = keep_rows & (per_row < min_feats_per_lang)
        keep_rows &= ~drop_rows
        per_feature = np.bincount(feature[keep_rows[row]], minlength=len(keep_features))
        drop_features = keep_features & (per_feature < min_langs_per_feat)
        keep_features &= ~drop_features
        if not drop_rows.any() and not drop_features.any():
            break
    return d._take(keep_rows, keep_features[d.cell_feature])
