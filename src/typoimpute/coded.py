"""Integer-coded counts over the observed cells of one or more datasets.

Every counting imputer (frequency, the genus/family and geographic
back-offs, knn, correlation, ridge) reads these tables: a language x
(feature, value) one-hot, a language x feature observation mask, their
products, column totals, and one-hot counts grouped by genus or family.
Columns are ordered by (feature, value), so the columns of one feature
are contiguous and its values sorted.  Counts stay integers, so no
result depends on how a BLAS library orders its sums.  The tables of one
training set are built once, as ``Dataset.counts``, and shared by every
imputer fitted on it; they hold no per-query state.  ``encode`` maps the
observed cells of a test set into the same columns, once per prediction
call.

Each table is held at the width its values need:

* ``onehot``, ``seen`` and both arrays ``encode`` returns are ``bool``;
* ``GroupCounts.table`` is ``int32``;
* ``joint``, ``support``, ``marginal`` and ``totals`` are ``int64``.

A ``bool`` table meets arithmetic only through ``count_matmul`` or with
an integer operand (``table - own`` is int32 minus bool, which is
exact); ``bool - bool`` raises rather than wrapping.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .geo import coordinates
from .kb import OBSERVED_CODE, Dataset, Language, intern_names

__all__ = ["CodedCounts", "GroupCounts", "count_matmul"]


# One-hot cells per block of the group-count build.
_GROUP_BLOCK = 2**16


def count_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of 0/1 count matrices; float sums of small integers are
    exact in any order, so the result does not depend on BLAS threads.
    A table times its own transpose is cast once, and BLAS forms the
    product as a symmetric rank-k update."""
    fa = a.astype(float)
    own_transpose = (a.shape == b.shape[::-1] and a.strides == b.strides[::-1]
                     and a.ctypes.data == b.ctypes.data)
    return (fa @ (fa.T if own_transpose else b.astype(float))).astype(np.int64)


class CodedCounts:
    """Observed cells of ``sources`` as integer tables, read from their
    coded cell tables.

    A language code seen in an earlier source keeps its first row.
    ``columns`` maps feature -> value -> one-hot column over every value
    any of these languages observes.
    """

    def __init__(self, sources: Sequence[Dataset]):
        self.languages: list[Language] = []
        self.rows: dict[str, int] = {}
        pairs: list[tuple[str, str]] = []  # (feature, value) of each pair code
        rows, columns = [], []
        for d in sources:
            row = np.full(len(d.languages), -1, dtype=np.intp)
            for i, lang in enumerate(d.languages):
                if lang.code not in self.rows:
                    row[i] = self.rows[lang.code] = len(self.languages)
                    self.languages.append(lang)
            keep = (row[d.cell_row] >= 0) & (d.cell_state == OBSERVED_CODE)
            width = len(d.value_names)
            codes, pair = np.unique(d.cell_feature[keep] * width + d.cell_value[keep],
                                    return_inverse=True)
            rows.append(row[d.cell_row[keep]])
            columns.append(pair + len(pairs))
            pairs += [(d.feature_names[c // width], d.value_names[c % width])
                      for c in codes.tolist()]
        pairs, column = intern_names(pairs, np.concatenate(columns))
        row = np.concatenate(rows)

        self.columns: dict[str, dict[str, int]] = {}
        for i, (feature, value) in enumerate(pairs):
            self.columns.setdefault(feature, {})[value] = i
        self.feature_index = {feature: i for i, feature in enumerate(self.columns)}
        # Feature of every column, and the first column of every feature.
        self.feature_of = np.array([self.feature_index[f] for f, _ in pairs], dtype=np.intp)
        self.starts = np.array([min(values.values()) for values in self.columns.values()],
                               dtype=np.intp)
        self.onehot = np.zeros((len(self.languages), len(pairs)), dtype=bool)
        self.onehot[row, column] = True
        self.seen = np.zeros((len(self.languages), len(self.feature_index)), dtype=bool)
        self.seen[row, self.feature_of[column]] = True

    @cached_property
    def joint(self) -> np.ndarray:
        """columns x columns: languages observing both values."""
        return count_matmul(self.onehot.T, self.onehot)

    @cached_property
    def support(self) -> np.ndarray:
        """features x features: languages observing both features."""
        return count_matmul(self.seen.T, self.seen)

    @cached_property
    def marginal(self) -> np.ndarray:
        """columns x features: languages observing the value and the feature."""
        return count_matmul(self.onehot.T, self.seen)

    @cached_property
    def totals(self) -> np.ndarray:
        """columns: languages observing each value."""
        return self.onehot.sum(axis=0)

    @cached_property
    def genus(self) -> GroupCounts:
        """One-hot counts per genus."""
        return GroupCounts([lang.genus for lang in self.languages], self.onehot)

    @cached_property
    def family(self) -> GroupCounts:
        """One-hot counts per family."""
        return GroupCounts([lang.family for lang in self.languages], self.onehot)

    @cached_property
    def code_rank(self) -> np.ndarray:
        """Each row's position among the row language codes, sorted."""
        return np.argsort(np.argsort(np.array([lang.code for lang in self.languages], dtype=str)))

    @cached_property
    def coords(self) -> np.ndarray:
        """(languages, 2) coordinates of the rows, as ``geo.coordinates``."""
        return coordinates(self.languages)

    def encode(self, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """The observed cells of ``d`` in these tables' columns: a rows x
        columns one-hot, without values no column holds, and a rows x
        features mask, without features no column holds."""
        observed = d.cell_state == OBSERVED_CODE
        rows, features = d.cell_row[observed], d.cell_feature[observed]
        width = len(d.value_names)
        codes, pair = np.unique(features * width + d.cell_value[observed], return_inverse=True)
        column = np.array([self.columns.get(d.feature_names[c // width], {})
                           .get(d.value_names[c % width], -1) for c in codes.tolist()],
                          dtype=np.intp)[pair]
        feature = np.array([self.feature_index.get(f, -1) for f in d.feature_names] + [-1],
                           dtype=np.intp)[features]
        onehot = np.zeros((len(d.languages), len(self.feature_of)), dtype=bool)
        onehot[rows[column >= 0], column[column >= 0]] = True
        seen = np.zeros((len(d.languages), len(self.starts)), dtype=bool)
        seen[rows[feature >= 0], feature[feature >= 0]] = True
        return onehot, seen


class GroupCounts:
    """One-hot counts summed per group name (genus or family).

    ``names`` gives each one-hot row's group; ``of`` holds each row's
    group index.  The int32 table has one row per group, sorted by name,
    and a last row that stays zero for names no row has.
    """

    def __init__(self, names: list[str], onehot: np.ndarray):
        self.rows = {name: i for i, name in enumerate(sorted(set(names)))}
        self.of = np.array([self.rows[name] for name in names], dtype=np.intp)
        self.table = np.zeros((len(self.rows) + 1, onehot.shape[1]), dtype=np.int32)
        # Rows sorted by group; every group has a row, so the group starts
        # reduce straight into the table.  A block of columns at a time
        # is cast to int32, never the whole one-hot.
        order = np.argsort(self.of, kind="stable")
        starts = np.flatnonzero(np.diff(self.of[order], prepend=-1))
        step = max(1, _GROUP_BLOCK // max(len(order), 1))
        for lo in range(0, onehot.shape[1], step):
            np.add.reduceat(onehot[order, lo:lo + step], starts, axis=0, dtype=np.int32,
                            out=self.table[:-1, lo:lo + step])

    def index(self, names: Iterable[str]) -> np.ndarray:
        """The table row of each name; a name no row has gets the zero
        last row."""
        return np.array([self.rows.get(name, -1) for name in names], dtype=np.intp)
