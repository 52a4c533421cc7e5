"""Output checks that decide whether a stage invocation failed.

The checks read the CLI's files with their own small TSV reader, so
they do not trust the parser they are checking.  Each check returns a
list of problems; an empty list means the stage passed.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional

__all__ = [
    "read_tsv",
    "hidden_cells",
    "check_manifest",
    "check_filled",
    "check_systems",
    "macro_by_system",
]

HIDDEN = "?"


def read_tsv(path: str | Path) -> dict[str, tuple[tuple[str, ...], dict[str, str]]]:
    """Language code -> (metadata columns, feature -> value), in file order.

    Everything after the seventh tab is one feature field, with stray
    tabs read as spaces, the same rule the data format states.
    """
    records: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if lineno == 1 and fields[2:3] and fields[2].strip().lower() in ("lat", "latitude"):
            continue
        if len(fields) < 8:
            raise ValueError(f"{path}:{lineno}: {len(fields)} fields")
        meta = (fields[0].strip(), fields[1].strip(), repr(float(fields[2])),
                repr(float(fields[3])), fields[4].strip(), fields[5].strip(),
                " ".join(fields[6].split()))
        cells: dict[str, str] = {}
        for segment in " ".join(fields[7:]).split("|"):
            if segment.strip():
                name, value = segment.split("=", 1)
                cells[name.strip()] = value.strip()
        records[meta[0]] = (meta, cells)
    return records


def hidden_cells(test: dict, gold: dict) -> int:
    """Cells hidden in ``test`` whose value ``gold`` reveals."""
    return sum(
        1
        for code, (_, cells) in test.items()
        for feature, value in cells.items()
        if value == HIDDEN and gold[code][1].get(feature, HIDDEN) != HIDDEN
    )


def check_manifest(path: Path) -> list[str]:
    if not path.is_file():
        return [f"missing manifest {path.name}"]
    if not path.read_text(encoding="utf-8").startswith("command="):
        return [f"malformed manifest {path.name}"]
    return []


def check_filled(train: dict, test: dict, filled: dict) -> list[str]:
    """An impute output against its inputs, with the fallback on.

    Every hidden cell must be filled with a value from the training
    inventory of its feature, and every other cell and column must be
    unchanged.
    """
    inventory: dict[str, set[str]] = {}
    for _, cells in train.values():
        for feature, value in cells.items():
            if value != HIDDEN:
                inventory.setdefault(feature, set()).add(value)

    problems: list[str] = []
    if list(filled) != list(test):
        problems.append("language list or order changed")
    for code, (meta, cells) in test.items():
        if code not in filled:
            continue
        out_meta, out_cells = filled[code]
        if out_meta != meta:
            problems.append(f"{code}: metadata changed")
        if set(out_cells) != set(cells):
            problems.append(f"{code}: feature set changed")
        for feature, value in cells.items():
            got = out_cells.get(feature)
            if got is None:
                continue
            if value != HIDDEN:
                if got != value:
                    problems.append(f"{code}/{feature}: observed {value!r} became {got!r}")
            elif got == HIDDEN:
                problems.append(f"{code}/{feature}: left hidden")
            elif got not in inventory.get(feature, ()):
                problems.append(f"{code}/{feature}: {got!r} outside the training inventory")
    return problems


def _systems(systems_csv: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(
        line for line in systems_csv.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ))


def macro_by_system(systems_csv: Path) -> dict[str, float]:
    return {r["system"]: float(r["macro_accuracy"]) for r in _systems(systems_csv)}


def check_systems(systems_csv: Path, methods: tuple[str, ...], n_hidden: int) -> tuple[list[str], Optional[float]]:
    """``systems.csv`` against the hidden-cell count; returns the
    problems and the mean macro accuracy over the systems."""
    rows = _systems(systems_csv)
    problems: list[str] = []
    if sorted(r["system"] for r in rows) != sorted(methods):
        problems.append(f"systems {[r['system'] for r in rows]} != {list(methods)}")
    for r in rows:
        if int(r["n_blanked"]) != n_hidden:
            problems.append(f"{r['system']}: n_blanked {r['n_blanked']} != {n_hidden} hidden cells")
        if int(r["n_missing"]) != 0:
            problems.append(f"{r['system']}: {r['n_missing']} cells missing")
    if not rows:
        return problems, None
    return problems, sum(float(r["macro_accuracy"]) for r in rows) / len(rows)
