"""Plain-text key=value configuration files and run-manifest helpers."""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Mapping

# The interpreter's own SHA-256, as random.py takes its SHA-512: hashlib
# maps OpenSSL's libcrypto, about 3.5 MB of every stage's peak RSS.
try:
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

__all__ = ["ConfigError", "parse_kv", "read_kv", "write_kv", "config_hash", "file_digest"]


class ConfigError(Exception):
    """A configuration file or value is invalid."""


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments are skipped."""
    result: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in result:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        result[key] = value.strip()
    return result


def read_kv(path: str | Path) -> dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="utf-8-sig"))


def write_kv(path: str | Path, items: Mapping[str, object]) -> None:
    lines = [f"{k}={v}" for k, v in items.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_hash(items: Mapping[str, object]) -> str:
    """Short stable hash of a configuration mapping (sorted key=value)."""
    canon = "\n".join(f"{k}={items[k]}" for k in sorted(items))
    return sha256(canon.encode("utf-8")).hexdigest()[:12]


def file_digest(path: str | Path) -> str:
    """SHA-256 of a file's bytes, read 64 KiB at a time, so memory stays
    the same whatever the file's size."""
    digest = sha256()
    with open(path, "rb") as handle:
        for chunk in iter(partial(handle.read, 1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
