"""The run-manifest digests and split seeds: SHA-256 from the
interpreter's own module, equal to ``hashlib``'s, with ``hashlib`` as
the fallback where that module is missing."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import typoimpute
from typoimpute.configio import config_hash, file_digest
from typoimpute.splits import _stage_seed

# empty, one byte, one short of, at and one past the 64 KiB chunk
# ``file_digest`` reads, and larger than any benchmark input file
SIZES = (0, 1, 64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1, 2 * 1024 * 1024)


def _payloads():
    rng = random.Random(83)
    return [rng.randbytes(n) for n in SIZES]


def _mapping(data: bytes) -> dict[str, str]:
    return {"text": data.decode("latin-1"), "n": str(len(data))} if data else {}


def digests(directory: Path) -> list[list]:
    """``file_digest``, ``config_hash`` and ``_stage_seed`` of each payload."""
    out = []
    for i, data in enumerate(_payloads()):
        path = directory / f"payload{i}"
        path.write_bytes(data)
        out.append([file_digest(path), config_hash(_mapping(data)),
                    _stage_seed(i, data.decode("latin-1"))])
    return out


def _oracle() -> list[list]:
    """The same three values, each from ``hashlib.sha256``."""
    out = []
    for i, data in enumerate(_payloads()):
        items = _mapping(data)
        canon = "\n".join(f"{k}={items[k]}" for k in sorted(items))
        seed = hashlib.sha256(f"{i}:{data.decode('latin-1')}".encode("utf-8")).digest()
        out.append([hashlib.sha256(data).hexdigest(),
                    hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12],
                    int.from_bytes(seed[:8], "big")])
    return out


def test_digests_match_hashlib(tmp_path):
    assert digests(tmp_path) == _oracle()


def test_digests_unchanged_without_the_builtin_module(tmp_path):
    """With ``_sha256`` and ``_sha2`` unimportable, configio falls back
    to ``hashlib.sha256`` and every value stays the same."""
    probe = "\n".join([
        "import json, sys",
        "from pathlib import Path",
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None",
        "import hashlib",
        "from typoimpute import configio",
        "assert configio.sha256 is hashlib.sha256",
        "from test_configio import digests",
        "print(json.dumps(digests(Path(sys.argv[1]))))",
    ])
    src = str(Path(typoimpute.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                          cwd=Path(__file__).parent, check=True, capture_output=True, text=True,
                          timeout=120)
    assert json.loads(done.stdout) == _oracle()


def test_digest_hashes_a_byte_order_mark_as_bytes(tmp_path):
    """``file_digest`` hashes the bytes on disk: a leading UTF-8 BOM,
    which the dataset reader skips, still counts."""
    data = "\ufeffaaa\tA\t1.0\t2.0\tG\tF\t\tf=v\n".encode("utf-8")
    path = tmp_path / "bom.tsv"
    path.write_bytes(data)
    assert data.startswith(b"\xef\xbb\xbf")
    assert file_digest(path) == hashlib.sha256(data).hexdigest()


def test_digest_peak_memory_stays_below_256_kib(tmp_path):
    """A file is hashed in chunks, never read whole: the ``tracemalloc``
    peak of the digest of a 2 MB file stays below 256 KiB."""
    import tracemalloc

    path = tmp_path / "payload"
    path.write_bytes(_payloads()[-1])
    tracemalloc.start()
    try:
        file_digest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
