"""A small checksummed container for named float/int arrays plus JSON metadata.

The byte layout is fixed (magic, header length, JSON header, raw array
bytes, sha256 trailer), writes are fully deterministic for identical
content and atomic (a sibling temp file is renamed onto the target), and
round trips are bit-exact. Any corruption, truncation or
version mismatch surfaces as :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import CheckpointError

_MAGIC = b"DLBUNDLE1\n"
FORMAT_VERSION = 1


def save_bundle(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` (order-preserving) and ``meta`` to ``path``.

    The write is atomic (see :func:`write_atomic`).
    """
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        entries.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "kind": kind, "meta": meta, "arrays": entries},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    body = _MAGIC + len(header).to_bytes(8, "big") + header + b"".join(blobs)
    write_atomic(path, body + hashlib.sha256(body).digest())


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path`` that then replaces it.

    A write that fails or is killed partway leaves any previous file at
    ``path`` intact and no temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """Atomically write ``payload`` as JSON: indent 2, sorted keys, trailing newline."""
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_text(path, lines: list[str]) -> None:
    """Atomically write ``lines`` as UTF-8 text, each ending in a newline."""
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_bundle(path, expected_kind: str | None = None):
    """Read a bundle back; returns ``(kind, meta, arrays)``."""
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 8 + 32 or not raw.startswith(_MAGIC):
        raise CheckpointError(f"{path}: not a bundle file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch (file corrupt)")
    hlen = int.from_bytes(body[len(_MAGIC):len(_MAGIC) + 8], "big")
    hstart = len(_MAGIC) + 8
    try:
        header = json.loads(body[hstart:hstart + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header.get('format_version')}")
    kind = header.get("kind")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"{path}: expected a {expected_kind!r} bundle, found {kind!r}")
    try:
        entries = [(str(e["name"]), np.dtype(e["dtype"]), tuple(int(n) for n in e["shape"]))
                   for e in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed array table in header") from exc
    arrays: dict[str, np.ndarray] = {}
    off = hstart + hlen
    for name, dtype, shape in entries:
        if dtype.hasobject:
            raise CheckpointError(f"{path}: object dtype declared for {name!r}")
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        chunk = body[off:off + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated array data for {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        off += nbytes
    if off != len(body):
        raise CheckpointError(f"{path}: trailing bytes after declared arrays")
    return kind, header.get("meta", {}), arrays


def arrays_checksum(arrays: dict[str, np.ndarray]) -> str:
    """Order-sensitive sha256 over names, dtypes, shapes and raw bytes."""
    h = hashlib.sha256()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        h.update(name.encode("utf-8"))
        h.update(arr.dtype.str.encode("ascii"))
        h.update(str(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()
