"""Small shared helpers, the one codec for everything written to disk, and
the one layout codec for flat weight vectors.

Files are written atomically: the text goes to a sibling ``*.tmp`` file that
then replaces the target, so a reader sees the old file or the new one,
never a torn mix.  Every CSV is built by `csv_text`: ``NA`` marks a missing
value and a float is written as its shortest round-trip ``repr``, so
``float(cell)`` gives the same bits back.  Sealed files are canonical JSON
plus a ``sha256`` of the rest, verified on read.  Float arrays travel as
base64 of their little-endian float64 bytes, which round-trips every bit.

A layout is a tuple of (name, shape) pairs: a flat weight vector holds each
named array's values in C order, one after another in layout order.

`run_split` runs independent pieces of one call on the CPUs the process may
use: threads started inside the call and joined before it returns, so no
thread outlives the call (nothing is left running when a process forks).
"""

from __future__ import annotations

import base64
import contextvars
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, IntegrityError

T = TypeVar("T")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of labels.

    Uses a keyed hash rather than Python's salted ``hash`` so that derived
    seeds are identical across processes and runs; this is what makes
    parallel fitness evaluation schedule-independent.
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def array_digest(a: np.ndarray) -> str:
    """Short stable digest of an array's contents."""
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def cpu_workers() -> int:
    """How many CPUs this process may run on: its affinity set, or the
    machine's CPU count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_split(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Each task's result, in task order: the first task runs on the calling
    thread, each other one on a thread started here (none for one task).

    Every thread runs in a copy of the caller's context, so numpy's
    ``errstate`` (a context variable) holds there too, and every thread is
    joined before this returns, also when a task raises; the calling
    thread's exception wins, then the first other one in task order.
    """
    if len(tasks) == 1:
        return [tasks[0]()]
    # imported here, so processes that never split (desk training) do not
    # load the executor machinery
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(tasks) - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, t) for t in tasks[1:]]
        first = tasks[0]()
        return [first, *(f.result() for f in futures)]


def json_sha256(obj) -> str:
    """SHA-256 hex digest of an object's canonical (sorted-key) JSON."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def f8_to_b64(a) -> str:
    """Base64 of an array's little-endian float64 bytes in C order."""
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return base64.b64encode(data).decode("ascii")


def f8_from_b64(text: str) -> np.ndarray:
    """The flat, writable float64 array `f8_to_b64` encoded."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(float)


def layout_size(layout) -> int:
    """Number of values a flat vector with this (name, shape) layout holds."""
    return sum(math.prod(shape) for _, shape in layout)


def check_flat(vector: np.ndarray, layout) -> None:
    """Raise ConfigError unless `vector` is flat and `layout_size(layout)` long."""
    size = layout_size(layout)
    if vector.shape != (size,):
        raise ConfigError(f"vector has shape {vector.shape}; its layout needs length {size}")


def unpack(vector: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Each layout name mapped to a writable copy of its slice of `vector`,
    reshaped; raises ConfigError unless `vector` fits (`check_flat`)."""
    check_flat(vector, layout)
    arrays, pos = {}, 0
    for name, shape in layout:
        n = math.prod(shape)
        arrays[name] = vector[pos : pos + n].reshape(shape).copy()
        pos += n
    return arrays


def _csv_cell(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def csv_text(header: Sequence, rows) -> str:
    """The header line, then one line per row, each ending in a newline:
    ``None`` is written as ``NA``, a float (numpy floats included) as
    ``repr(float(v))``, anything else as ``str(v)``."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in (header, *rows))


def write_atomic(path, text: str) -> None:
    """Write `text` to a sibling ``*.tmp`` file, then rename it over `path`;
    if either step fails, the ``*.tmp`` file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_sealed(path, payload: dict, indent: Optional[int] = None) -> None:
    """Write `payload` plus the `sha256` of its canonical JSON, atomically."""
    sealed = dict(payload, sha256=json_sha256(payload))
    write_atomic(path, json.dumps(sealed, indent=indent, sort_keys=True))


def read_json_object(path) -> dict:
    """The JSON object stored at `path`.

    Raises IntegrityError naming the path if the file cannot be read or
    parsed, or holds anything other than an object.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise IntegrityError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise IntegrityError(f"{path} does not hold a JSON object")
    return payload


def read_sealed(path, fmt: str) -> dict:
    """The payload of a `write_sealed` file whose ``format`` is `fmt`.

    Raises IntegrityError if the file cannot be read or parsed, has another
    format, or fails its checksum.
    """
    payload = read_json_object(path)
    if payload.get("format") != fmt:
        raise IntegrityError(f"{path} is not a {fmt} file")
    stored = payload.pop("sha256", None)
    if stored != json_sha256(payload):
        raise IntegrityError(f"{path} failed its integrity check")
    return payload
