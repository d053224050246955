"""Field/state persistence: raw binary payload plus a text sidecar.

Payload: little-endian IEEE-754 doubles of the physical-space samples,
row major with the second axis fastest. Sidecar (path + ".meta") lists
every metadata key needed to rebuild the object and a sha256 of the
payload; reads validate the checksum and every structural invariant
before constructing anything. A write is an encoding (encode_snapshot:
the payload view, the sidecar and its hash), which any thread may make,
then the files: both are written beside their targets and moved into
place, payload first, so no partial file takes their names.
"""

import contextlib
import hashlib
import os
from typing import NamedTuple

import numpy as np

from .errors import ChecksumError, GridError, SnapshotError
from .grid import Field, Frame, make_grid
from .selfsim import SelfSimilarState

_FORMAT = "shearvortex-snapshot-1"


def _sidecar(path):
    return os.fspath(path) + ".meta"


def _replace_files(items):
    """Write each (path, data) pair, data bytes or a contiguous array, to
    path + ".tmp", then move the files into place in order; a failed
    write touches no target."""
    tmps = [os.fspath(path) + ".tmp" for path, _ in items]
    try:
        for tmp, (_, data) in zip(tmps, items):
            with open(tmp, "wb") as fh:
                fh.write(data)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    for tmp, (path, _) in zip(tmps, items):
        os.replace(tmp, path)


class Encoded(NamedTuple):
    """A snapshot's bytes: the payload (a contiguous array) and the
    sidecar."""

    payload: np.ndarray
    sidecar: bytes


def encode_snapshot(obj):
    """The Encoded bytes of a Field or a SelfSimilarState (duck-typed on
    .omega). The payload is a view of the samples' own buffer, hashed
    where it lies."""
    if hasattr(obj, "omega"):
        f = obj.omega
        meta_extra = {"kind": "state", "t": repr(float(obj.t)),
                      "nu": repr(float(obj.nu)), "alpha": repr(float(obj.alpha))}
    else:
        f = obj
        meta_extra = {"kind": "field"}
    payload = np.ascontiguousarray(f.values, dtype="<f8")  # a view if little-endian
    meta = {
        "format": _FORMAT,
        "n": str(f.grid.n),
        "half_width": repr(float(f.grid.half_width)),
        "frame": f.grid.frame.name.lower(),
        "dtype": "float64",
        "endianness": "little",
        "order": "row-major, second axis fastest",
        "payload_bytes": str(payload.nbytes),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    meta.update(meta_extra)
    sidecar = "".join(f"{k} = {meta[k]}\n" for k in sorted(meta))
    return Encoded(payload, sidecar.encode("ascii"))


def write_snapshot(obj, path):
    """Persist a Field or a SelfSimilarState, or write the Encoded bytes
    of one (encode_snapshot), as path and its sidecar."""
    payload, sidecar = obj if isinstance(obj, Encoded) else encode_snapshot(obj)
    _replace_files([(path, payload), (_sidecar(path), sidecar)])


def read_metadata(path):
    """Parse the sidecar into a plain dict (no payload access)."""
    side = _sidecar(path)
    if not os.path.exists(side):
        raise SnapshotError(f"missing sidecar {side}")
    try:
        with open(side, encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise SnapshotError(f"sidecar {side} is not ASCII: {e}") from None
    meta = {}
    for line in lines:
        if not line.strip():
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise SnapshotError(f"malformed sidecar line {line.strip()!r}")
        meta[key.strip()] = val.strip()
    if meta.get("format") != _FORMAT:
        raise SnapshotError(f"unrecognized snapshot format {meta.get('format')!r}")
    return meta


def _value(meta, key, conv):
    """Sidecar entry key converted by conv; SnapshotError if absent or bad."""
    if key not in meta:
        raise SnapshotError(f"sidecar missing key {key!r}")
    try:
        return conv(meta[key])
    except ValueError:
        raise SnapshotError(
            f"sidecar key {key!r} has invalid value {meta[key]!r}") from None


def read_snapshot(path, grid=None):
    """Rebuild the stored Field or SelfSimilarState.

    If grid is given, the stored grid must match it exactly; useful when
    a caller needs samples on a predetermined grid.
    """
    meta = read_metadata(path)
    n = _value(meta, "n", int)
    half_width = _value(meta, "half_width", float)
    frame = _value(meta, "frame", lambda v: Frame(v.lower()))
    declared = _value(meta, "payload_bytes", int)
    digest = _value(meta, "sha256", str)
    kind = _value(meta, "kind", str)
    if declared != n * n * 8:
        raise SnapshotError(
            f"metadata disagrees with itself: payload_bytes={declared} "
            f"but n={n} needs {n * n * 8}")
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) != declared:
        state = "truncated" if len(payload) < declared else "oversized"
        raise SnapshotError(f"{state} payload: expected {declared} bytes, "
                            f"found {len(payload)}")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise ChecksumError(f"payload checksum mismatch for {path}")
    stored_grid = make_grid(half_width, n, frame)
    if grid is not None and grid != stored_grid:
        raise GridError(
            f"snapshot shape mismatch: stored grid (n={n}, L={half_width:g}, "
            f"{frame.name.lower()}) differs from requested (n={grid.n}, "
            f"L={grid.half_width:g}, {grid.frame.name.lower()})")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, n)
    f = Field(stored_grid, values=values.astype(np.float64))
    if kind == "field":
        return f
    if kind != "state":
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    return SelfSimilarState(omega=f, t=_value(meta, "t", float),
                            nu=_value(meta, "nu", float),
                            alpha=_value(meta, "alpha", float))
