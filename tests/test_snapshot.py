import hashlib
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearvortex import (
    SelfSimilarState,
    make_grid,
    read_metadata,
    read_snapshot,
    snapshot,
    write_snapshot,
)
from shearvortex.errors import (
    ChecksumError,
    DomainError,
    GridError,
    ShearVortexError,
    SnapshotError,
)

from conftest import localized_field


@pytest.fixture()
def field(small_grid):
    return localized_field(small_grid, seed=21)


def test_field_round_trip_is_bit_identical(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    back = read_snapshot(path)
    assert back.grid == field.grid
    assert np.array_equal(back.values, field.values)


def test_state_round_trip(field, tmp_path):
    state = SelfSimilarState(omega=field, t=3.5, nu=0.7)
    path = tmp_path / "state.snap"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert isinstance(back, SelfSimilarState)
    assert (back.t, back.nu, back.alpha) == (3.5, 0.7, state.alpha)
    assert np.array_equal(back.omega.values, field.values)


@pytest.mark.parametrize("kind", ["field", "state"])
def test_an_encoding_from_another_thread_writes_the_same_bytes(
        field, tmp_path, kind):
    # fp-decay's worker encodes a snapshot (payload view, sidecar, hash)
    # and the main thread writes it: the files are write_snapshot's own,
    # byte for byte, and read back as the object
    obj = field if kind == "field" else SelfSimilarState(omega=field, t=3.5,
                                                         nu=0.7)
    encoded = []
    worker = threading.Thread(
        target=lambda: encoded.append(snapshot.encode_snapshot(obj)))
    worker.start()
    worker.join(30)
    assert not worker.is_alive() and len(encoded) == 1
    direct, handed = tmp_path / "direct.snap", tmp_path / "handed.snap"
    write_snapshot(obj, direct)
    write_snapshot(encoded[0], handed)
    for suffix in ("", ".meta"):
        assert (Path(f"{handed}{suffix}").read_bytes()
                == Path(f"{direct}{suffix}").read_bytes())
    back = read_snapshot(handed)
    if kind == "field":
        assert np.array_equal(back.values, field.values)
    else:
        assert (back.t, back.nu, back.alpha) == (3.5, 0.7, obj.alpha)
        assert np.array_equal(back.omega.values, field.values)


def test_metadata_keys(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    meta = read_metadata(path)
    assert set(meta) == {"format", "n", "half_width", "frame", "dtype",
                         "endianness", "order", "payload_bytes", "sha256",
                         "kind"}
    assert meta["kind"] == "field"
    assert meta["n"] == str(field.grid.n)
    assert int(meta["payload_bytes"]) == field.grid.n ** 2 * 8
    # sidecar lines are sorted by key, so rewrites are byte-stable
    with open(str(path) + ".meta", encoding="ascii") as fh:
        keys = [line.split("=")[0].strip() for line in fh if line.strip()]
    assert keys == sorted(keys)


def test_corrupted_payload_is_rejected(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        read_snapshot(path)


def test_truncated_payload_is_rejected(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(SnapshotError) as info:
        read_snapshot(path)
    assert "truncated" in str(info.value)


def test_inconsistent_metadata_is_rejected(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    side = str(path) + ".meta"
    with open(side, encoding="ascii") as fh:
        lines = fh.readlines()
    with open(side, "w", encoding="ascii") as fh:
        for line in lines:
            fh.write("n = 32\n" if line.startswith("n =") else line)
    with pytest.raises(SnapshotError) as info:
        read_snapshot(path)
    assert "disagrees" in str(info.value)


def test_missing_sidecar(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    (tmp_path / "field.snap.meta").unlink()
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_unrecognized_format(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    side = str(path) + ".meta"
    text = open(side, encoding="ascii").read()
    with open(side, "w", encoding="ascii") as fh:
        fh.write(text.replace("shearvortex-snapshot-1", "other-format-9"))
    with pytest.raises(SnapshotError):
        read_metadata(path)


def test_grid_mismatch_on_request(field, tmp_path):
    path = tmp_path / "field.snap"
    write_snapshot(field, path)
    other = make_grid(16.0, 128, "selfsim")
    with pytest.raises(GridError):
        read_snapshot(path, grid=other)
    read_snapshot(path, grid=field.grid)


def _edit_sidecar(path, key, value):
    """Rewrite one sidecar line (value None drops it)."""
    side = str(path) + ".meta"
    with open(side, encoding="ascii") as fh:
        lines = fh.readlines()
    with open(side, "w", encoding="ascii") as fh:
        for line in lines:
            if line.split("=")[0].strip() != key:
                fh.write(line)
            elif value is not None:
                fh.write(f"{key} = {value}\n")


@pytest.mark.parametrize("key, value", [
    ("n", "abc"),
    ("frame", "bogus"),
    ("t", None),
    ("half_width", "wide"),
    ("payload_bytes", "lots"),
])
def test_bad_sidecar_value_is_a_snapshot_error(field, tmp_path, key, value):
    # every parse failure names its key; value None drops the line
    path = tmp_path / "state.snap"
    write_snapshot(SelfSimilarState(omega=field, t=2.0, nu=0.5), path)
    _edit_sidecar(path, key, value)
    with pytest.raises(SnapshotError) as info:
        read_snapshot(path)
    assert repr(key) in str(info.value)


@pytest.mark.parametrize("key, value", [
    ("t", "nan"), ("t", "inf"), ("nu", "nan"), ("nu", "inf"),
    ("alpha", "nan"), ("alpha", "inf"),
])
def test_non_finite_state_is_rejected(field, tmp_path, key, value):
    good = {"t": 2.0, "nu": 0.5, "alpha": 1.0}
    with pytest.raises(DomainError):
        SelfSimilarState(omega=field, **dict(good, **{key: float(value)}))
    path = tmp_path / "state.snap"
    write_snapshot(SelfSimilarState(omega=field, **good), path)
    _edit_sidecar(path, key, value)
    with pytest.raises(DomainError):
        read_snapshot(path)


class _DiskFull:
    """File stand-in that takes half of one write, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("failing_call", [0, 1])
def test_failed_write_keeps_the_old_snapshot(field, tmp_path, monkeypatch,
                                             failing_call):
    # the payload (call 0) or the sidecar (call 1) write fails halfway
    path = tmp_path / "state.snap"
    old = SelfSimilarState(omega=field, t=2.0, nu=0.5)
    write_snapshot(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        calls.append(file)
        return _DiskFull(fh) if len(calls) - 1 == failing_call else fh

    monkeypatch.setattr(snapshot, "open", failing_open, raising=False)
    new = SelfSimilarState(omega=field * 2.0, t=3.0, nu=0.5)
    with pytest.raises(OSError):
        write_snapshot(new, path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    back = read_snapshot(path)
    assert back.t == 2.0
    assert np.array_equal(back.omega.values, field.values)


@pytest.fixture(scope="module")
def state_snapshot(tmp_path_factory):
    """Path of a small state snapshot, its payload and its sidecar lines."""
    grid = make_grid(16.0, 8, "selfsim")
    field = localized_field(grid, seed=22)
    path = tmp_path_factory.mktemp("snap") / "state.snap"
    write_snapshot(SelfSimilarState(omega=field, t=2.0, nu=0.5), path)
    with open(str(path) + ".meta", encoding="ascii") as fh:
        return path, path.read_bytes(), fh.read().splitlines()


_VALUE = st.one_of(st.text(max_size=20), st.floats().map(repr),
                   st.integers().map(str))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_sidecar_raises_only_toolkit_errors(state_snapshot, data):
    path, payload, lines = state_snapshot
    i = data.draw(st.integers(0, len(lines) - 1))
    key = lines[i].split("=")[0].strip()
    mutation = data.draw(st.one_of(
        _VALUE.map(lambda v: f"{key} = {v}"),   # new value
        st.text(max_size=30),                   # arbitrary line
        st.just(None),                          # line dropped
    ))
    mutated = lines[:i] + ([] if mutation is None else [mutation]) + lines[i + 1:]
    path.write_bytes(payload)
    with open(str(path) + ".meta", "w", encoding="utf-8") as fh:
        fh.write("\n".join(mutated) + "\n")
    try:
        read_snapshot(path)
    except ShearVortexError:
        pass


def _with_sha256(lines, payload):
    """Sidecar lines with the sha256 entry recomputed for payload."""
    digest = hashlib.sha256(payload).hexdigest()
    return [f"sha256 = {digest}" if line.startswith("sha256 =") else line
            for line in lines]


_SPECIALS = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -0.0, 5e-324])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_payload_raises_only_toolkit_errors(state_snapshot, data):
    # the checksum matches every mutated payload, so only the structural
    # checks and the constructors stand between the bytes and the result
    path, payload, lines = state_snapshot
    kind = data.draw(st.sampled_from(["flip", "truncate", "extend", "special"]))
    blob = bytearray(payload)
    if kind == "flip":
        for i in data.draw(st.lists(st.integers(0, len(blob) - 1),
                                    min_size=1, max_size=8)):
            blob[i] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif kind == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=64))
    else:
        values = np.frombuffer(payload, dtype="<f8").copy()
        for i in data.draw(st.lists(st.integers(0, len(values) - 1),
                                    min_size=1, max_size=4)):
            values[i] = data.draw(_SPECIALS)
        blob = bytearray(values.astype("<f8").tobytes())
    path.write_bytes(bytes(blob))
    with open(str(path) + ".meta", "w", encoding="ascii") as fh:
        fh.write("\n".join(_with_sha256(lines, bytes(blob))) + "\n")
    try:
        back = read_snapshot(path)
    except ShearVortexError as e:
        assert kind != "extend" or "truncated" not in str(e)
        return
    assert kind in ("flip", "special")
    assert np.all(np.isfinite(back.omega.values))
