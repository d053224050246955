import numpy as np
import pytest

from shearvortex import (
    SelfSimilarState,
    make_grid,
    read_metadata,
    read_snapshot,
    write_snapshot,
)
from shearvortex.errors import ChecksumError, GridError, SnapshotError

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
    side = str(path) + ".meta"
    with open(side, encoding="ascii") as fh:
        lines = fh.readlines()
    with open(side, "w", encoding="ascii") as fh:
        for line in lines:
            if line.split("=")[0].strip() != key:
                fh.write(line)
            elif value is not None:
                fh.write(f"{key} = {value}\n")
    with pytest.raises(SnapshotError) as info:
        read_snapshot(path)
    assert repr(key) in str(info.value)
