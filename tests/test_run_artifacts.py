"""tools/run_artifacts.py --compare: the numbers of two output trees."""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "run_artifacts.py"


def _tool():
    # the tool puts src/ and perfbench/ on sys.path; later tests get it back
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("run_artifacts", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def _run(root, mass, drift, payload, extra=None, name="sim"):
    run = root / name
    run.mkdir(parents=True)
    (run / "diagnostics.csv").write_text(
        f"t,mass\n1.0,{mass[0]!r}\n2.0,{mass[1]!r}\n", encoding="ascii")
    (run / "summary.txt").write_text(
        f"status: OK\nmass relative drift: {drift!r}\n", encoding="ascii")
    np.asarray(payload, dtype="<f8").tofile(run / "final.snap")
    if extra:
        (run / extra).write_text("", encoding="ascii")


def test_compare_prints_the_largest_relative_differences(tmp_path, capsys):
    _run(tmp_path / "a", (0.5, 0.25), 2e-16, [1.0, -2.0, 0.0])
    _run(tmp_path / "b", (0.5, 0.25 * (1 + 4e-16)), 3e-16, [1.0, -2.0, 1e-15],
         extra="probes.csv")
    assert _tool().main(["--compare", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sim"
    assert f"  probes.csv: only in {tmp_path / 'b'}" in lines
    assert "  diagnostics.csv t: 0" in lines
    assert "  diagnostics.csv mass: 4.44e-16" in lines
    assert "  summary.txt mass relative drift [0]: 0.5" in lines
    assert "  final.snap payload: 5e-16" in lines


def test_compare_names_the_runs_only_one_tree_has(tmp_path, capsys):
    _run(tmp_path / "a", (0.5, 0.25), 2e-16, [1.0])
    _run(tmp_path / "a", (0.5, 0.25), 2e-16, [1.0], name="linear")
    _run(tmp_path / "b", (0.5, 0.25), 2e-16, [1.0])
    _run(tmp_path / "b", (0.5, 0.25), 2e-16, [1.0], name="probe")
    assert _tool().main(["--compare", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"linear: only in {tmp_path / 'a'}",
                         f"probe: only in {tmp_path / 'b'}", "sim"]


def test_compare_reads_inf_where_a_zero_moves(tmp_path, capsys):
    # a roundoff mass of zero-mass data that moves off 0.0 has no
    # relative size: it reads inf, not the largest finite float
    _run(tmp_path / "a", (0.0, 0.25), 0.0, [1.0])
    _run(tmp_path / "b", (1e-17, 0.25), 0.0, [1.0])
    assert _tool().main(["--compare", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 1
    assert "  diagnostics.csv mass: inf" in capsys.readouterr().out.splitlines()


def test_compare_reads_every_csv_and_names_the_files_it_skips(tmp_path, capsys):
    # probes.csv has a text column beside its numbers: a doubled ratio
    # shows as a relative difference of 1, a changed kind as differs
    for tree, ratio, kind in (("a", 0.25, "lp"), ("b", 0.5, "lp"),
                              ("c", 0.25, "energy")):
        _run(tmp_path / tree, (0.5, 0.25), 2e-16, [1.0])
        (tmp_path / tree / "sim" / "probes.csv").write_text(
            f"kind,t,ratio\n{kind},1.0,{ratio!r}\n", encoding="ascii")
        (tmp_path / tree / "sim" / "config.txt").write_text(
            "mode = simulate\n", encoding="ascii")
    tool = _tool()
    assert tool.main(["--compare", str(tmp_path / "a"),
                      str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  probes.csv kind: equal" in lines
    assert "  probes.csv t: 0" in lines
    assert "  probes.csv ratio: 1" in lines
    assert "  config.txt: not compared" in lines
    assert tool.main(["--compare", str(tmp_path / "a"),
                      str(tmp_path / "c")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  probes.csv kind: differs" in lines
    assert "  probes.csv ratio: 0" in lines


def _sidecar(run, t, digest, frame="selfsim"):
    (run / "final.snap.meta").write_text(
        f"alpha = 1.0\nformat = shearvortex-snapshot-1\nframe = {frame}\n"
        f"half_width = 20.0\nkind = state\nn = 512\nnu = 1.0\n"
        f"sha256 = {digest}\nt = {t!r}\n", encoding="ascii")


def test_compare_reads_snapshot_sidecars(tmp_path, capsys):
    # the sidecar's numbers as relative differences, its hash as equal or
    # differs, and another field only when it differs
    for tree, t, digest, frame in (("a", 2.0, "ab12", "selfsim"),
                                   ("b", 2.0 * (1 + 1e-15), "cd34", "selfsim"),
                                   ("c", 2.0, "ab12", "physical")):
        _run(tmp_path / tree, (0.5, 0.25), 2e-16, [1.0])
        _sidecar(tmp_path / tree / "sim", t, digest, frame)
    tool = _tool()
    assert tool.main(["--compare", str(tmp_path / "a"),
                      str(tmp_path / "b")]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines()
             if ".meta" in line]
    assert lines == ["  final.snap.meta alpha: 0",
                     "  final.snap.meta half_width: 0",
                     "  final.snap.meta n: 0",
                     "  final.snap.meta nu: 0",
                     "  final.snap.meta sha256: differs",
                     "  final.snap.meta t: 1.11e-15"]
    assert tool.main(["--compare", str(tmp_path / "a"),
                      str(tmp_path / "c")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  final.snap.meta frame: differs" in lines
    assert "  final.snap.meta sha256: equal" in lines


def test_compare_returns_0_on_matching_trees(tmp_path, capsys):
    # equal numbers, texts and hashes, and the same runs and files; a
    # file it does not read counts as matching
    for tree in ("a", "b"):
        _run(tmp_path / tree, (0.5, 0.25), 2e-16, [1.0, 0.0], extra="x.log")
        _sidecar(tmp_path / tree / "sim", 2.0, "ab12")
    assert _tool().main(["--compare", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 0
    assert "  x.log: not compared" in capsys.readouterr().out.splitlines()


def test_compare_returns_1_on_each_kind_of_difference(tmp_path, capsys):
    # a tree against a copy changed in one place: a number, a text, a
    # hash, a payload, a file or a run that only one tree has
    changes = {
        "number": ("diagnostics.csv", "t,mass\n1.0,0.5\n2.0,0.3\n"),
        "text": ("summary.txt", "status: FAILED\nmass relative drift: 0.0\n"),
        "hash": ("final.snap.meta", None),
        "payload": ("final.snap", None),
        "file": ("probes.csv", "kind\nlp\n"),
        "run": ("../linear/summary.txt", "status: OK\n"),
    }
    tool = _tool()
    for what, (name, text) in changes.items():
        for tree in ("a", "b"):
            _run(tmp_path / what / tree, (0.5, 0.25), 0.0, [1.0])
            _sidecar(tmp_path / what / tree / "sim", 2.0, "ab12")
        trees = [str(tmp_path / what / tree) for tree in ("a", "b")]
        assert tool.main(["--compare", *trees]) == 0
        run = tmp_path / what / "b" / "sim"
        if what == "hash":
            _sidecar(run, 2.0, "cd34")
        elif what == "payload":
            np.asarray([1.5], dtype="<f8").tofile(run / name)
        else:
            (run / name).parent.mkdir(exist_ok=True)
            (run / name).write_text(text, encoding="ascii")
        assert tool.main(["--compare", *trees]) == 1, what
    capsys.readouterr()


def test_compare_reads_inf_where_a_payload_moves_off_zero(tmp_path, capsys):
    # an all-zero payload has no relative size: a change reads inf, with
    # no division warning
    _run(tmp_path / "a", (0.5, 0.25), 0.0, [0.0, 0.0])
    _run(tmp_path / "b", (0.5, 0.25), 0.0, [0.0, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _tool().main(["--compare", str(tmp_path / "a"),
                             str(tmp_path / "b")]) == 1
    assert "  final.snap payload: inf" in capsys.readouterr().out.splitlines()
