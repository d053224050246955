"""Write the artifacts of a fixed set of runs, and src/ code-line counts.

Usage: python tools/run_artifacts.py OUT

Runs in-process, each into OUT/<name>/: the three benchmark workloads
(perfbench/run.py's config_text(workload, 1)), a linear run with a
snapshot every second sample, a probe run at n = 64 and a simulate run
at n = 64 that fails. Then writes OUT/src_code_lines.txt: the code lines
of each module under src/shearvortex and their total, counted with
tokenize and ast (comments, blank lines and docstrings left out).

A refactor that keeps the numbers leaves every file identical: run this
script in two checkouts and compare the outputs with diff -r; only
src_code_lines.txt should differ.
"""

import ast
import importlib.util
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from shearvortex import ShearVortexError, parse_config, run_experiment  # noqa: E402

# runs beside the workloads, as overrides of the config defaults; the
# simulate run's Gaussian is under-resolved at n = 64, so it fails after
# its first sample with ResolutionError
EXTRA_RUNS = {
    "linear": "mode = linear\ngrid_n = 128\nt_end = 10\nsnapshot_cadence = 2\n",
    "probe": "mode = probe\ngrid_n = 64\nt_end = 10\n",
    "simulate-fails": "mode = simulate\ngrid_n = 64\nt_end = 2\n",
}


def _bench_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def code_lines(path):
    """Lines holding a token other than a comment, and not in a docstring."""
    text = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    bench = _bench_module()
    configs = {name: bench.config_text(name, 1) for name in bench.WORKLOADS}
    configs.update(EXTRA_RUNS)
    for name, text in configs.items():
        try:
            run_experiment(parse_config(text), str(out / name))
        except ShearVortexError as e:
            print(f"{name}: {type(e).__name__}: {e}")
    counts = {path.name: code_lines(path)
              for path in sorted((SRC / "shearvortex").glob("*.py"))}
    counts["total"] = sum(counts.values())
    (out / "src_code_lines.txt").write_text(
        "".join(f"{name} {n}\n" for name, n in counts.items()),
        encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
