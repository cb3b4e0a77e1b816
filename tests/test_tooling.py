"""The benchmark tracer must still find every library name it patches, and
the package root exports only what runs."""

import os
import subprocess
import sys
import types
from pathlib import Path

import torus_rips
import torus_rips.homology

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py as a module, compiled in memory so nothing is written."""
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls():
    gf2_rank = torus_rips.homology.gf2_rank
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert torus_rips.homology.gf2_rank is not gf2_rank
    finally:
        tracer.uninstall()
    assert torus_rips.homology.gf2_rank is gf2_rank


# The tests' reference code and the CLI's facets text writer, kept in their
# modules, and the text reader, removed: none is exported from the package root.
UNEXPORTED = {"FlagComplex", "enumerate_simplices", "SparseBitMatrix", "boundary_matrix",
              "gf2_rank", "read_simplex_list", "format_simplex_lines"}

IMPORT_ROOT_ONLY = """
import sys
import torus_rips
loaded = {"torus_rips.cli", "argparse", "csv"} & set(sys.modules)
assert not loaded, sorted(loaded)
"""


def test_package_root_exports_only_what_runs():
    missing = [name for name in torus_rips.__all__ if not hasattr(torus_rips, name)]
    assert not missing, missing
    assert not UNEXPORTED & set(torus_rips.__all__)
    tracer = load_spans().Tracer()
    tracer.install()
    # install() reads each attribute it patches, so a missing one fails here.
    patched = list(tracer._restore)
    tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
    # The CLI, and the argparse and csv it loads, stay out of a root import.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-S", "-c", IMPORT_ROOT_ONLY], env=env,
                           cwd=ROOT / "src", capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
