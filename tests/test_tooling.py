"""The benchmark tracer must still find every library name it patches, and the
library must run on the standard library alone."""

import os
import subprocess
import sys
import types
from pathlib import Path

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


STANDARD_LIBRARY_ONLY = """
import sys
from torus_rips import RunConfig, compute_profile, torus_space
import torus_rips.cli
profile, _ = compute_profile(torus_space(7), 2, RunConfig(max_dim=2))
assert profile.betti == (1, 2, 1), profile.betti
loaded = {"numpy", "sympy", "hypothesis", "jsonschema", "pytest"} & set(sys.modules)
assert not loaded, sorted(loaded)
"""


def test_library_runs_on_the_standard_library_alone():
    # -S skips site-packages, so an import of a test dependency in src/ fails here.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-S", "-c", STANDARD_LIBRARY_ONLY], env=env,
                           cwd=ROOT / "src", capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
