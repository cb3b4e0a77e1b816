"""The benchmark tracer must still find every library name it patches."""

import types
from pathlib import Path

import torus_rips.homology

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
