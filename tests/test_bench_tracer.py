"""The benchmark's traced run wraps reebforge functions by module
attribute; a rename under src/ must fail here, not in the benchmark."""
from fractions import Fraction as F
from pathlib import Path

from reebforge.assembly import verify_realization
from reebforge.graphs import Edge, LabeledGraph

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_sites_resolve_and_trace_a_verify(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    for module, attr, _ in spans.SITES:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"
    originals = [getattr(module, attr) for module, attr, _ in spans.SITES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        g = LabeledGraph(["a", "b"], [F(0), F(1)], [Edge(0, 1, 0)])
        assert verify_realization(g).ok
    finally:
        tracer.uninstall()
    assert [getattr(module, attr)
            for module, attr, _ in spans.SITES] == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("assembly.validate_manifold") == 1
    validate = names.index("assembly.validate_manifold")
    assert [s[0] for s in tracer.spans if s[3] == validate] == \
        ["complexes.face_map"]
