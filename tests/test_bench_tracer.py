"""The benchmark's traced run wraps reebforge functions by module
attribute; a rename under src/ must fail here, not in the benchmark."""
from fractions import Fraction as F
from pathlib import Path

from reebforge import assembly
from reebforge.assembly import Manifold3, verify_realization
from reebforge.complexes import TetComplex
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
        res = verify_realization(g)
        assert res.ok
        # one tet removed: the census names the failure itself
        m = res.manifold
        holed = Manifold3(TetComplex(m.cx.nv, m.cx.tets[1:]), m.values,
                          m.provenance[1:])
        assert not assembly.validate_manifold(holed).ok
    finally:
        tracer.uninstall()
    assert [getattr(module, attr)
            for module, attr, _ in spans.SITES] == originals
    names = [s[0] for s in tracer.spans]
    validates = [i for i, name in enumerate(names)
                 if name == "assembly.validate_manifold"]
    assert len(validates) == 2
    # a passing manifold and a failing one are each validated by one
    # census, with no face map
    children = [[s[0] for s in tracer.spans if s[3] == i] for i in validates]
    assert children == [[], []]
