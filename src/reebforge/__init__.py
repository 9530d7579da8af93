"""reebforge: synthesize-and-verify engine for Reeb graph realization on
triangulated 3-manifolds."""

from .graphs import (Edge, GraphError, LabeledGraph, RealizabilityReport,
                     VertexProfile, check_realizable, euler_char,
                     graph_to_dot, is_odd_chi, parse_graph, serialize_graph)
from .surfaces import (MeshError, SurfaceMesh, classify_surface,
                       connected_sum_label, mesh_to_json, mesh_to_off)
from .canonical import canonical_mesh, solid_for_label
from .complexes import ComplexError, TetComplex, validate_complex
from .blocks import (Block, BlockError, Plan, PlanError, build_junction,
                     cap_block, cylinder_block, elementary_junction,
                     fold_block, plan_junction, verify_block)
from .reeb import (LevelSet, ReebGraph, ReebError, labeled_isomorphic,
                   level_set_of, reeb_graph_of)
from .assembly import (AssemblyError, Manifold3, assemble, extract_reeb,
                       validate_manifold, verify_realization)

__version__ = "0.1.0"
