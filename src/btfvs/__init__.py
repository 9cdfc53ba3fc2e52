"""Feedback vertex set toolkit for bipartite tournaments.

Solvers (exhaustive oracle, 4-approximation, budgeted branching, exact),
the block-structure machinery relative to an undeletable vertex set, the
constrained-instance reduction pipeline with its sample-space seeding, a
mixed-multigraph endgame solver, instance generators, and an executable
property suite tying it all together.
"""

from .graph import BipartiteTournament, MixedMultigraph, Vertex
from .structure import (CanonicalSequence, Square, canonical_sequence,
                        find_square, is_acyclic, is_topological,
                        some_topological_sort)
from .msequence import (BackEdge, BackEdgeKind, Classification, ClassKind,
                        MSequence, back_edges, classify, is_conflict_back_edge,
                        is_m_consistent, is_refinement, m_sequence)
from .solvers import (Constraints, SolveResult, SolveStatus, approx4,
                      branch_solve, exact_min_fvs, oracle_min_fvs,
                      reduce_instance, squares_packing_lower_bound,
                      verify_fvs)
from .generators import GenKind, GenSpec, SplitMix64, generate
from .samplespace import SampleSpace, twise_space
from .matching import (enumerate_min_vertex_covers, max_bipartite_matching,
                       x_preferred_cover)
from .pipeline import (CfvsInstance, ConstantsProfile, PipelineResult,
                       derive_forced_p, is_m_homogeneous, partition_parts,
                       pipeline_solve, seed_instances, to_dfvc)
from .dfvc import DfvcInstance, dfvc_solve, validate_class

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
