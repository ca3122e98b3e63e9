"""Local bounded-size cut detection and its applications."""

from .graph import (CountedView, Edge, EdgeListError, Graph, GraphError,
                    Overlay, UndirectedGraph, load_edge_list, reverse_graph)
from .edge_cut import (ComponentResult, detect_component,
                       detect_component_param, verify_k_edge_out)
from .vertex_cut import (SplitGraph, VertexComponentResult,
                         detect_vertex_out_component, verify_vertex_out)
from .flow import VertexCut, global_edge_cut_below
from .connectivity import (fallback_exact, is_connectivity_at_least,
                           vertex_connectivity_directed,
                           vertex_connectivity_undirected)
from .mkecs import (Decomposition, baseline_mkecs, mkecs_directed,
                    mkecs_undirected, sparse_certificate)
from .testers import (TesterConfig, TesterVerdict, test_k_edge_connectivity,
                      test_k_vertex_connectivity)

__all__ = [n for n in dir() if not n.startswith("_")]
