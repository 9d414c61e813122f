"""Exact-arithmetic toolkit for node-constrained traffic engineering.

Path-based and arc-based multicommodity flow LPs over exact rationals, an
exact Dinic max flow and min cut, node-constrained (through-w and
through-group) maximum flow for directed and undirected networks,
segment-routing tunnel programs with ECMP splitting, flow centrality, and
the NP-hardness gadget constructions, all backed by an exact simplex that
starts at the origin.
"""

from .errors import (CapExceeded, InfiniteDemand, MalformedNetwork,
                     MalformedProgram, MissingDesignation, NodeflowError,
                     ParseError, UnknownNode)
from .rational import as_decimal, format_rational, rat
from .network import (Commodity, Edge, EdgeWalk, FlowNetwork, PathConstraint,
                      PathFamily, UNCONSTRAINED, concat_walks,
                      enumerate_paths, enumerate_st_paths, reverse_walk,
                      through_any, validate_walk)
from .lp import (Constraint, LinearProgram, LpSolution, EQ, LE, OPTIMAL,
                 UNBOUNDED, solve)
from .te import (INFEASIBLE, FlowSolution, default_families, max_flow_arc_lp,
                 solve_te_lu, solve_te_mf)
from .maxflow import MaxFlowResult, max_flow
from .wflow import (AugmentingResult, CutResult, augmenting_w_flow,
                    build_transform, fix_paths, max_set_flow,
                    max_set_flow_paths, max_w_flow_exact, min_swt_edge_cut,
                    solve_transform, verify_cut)
from .srte import (FeasibilityResult, SegmentFractions, SrConfig, SrSolution,
                   Tunnel, acyclic_feasible, build_tunnels, detect_cycles,
                   ecmp_fractions, shortest_path_data,
                   solve_sr_lu, solve_sr_mf)
from .centrality import (CentralityReport, Eq25Report, GroupFlowResult,
                         HatConstructions, ProbeReport, check_pair_sum_identity,
                         commodity_centrality, flow_centrality,
                         hat_constructions, n_group_max_flow,
                         pair_max_flow, pair_w_flow, probe_margins,
                         submodularity_probe)
from .reductions import (GadgetInstance, disjoint_shortest_paths_gadget,
                         max_coverage_gadget, node_split_gadget,
                         two_disjoint_paths_gadget, unit_path_gadget)
from .fileio import (Instance, instance_hash, load_instance, parse_instance,
                     save_instance, serialize_instance)
from .instances import BuiltinInstance, catalog, get_builtin

__version__ = "0.1.0"
