"""viscosym: symbolic point-symmetry toolkit for the 2D viscoelastic
equation u_tt - a*(u_xxt + u_yyt) - b*(u_xx + u_yy) = f.

The package verifies the equation's symmetry generators, reproduces the
commutator and adjoint tables, normalizes algebra elements into the optimal
system of one-dimensional subalgebras, computes similarity charts and
reduced equations, audits the published tables against its own derivations,
and samples one-parameter flow trajectories.
"""

from .expr import (Expr, ExprError, Jet, Kind, Num, Sym, UnknownFn,
                   canonicalize, diff_atom, eval_numeric, numerator,
                   substitute, substitute_functions, to_text,
                   total_derivative)
from .parsing import ParseError, UnknownIdentifierError, parse
from .spaces import VarSpace, base_space, reduced_space
from .vector_fields import (Generator, PDEInstance, StructureConstants,
                            bracket, commutator_table, determining_equations,
                            function_shift_generator, general_ansatz,
                            invariance_residual, parse_basis_combination,
                            prolong, standard_basis, symmetry_family_bodies,
                            verify_symmetry, viscoelastic_pde)
from .adjoint import (AdjointMatrix, NormalizationResult, OptimalClass,
                      adjoint_matrices, adjoint_matrix, apply_adjoint,
                      audit_adjoint_table, equivalent, normalize)
from .reduction import (ReducedPDE, SimilarityChart, audit_reduction_table,
                        characteristic_invariants, published_reduction_rows,
                        published_similarity_rows, reduce_pde,
                        verify_reduction)
from .flows import FlowMap, FlowSample, flow_map, sample_flow, samples_to_csv

__version__ = "0.1.0"
