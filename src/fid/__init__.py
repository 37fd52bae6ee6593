"""Finite-structure identification toolkit: invariants, base decompositions,
formula synthesis, exhaustive verification, and exact Ehrenfeucht games."""

from .structures import (GRAPH_VOCAB, Structure, Vocabulary, canonical_form,
                         enumerate_structures, find_isomorphism,
                         graph_complement, induced, is_partial_isomorphism,
                         isomorphic, parse_fos, format_fos, relabel)
from .equivalences import (BaseDecomposition, Partition, approx_x,
                           base_decomposition, classes_of, equiv_phi, equiv_x,
                           is_base, sim_classes, similar, transform_e,
                           transform_t)
from .invariants import (InvariantReport, analyze, bound_report,
                         check_clone_definitions, clone, delta_exact,
                         delta_lower, gen_gm, gen_mfmg, rho, rho_exact, sigma)
from .logic import (Formula, FormulaMetrics, compile_eval, dist_formula,
                    evaluate, format_formula, iso_formula, metrics,
                    parse_formula)
from .synthesis import (SynthesisResult, exceptional_graph,
                        exceptional_graph_formula, gm_adversary, synth_auto,
                        synth_delta, synth_graph, synth_naive_define,
                        synth_naive_identify, synth_rho, synth_sigma,
                        universal_deficit_adversary)
from .games import (GameSolver, OptimalDuplicator, PhasedSpoiler, Transcript,
                    distinguishing_rank, distinguishing_rank_alt,
                    identification_rank, play_out)
from .verification import (AuditReport, VerificationVerdict, audit_corpus,
                           verify_defines_up_to, verify_identifies)

__version__ = "0.1.0"
