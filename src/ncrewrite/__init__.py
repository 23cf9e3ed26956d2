"""Convergence checking for rewriting systems on free associative algebras.

Exact (Q / F_p) implementation of the classical confluence toolkit:
termination certificates, overlap/inclusion census with obstructions,
normal forms with verifiable reduction traces, Knuth-Bendix style
completion, chain enumeration with the minimal-model differential, and
the homological complexes that certify the census.
"""

from .freealg import (
    QQ, PrimeField, RationalField, ParseError, Poly, Occurrence,
    occurrences, count_occurrences, word_indices, iter_words,
    parse_poly, parse_word, print_poly, print_word,
)
from .order import (
    DeglexOrder, MeasureCertificate, CertResult,
    certify_deglex, certify_measure,
)
from .rewrite import (
    Rule, System, ReductionTrace, TraceStep, FuseExceeded, ReductionError,
    basic_reduction, normal_form, is_irreducible, irreducible_words,
    reduction_graph_oracle, oracle_sweep, distinct_normal_forms,
    linear_uniqueness_oracle,
)
from .ambiguity import (
    Ambiguity, AmbiguityResult, ConvergenceReport, MCResult,
    find_overlaps, find_inclusions, obstruction, check_convergence,
    mc_residual, complete,
)
from .chains import (
    Chain, DSquaredReport,
    anick_chains, chain_structure, chain_differential, verify_d_squared,
    print_chain_poly,
)
from .dgmodel import (
    TruncatedComplex, GrassmannComponent, HomologyRanks, CensusEntry,
    exact_rank, build_shafarevich, homology_ranks, build_ie_component,
    grassmann_homology, ie_degree2_census,
)

__version__ = "0.1.0"
