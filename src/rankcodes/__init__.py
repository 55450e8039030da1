"""Rank-metric (Gabidulin) codes over GF(q^n): construction, bounded
rank-distance decoding, subspace and subfield subcodes, direct sums with
beyond-capability decoding, and seeded Monte Carlo experiments."""

from .directsum import (DirectSumCode, DirectSumDecodeResult, MonteCarloResult,
                        decode_experiment, direct_sum_violations,
                        rank_event_rate, rank_leq_probability,
                        sample_channel_error, success_probability)
from .field import FieldTower, find_irreducible, is_irreducible, is_prime
from .gabidulin import (DecodingFailure, GabidulinCode, default_generator,
                        dual_vector, moore_matrix)
from .linpoly import LinearizedPoly
from .qlinalg import (CoordinateSolver, count_rank_matrices, ext_nullspace,
                      ext_solve, random_error, random_rows, rank_of_vector,
                      rank_q, rank_rows)
from .subfield import (SubfieldEmbedding, SubfieldFactorization, block_diagonal,
                       compute_factorization, subfield_success_probability,
                       verify_uniqueness)
from .subspace import SubspaceBasis, SubspaceSubcode, TrivialSubcodeError

__all__ = [
    "CoordinateSolver",
    "DecodingFailure",
    "DirectSumCode",
    "DirectSumDecodeResult",
    "FieldTower",
    "GabidulinCode",
    "LinearizedPoly",
    "MonteCarloResult",
    "SubfieldEmbedding",
    "SubfieldFactorization",
    "SubspaceBasis",
    "SubspaceSubcode",
    "TrivialSubcodeError",
    "block_diagonal",
    "compute_factorization",
    "count_rank_matrices",
    "decode_experiment",
    "default_generator",
    "direct_sum_violations",
    "dual_vector",
    "ext_nullspace",
    "ext_solve",
    "find_irreducible",
    "is_irreducible",
    "is_prime",
    "moore_matrix",
    "random_error",
    "random_rows",
    "rank_event_rate",
    "rank_leq_probability",
    "rank_of_vector",
    "rank_q",
    "rank_rows",
    "sample_channel_error",
    "subfield_success_probability",
    "success_probability",
    "verify_uniqueness",
]

__version__ = "0.1.0"
