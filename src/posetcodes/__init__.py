"""Linear codes over finite fields under poset metrics.

Compute generalized weight hierarchies, verify the chain condition and
flag uniqueness, and evaluate the chain-partition counting bound.
"""

from .codes import (
    Flag,
    LinearCode,
    find_maximal_flag,
    flatten_matrix,
    generalized_weight,
    hierarchy_within_bounds,
    is_flag_unique,
    load_code,
    poset_distance,
    poset_weight,
    rt_weight,
    support_of_code,
    support_of_vector,
    weight_hierarchy,
)
from .counting import (
    BoundReport,
    CensusReport,
    census,
    chain_condition_lower_bound,
    load_partition,
    partition_from_dict,
)
from .errors import (
    BudgetExceeded,
    ChainConditionUnsatisfied,
    CycleError,
    EmptyInputError,
    FieldMismatch,
    InputError,
    LengthMismatch,
    PosetCodesError,
    PreconditionViolated,
    RangeError,
    RankError,
)
from .gf import GF, FiniteField
from .linalg import (
    DEFAULT_BUDGET,
    Matrix,
    Subspace,
    contains,
    enumerate_nonzero_codewords,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    gaussian_row,
    is_subspace_of,
    matrix,
    read_generator_file,
    rref,
    span,
    zero_subspace,
)
from .poset import (
    ChainPartition,
    Poset,
    antichain,
    chain,
    disjoint_chains,
    from_cover_relations,
    load_poset,
    poset_from_dict,
    weak_order,
)

__version__ = "0.1.0"
