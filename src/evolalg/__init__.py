"""Evolution algebras over weighted digraphs, finite or countably infinite.

The structure of the package follows the data flow: `graph` holds the row
representation and budgeted traversals, `algebra` the element arithmetic and
principal powers, `operators` the l2 adjacency operators with certified
bounds, `nilpotency` the decision procedures with witnesses, `families` the
built-in example structures, and `cli` the JSON batch front end.
"""
from ._version import __version__
from .errors import (
    BudgetZero,
    EvolAlgError,
    InfiniteRowReached,
    InvalidParams,
    NoColumnAccess,
    NoTailBound,
    ParseError,
    UniverseNotFinite,
    ValidationError,
)
from .scalars import (
    EX_INV_SQRT2,
    EX_ONE,
    EX_SQRT2,
    EX_ZERO,
    ExactScalar,
    Q2,
)
from .graph import (
    INFINITE,
    DegreeAtLeastCap,
    DegreeExact,
    EvolutionStructure,
    FamilyMeta,
    FiniteRow,
    GenerationResult,
    LazyRow,
    cycle_search,
    degree,
    descendants_generation,
    export_window_dot,
    path_is_valid,
)
from .algebra import (
    ApproxElement,
    BasisTransform,
    Element,
    NaturalOnWindow,
    NilAt,
    NotNilUpTo,
    Violation,
    inner_product,
    multiply,
    nil_witness_search,
    norm_upper,
    principal_power,
    square_basis,
    subspace_chain,
    transform_element,
    verify_natural_basis,
    verify_transform_inverse,
)
from .operators import (
    ONES,
    BoundCertificate,
    FiniteCertified,
    OperatorKind,
    PartialSum,
    SchurWeights,
    adjoint_pairing_residual,
    apply_operator,
    frobenius_certificate,
    left_mult_bound,
    matrix_window,
    schur_certificate,
    summability_check,
)
from .nilpotency import (
    Blocked,
    BruteForceReport,
    CycleFound,
    CycleWitness,
    IndexAtLeast,
    IndexExact,
    IndexInfinite,
    LongPath,
    NilpotencyReport,
    Permutation,
    RayPrefix,
    UnboundedDepthSequence,
    Verdict,
    brute_force_nilpotent,
    classify,
    permutation_is_strictly_lower,
    triangularize_window,
    validate_witness,
)
from .families import (
    FAMILY_DOCS,
    FamilySpec,
    build_family,
    comb_hub,
    comb_vertex_kind,
    growing_teeth_depth,
    growing_teeth_hub,
    growing_teeth_tooth,
    list_families,
    markov_weight,
    rary_children,
    rary_parent,
    tree_id,
    tree_label,
)
from .randgen import random_element, random_finite_structure
from .serialize import (
    element_jsonable,
    jsonable,
    parse_element,
    parse_structure,
    serialize_structure,
)
