"""Exact arithmetic for skew hyperfields and matroids over them."""

from .errors import (
    DomainMismatchError,
    HypermatError,
    InvalidCircuitsError,
    InvalidHyperfieldError,
    InvalidInputError,
    InvalidPairError,
    InvalidSignatureError,
    InvalidSubgroupError,
    NotAnHMatroidError,
    ResourceLimitError,
    SpecError,
    TheoremViolationError,
    UnsupportedOperationError,
)
from .hmatroid import (
    CircuitSignature,
    HMatroid,
    HVector,
    check_c3prime,
    check_circuit_axioms,
    dual_signature,
    hmatroid_from_circuits,
    hvector,
    perp,
    perp_k,
    residue_matroid,
    signature_from_vectors,
    zero_vector,
)
from .homs import (
    Homomorphism,
    coset_map,
    sign_map,
    table_map,
    validate_homomorphism,
    valuation_map,
)
from .hyperfields import (
    HElement,
    Hyperfield,
    SymbolicSet,
    check_stringent,
    validate_axioms,
)
from .jsonio import VERSION as __version__
from .matroids import (
    ClassicalMatroid,
    enumerate_matroids,
    from_circuits,
    minty_check,
    minty_minimalize,
    uniform_matroid,
)
from .vectorspace import (
    FarkasWitness,
    check_vector_axioms,
    compose_vectors,
    covectors_enumerate,
    farkas_witness,
    is_perfect,
    reconstruct_from_vectors,
    vectors_enumerate,
    vectors_generate,
)
