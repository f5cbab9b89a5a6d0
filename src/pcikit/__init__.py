"""Exact primitive central idempotents of rational group algebras of
finite abelian groups, with an independent character-theoretic cross-check
for every result."""

from .algebra import (
    AlgebraElement,
    FactoredIdempotent,
    are_orthogonal,
    convolve,
    expand_factored,
    is_idempotent,
    kernel_subgroup,
    translate,
)
from .cyclotomic import (
    CycloAlgebraElement,
    CycloNumber,
    galois_apply,
    ramanujan_sum,
    ramanujan_sum_direct,
)
from .diagram import (
    PciDiagram,
    PciRecord,
    PciVertex,
    build_pci_diagram,
    cross_prime_product,
    cyclic_group_spec,
    cyclic_rational_pcis,
    emit_dot,
    extension_children,
    galois_orbit_collapse,
    galois_orbits,
    lift_into_extension,
    lift_to_product,
    pci_records,
    pci_set,
    splitting_field_pcis,
)
from .errors import (
    CapExceededError,
    GroupSpecError,
    InconsistencyError,
    InvariantError,
    PcikitError,
    SpecMismatchError,
    VerificationError,
)
from .groups import (
    AbelianGroupSpec,
    GroupElement,
    LongGenerator,
    PrimaryGroupSpec,
    element,
    element_from_index,
    element_index,
    element_order,
    elements,
    embed_generator,
    group_mul,
    identity,
    long_generator_sequence,
    parse_group_spec,
    subgroup_closure,
)
from .kernels import active_backend
from .oracle import (
    CharacterIndex,
    PciSetComparison,
    WedderburnProfile,
    WedderburnRow,
    compare_pci_sets,
    dual_characters,
    oracle_pci_set,
    order_census,
    rational_pci_of_character,
    wedderburn_profile,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
