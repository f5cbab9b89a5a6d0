"""Exact primitive central idempotents of rational group algebras of
finite abelian groups, with an independent character-theoretic cross-check
for every result.

The names below are the library surface; every other function stays
importable from its own module (pcikit.diagram, pcikit.algebra, ...)."""

from .algebra import AlgebraElement
from .diagram import PciDiagram, PciRecord, build_pci_diagram, pci_records
from .errors import (
    CapExceededError,
    GroupSpecError,
    InconsistencyError,
    InvariantError,
    PcikitError,
    SpecMismatchError,
    VerificationError,
)
from .groups import AbelianGroupSpec, PrimaryGroupSpec, parse_group_spec
from .kernels import active_backend  # read by perfbench/worker.py
from .oracle import PciSetComparison, WedderburnProfile, compare_pci_sets, wedderburn_profile

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupSpec", "AlgebraElement", "CapExceededError", "GroupSpecError",
    "InconsistencyError", "InvariantError", "PciDiagram", "PciRecord",
    "PciSetComparison", "PcikitError", "PrimaryGroupSpec", "SpecMismatchError",
    "VerificationError", "WedderburnProfile", "active_backend", "build_pci_diagram",
    "compare_pci_sets", "parse_group_spec", "pci_records", "wedderburn_profile",
]
