"""fermiqc: fermion-to-qubit compiler and Trotter-circuit benchmark suite."""

from .fermion import (IntegralSet, FermionOperator, build_hamiltonian, parse_fcidump,
                      synthetic_integrals, write_fcidump)
from .mappings import BKIndexSets, MappingScheme, bk_index_sets, map_operator
from .pauli import PauliString, QubitOperator, lex_order
from .trotter import OrderingStrategy, TrotterPlan, order_terms, plan_for

__all__ = [
    "IntegralSet", "FermionOperator", "build_hamiltonian", "parse_fcidump",
    "synthetic_integrals", "write_fcidump",
    "BKIndexSets", "MappingScheme", "bk_index_sets", "map_operator",
    "PauliString", "QubitOperator", "lex_order",
    "OrderingStrategy", "TrotterPlan", "order_terms", "plan_for",
]

__version__ = "0.1.0"
