"""fermiqc: fermion-to-qubit compiler and Trotter-circuit benchmark suite."""

from .fermion import (IntegralSet, FermionOperator, build_hamiltonian, parse_fcidump,
                      synthetic_integrals, write_fcidump)
from .mappings import BKIndexSets, MappingScheme, bk_index_sets, bk_matrix, map_operator
from .pauli import PauliString, QubitOperator, lex_key
from .trotter import OrderingStrategy, TrotterPlan, build_plan, order_terms, plan_for

__all__ = [
    "IntegralSet", "FermionOperator", "build_hamiltonian", "parse_fcidump",
    "synthetic_integrals", "write_fcidump",
    "BKIndexSets", "MappingScheme", "bk_index_sets", "bk_matrix", "map_operator",
    "PauliString", "QubitOperator", "lex_key",
    "OrderingStrategy", "TrotterPlan", "build_plan", "order_terms", "plan_for",
]

__version__ = "0.1.0"
