"""Exact subgroup lattices and fuzzy-subgroup counts for the groups U_6n.

U_6n is the order-6n group generated by a and b with a^(2n) = b^3 = 1
and bab = a.  The package enumerates its subgroups from the divisor
structure of 2n, orders them by containment, counts subgroup chains
from the factorization shape of 2n, and derives from those chains the
number of fuzzy subgroups (and normal fuzzy subgroups) up to the
grade-comparison equivalence.  A brute-force oracle recomputes everything the slow way
for small n so the closed forms never go unchecked; import it from
`u6n.oracle` and `u6n.verify`, which the counting path never loads.
No u6n module imports dataclasses, and neither `import u6n` nor `import
u6n.cli` loads json, csv or pathlib: the CLI imports json and csv only to
print JSON or CSV.
"""

from .chains import (
    ChainCounts,
    ChainTable,
    HeightLimitExceeded,
    chain_counts,
    compute_chain_table,
    count_chains,
)
from .group import (
    DEFAULT_ORACLE_LIMIT,
    Element,
    GroupParams,
    OracleLimitExceeded,
    all_elements,
    format_element,
    identity,
    inverse,
    multiply,
)
from .lattice import (
    Lattice,
    build_lattice,
    export_dot,
    export_json,
    hasse_edges,
)
from .subgroups import (
    FactorizationBudgetExceeded,
    SubgroupDescriptor,
    contains_element,
    cyclic,
    divisors,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    factorize,
    format_descriptor,
    full,
    subgroup_elements,
    subgroup_leq,
    subgroup_order,
    twisted,
    twisted_exists,
)

__all__ = [
    "ChainCounts",
    "ChainTable",
    "DEFAULT_ORACLE_LIMIT",
    "Element",
    "FactorizationBudgetExceeded",
    "GroupParams",
    "HeightLimitExceeded",
    "Lattice",
    "OracleLimitExceeded",
    "SubgroupDescriptor",
    "all_elements",
    "build_lattice",
    "chain_counts",
    "compute_chain_table",
    "count_chains",
    "contains_element",
    "cyclic",
    "divisors",
    "enumerate_normal_subgroups",
    "enumerate_subgroups",
    "export_dot",
    "export_json",
    "factorize",
    "format_descriptor",
    "format_element",
    "full",
    "hasse_edges",
    "identity",
    "inverse",
    "multiply",
    "subgroup_elements",
    "subgroup_leq",
    "subgroup_order",
    "twisted",
    "twisted_exists",
]
