"""Exact subgroup lattices and fuzzy-subgroup counts for the groups U_6n.

U_6n is the order-6n group generated by a and b with a^(2n) = b^3 = 1
and bab = a.  The package enumerates its (normal) subgroups from the
divisors of 2n, orders them by containment, counts subgroup chains
from the factorization shape of 2n, and derives from those chains the
number of fuzzy subgroups (and normal fuzzy subgroups) up to the
grade-comparison equivalence.  A brute-force oracle recomputes everything the slow way
for small n so the closed forms never go unchecked; import it from
`u6n.oracle` and `u6n.verify`, which the counting path never loads.
No u6n module imports dataclasses or csv, and neither `import u6n` nor
`import u6n.cli` loads json or pathlib: the CLI imports json only to
print JSON.  The lattice export is u6n.lattice's write_json and dot_text;
its dict form, export_json and export_dot, stays there as their
reference.
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
    hasse_edges,
)
from .subgroups import (
    FactorizationBudgetExceeded,
    SubgroupDescriptor,
    divisors,
    enumerate_subgroups,
    factorize,
    subgroup_elements,
    subgroup_leq,
    subgroup_order,
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
    "divisors",
    "enumerate_subgroups",
    "factorize",
    "format_element",
    "hasse_edges",
    "identity",
    "inverse",
    "multiply",
    "subgroup_elements",
    "subgroup_leq",
    "subgroup_order",
    "twisted_exists",
]
