"""Exact-arithmetic computational group theory toolkit.

Reproduces, at desk scale, the computations behind a family of results on
products of conjugacy classes in finite simple groups: Zsigmondy-prime
arithmetic, exact character tables (class-algebra method and
Murnaghan-Nakayama), class-algebra structure constants, generating-triple
searches, product-of-classes coverage, and fixed-point-space bounds.
Everything is exact; there are no numerical tolerances anywhere.
"""

from .cyclotomic import Cyclotomic, sqrt_int, zeta
from .finitefield import FiniteField, conway_polynomial
from .fflinalg import FFMatrix, ff_rank, ff_simultaneous_eigenspaces
from .perms import Permutation, parse_perm
from .permgroup import (ConjClassData, StabilizerChain, build_chain,
                        conjugacy_classes, is_primitive, is_transitive)
from .chartab import CharacterTable, class_mult_coeff, dixon_table, indicator
from .symmchar import an_table, mn_value, sn_table
from .classalg import covers, eps_a, n_a, thompson_check, triple_count, two_mth_powers
from .gentriples import (beauville_search, build_lemma42, build_lemma43,
                         enumerate_triples, search_triple, spread_class_check,
                         translation_search, two_subgroup_cover)
from .fixspace import (ModuleRep, eigdims_from_character, fixed_dim_ff,
                       neumann_scan, property_e_witness, scott_check,
                       tensor_power_min_ratio)
from .zsigmondy import classify_small_zsigmondy, phi_star, prime_divisors

__version__ = "0.1.0"
