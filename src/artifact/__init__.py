"""Actor existence, construction and verification for finite-dimensional
structure-constant algebras and small finite groups."""

from .fields import QQ, GF, Field, FieldError, field_from_json
from .linalg import LinAlgError, Matrix, basis_vector
from .reporting import Report
from .algebra import (CATEGORIES, SUITES, Algebra, InputError,
                      algebra_from_json, annihilator, check_identity,
                      derived_subspace, identity_suite, is_ideal,
                      make_algebra, make_algebra_from_products, quotient)
from .actions import (ActionPair, action_from_json, check_derived_action,
                      conjugation_action,
                      crosscheck_semidirect, make_action, semidirect)
from .constructions import (KINDS, ActorAlgebra, BiMap, ClosureError,
                            ConstructionError, actor_from_json,
                            biderivations, bimultipliers, canonical_d,
                            condition1_check, condition2_check,
                            construct, crossed_module_check, derivations,
                            factor_through_actor, multipliers,
                            sufficient_conditions, zero_actor)
from .existence import Verdict, actor_pipeline, bider_variants_agree
from .words import (ASSOCIATIVE_W1, ASSOCIATIVE_W2, COMMUTATIVE_EXAMPLE_W2,
                    LEIBNIZ_W1, LEIBNIZ_W2, LIE_W1, LIE_W2, MODES, T_SET,
                    WORDS_FOR_CATEGORY, Word, canon_monomial,
                    check_swap_symmetry, check_T_coverage, expand_condition4,
                    parse_word, validate_word_on_algebra)
from .groups import (CapError, Group, GroupAction, automorphisms, cyclic,
                     dihedral, direct_product, group_from_json,
                     group_universality_check, holomorph_check,
                     inner_automorphisms, klein4, make_group,
                     make_group_action, quaternion8, symmetric3, trivial)
from .corpus import (a5_leibniz, abelian, diagonal_algebra, dual_numbers,
                     generate_atlas, heisenberg, m2_rationals, sample_action,
                     sample_algebra, sl2, strict_upper3, truncated_poly,
                     zero_algebra)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
