"""surdsym: exact classification of indefinite binary quadratic forms by the
symmetry type of their continued-fraction periods."""

from .exact import is_square, isqrt
from .forms import (GENERATORS, INVOLUTION_NAMES, DomainLabel, Form,
                    GeneratorWord, InternalError, adjoint, antipodal,
                    apply_generator, apply_word, complementary, conjugate,
                    content, discriminant, domain_of, gen_power, involution,
                    is_primitive, scale, word_str)
from .cf import (CFExpansion, ModularCF, SquareDiscriminantError,
                 cf_parity_variant, cf_period_to_modular_period, cf_rational,
                 cf_surd, cf_value, modular_cf_surd, period_inverse_pair,
                 period_of_class, period_to_forms)
from .periods import (ClassificationError, ClassReport, SymmetryType,
                      canonical_rotation, classify_class, classify_period,
                      classify_square, counts_nonsquare, counts_square,
                      is_bipalindromic, is_palindromic_cyclic,
                      is_primitive_period, normalize_square_form,
                      square_cf_display)
from .reduction import (ReducedCycle, SumRuleResult, check_sum_rule,
                        is_reduced, reduce_classical, reduce_to_H0,
                        reduced_cycle, reduced_representative)
from .oracle import (OracleCounts, OracleInconclusive, h0_class_key,
                     h0_cycle_walk, orbit_bfs, verify_counts, verify_symmetry)
from .census import (StatRow, SumRuleFinding, census_for_delta,
                     census_nonsquare_primitive, census_square,
                     first_occurrence, full_census, stats_rows,
                     sum_rule_sweep, valid_deltas)

__version__ = "0.1.0"

__all__ = [
    "is_square", "isqrt",
    "GENERATORS", "INVOLUTION_NAMES", "DomainLabel", "Form", "GeneratorWord",
    "InternalError", "adjoint", "antipodal", "apply_generator", "apply_word",
    "complementary", "conjugate", "content", "discriminant", "domain_of",
    "gen_power", "involution", "is_primitive", "scale", "word_str",
    "CFExpansion", "ModularCF", "SquareDiscriminantError", "cf_parity_variant",
    "cf_period_to_modular_period", "cf_rational", "cf_surd", "cf_value",
    "modular_cf_surd", "period_inverse_pair", "period_of_class",
    "period_to_forms",
    "ClassificationError", "ClassReport", "SymmetryType", "canonical_rotation",
    "classify_class", "classify_period", "classify_square", "counts_nonsquare",
    "counts_square", "is_bipalindromic", "is_palindromic_cyclic",
    "is_primitive_period", "normalize_square_form", "square_cf_display",
    "ReducedCycle", "SumRuleResult", "check_sum_rule", "is_reduced",
    "reduce_classical", "reduce_to_H0", "reduced_cycle",
    "reduced_representative",
    "OracleCounts", "OracleInconclusive", "h0_class_key",
    "h0_cycle_walk", "orbit_bfs", "verify_counts", "verify_symmetry",
    "StatRow", "SumRuleFinding", "census_for_delta",
    "census_nonsquare_primitive", "census_square", "first_occurrence",
    "full_census", "stats_rows", "sum_rule_sweep", "valid_deltas",
]
