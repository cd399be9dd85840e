"""Minimal-dimension reparameterizations for monadic second-order logic
on finite labelled linear orders: compilation to automata, type monoids,
growth-rate witnesses and interpretation reduction."""

__version__ = "0.1.0"

from .errors import ChainrepError, InputError, ParseError, ResourceLimitError
from .formula import Formula, Signature, free_variables, parse, render
from .words import MarkedWord, Word, all_words
from .compiler import (DEFAULT_STATE_BUDGET, Dfa, compile, dfa_empty, dfa_to_formula,
                       max_fiber, minimize_dfa)
from .monoid import (TypeMonoid, is_pumpable, mark_shadow, ramsey_bound,
                     transition_monoid)
from .oracle import (CheckReport, check_canonical_form, check_reparameterization,
                     count_in_set, evaluate, satisfying_tuples)
from .reparam import (Reparameterization, Step, TypeAlgebra, local_normal_form,
                      minimal_reparameterization)
from .growth import (WitnessStructure, brute_growth, growth_degree,
                     growth_lower_witness, no_decrement_witness, pump_witness)
from .interp import (InterpretationSpec, ReducedInterpretation, Structure,
                     apply_interpretation, check_equivalence,
                     parse_interpretation, reduce_interpretation)

__all__ = [
    "ChainrepError", "InputError", "ParseError", "ResourceLimitError",
    "Formula", "Signature", "free_variables", "parse", "render",
    "MarkedWord", "Word", "all_words",
    "DEFAULT_STATE_BUDGET", "Dfa", "compile", "dfa_empty", "dfa_to_formula",
    "max_fiber", "minimize_dfa",
    "TypeMonoid", "is_pumpable", "mark_shadow", "ramsey_bound",
    "transition_monoid",
    "CheckReport", "check_canonical_form", "check_reparameterization",
    "count_in_set", "evaluate", "satisfying_tuples",
    "Reparameterization", "Step", "TypeAlgebra", "local_normal_form",
    "minimal_reparameterization",
    "WitnessStructure", "brute_growth", "growth_degree",
    "growth_lower_witness", "no_decrement_witness", "pump_witness",
    "InterpretationSpec", "ReducedInterpretation", "Structure",
    "apply_interpretation", "check_equivalence", "parse_interpretation",
    "reduce_interpretation",
    "__version__",
]
