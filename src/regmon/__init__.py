"""Algebra of recursion-free regular monitors.

Parsing and printing, operational semantics, verdict and omega-verdict
equivalence checking, axiom systems with soundness fuzzing, normalization to
canonical forms with emitted equational derivations, and an independent
derivation checker.

``import regmon`` loads none of the modules: each public name below imports
its home module the first time it is read (PEP 562), so a program that only
decides closed equivalence never compiles the rewriting or the proofs.  The
name is looked up in its home module on every read, never copied here, so
it is always the object that the module holds.
"""

import importlib

_HOMES = {
    "terms": (
        "END NO YES Alphabet Equation Monitor NonClosedInput Prefix Sum Var ac_equal"
        " ac_normalize apply_subst depth is_closed size_of vars_of"
    ),
    "syntax": "ParseError parse_alphabet parse_equation parse_monitor print_monitor",
    "semantics": "TAU TraceLang accepts lang_of omega_canon rejects weak_reach",
    "equivalence": (
        "Counterexample Decision decide omega_equiv_closed omega_equiv_open"
        " oracle_equiv_open verdict_equiv_closed verdict_equiv_open"
    ),
    "axioms": "AxiomInstance instantiate list_system soundness_fuzz witness_family",
    "normalize": (
        "CanonicalForm finite_act_rnf normal_form_closed omega_nf_closed omega_open_nf"
        " open_nf open_rnf reduced_nf_closed unary_omega_nf unary_rnf"
    ),
    "prooflog": "CheckError Derivation check_derivation parse_derivation print_derivation",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
