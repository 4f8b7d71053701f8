"""Reasoner for a low-complexity description logic with a typicality operator.

The package parses knowledge bases in the .kbt text format, normalizes
them, translates them into a Datalog program evaluated by an internal
stratified engine, and answers instance, subsumption, and consistency
queries under the semantics of ranked interpretations.  On top of that
it computes rational-closure ranks for the defeasible part of a simple
KB and decides membership of defeasible inclusions in the closure.
A bounded ranked-model search doubles as an independent refutation
check for small KBs.
"""
from __future__ import annotations

import sys
from importlib import import_module

# the module each public name is imported from, on first access: importing
# typel loads no submodule, and a command loads only the modules it uses
_SOURCES = {
    "datalog": "Atom Compare DatalogError DatalogProgram FactStore Minus Neg Rule Var"
    " dump_program evaluate load_program naive_evaluate stratify",
    "kb": "BOT TOP Bot ConceptAssertion ConceptExpr Conj Exists GCI InstanceOf"
    " KnowledgeBase Name Nominal ProductToRole RoleAssertion RoleChain RoleConj RoleHolds"
    " RoleIncl RoleToProduct SelfRestriction Signature Subsumes Top TypSubsumes"
    " TypicalInstanceOf Typicality concept_text is_simple validate",
    "materialize": "build_program check_consistency check_instance check_subsumption"
    " query_program translate",
    "model": "BoundOverflow RankedInterpretation is_model refute render_model satisfies_query",
    "normalize": "NormalizedKB normalize",
    "parser": "ParseError axiom_text parse_concept parse_kb parse_query print_kb query_text",
    "rc": "InconsistentKBError NotSimpleError RankAssignment build_rc_program closure_program"
    " compute_ranks rc_consistent rc_entails",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}
_SUBMODULES = frozenset(_SOURCES) | {"cli", "record", "_families"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


class _Package(type(sys)):
    def __setattr__(self, name: str, value) -> None:
        # importing a submodule binds it on the package, and the normalize
        # module would hide the normalize function the package exports
        if name not in _MODULE_OF or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
