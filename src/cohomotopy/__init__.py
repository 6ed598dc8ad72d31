"""Exact-arithmetic computation of stable/metastable bracket groups
``[Sigma^{n+k} CP^2, S^n]``, mapping-space homotopy groups, and Gottlieb
(evaluation) subgroup data, driven by a curated plain-text database.

The namespace is lazy (PEP 562): ``import cohomotopy`` imports no
submodule, and the first use of an exported name imports the module that
defines it, so a process compiles only the modules it uses."""

from importlib import import_module

__version__ = "0.1.0"

# each submodule, with the names the package exports from it
_EXPORTS = {
    "abelian": (
        "AbelianError", "FinAbGroup", "GroupHom", "IllDefinedHomError", "IntMatrix",
        "Presentation", "parse_group", "render_group", "smith_diagonal", "smith_normal_form",
    ),
    "cli": (),
    "database": ("Database", "DbError", "DbParseError", "load_db", "loads_db", "validate_db"),
    "extensions": (
        "ComputedRow", "EnumerationBoundError", "ExtensionError", "ExtensionProblem",
        "UnresolvedExtensionError", "apply_evidence", "enumerate_middle_groups", "ext_group",
    ),
    "gottlieb": ("classify_components", "fibration_equivalences", "gottlieb_group", "whitehead_hom"),
    "pipeline": (
        "compute_group", "golden_row", "mapping_space_pi", "paper_notation", "render_table",
        "verify_all",
    ),
    "record": (),
    "symbols": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
