"""Exact-arithmetic computation of stable/metastable bracket groups
``[Sigma^{n+k} CP^2, S^n]``, mapping-space homotopy groups, and Gottlieb
(evaluation) subgroup data, driven by a curated plain-text database."""

from .abelian import (
    AbelianError,
    FinAbGroup,
    GroupHom,
    IllDefinedHomError,
    IntMatrix,
    Presentation,
    parse_group,
    render_group,
    smith_diagonal,
    smith_normal_form,
    subgroup_and_quotient,
)
from .database import Database, DbError, DbParseError, load_db, loads_db, validate_db
from .extensions import (
    EnumerationBoundError,
    ExtensionError,
    ExtensionProblem,
    UnresolvedExtensionError,
    apply_evidence,
    enumerate_middle_groups,
    ext_group,
)
from .gottlieb import (
    classify_components,
    fibration_equivalences,
    gottlieb_group,
    null_component_gottlieb,
    whitehead_hom,
)
from .pipeline import (
    ComputedRow,
    compute_group,
    golden_row,
    mapping_space_pi,
    paper_notation,
    render_table,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianError",
    "ComputedRow",
    "Database",
    "DbError",
    "DbParseError",
    "EnumerationBoundError",
    "ExtensionError",
    "ExtensionProblem",
    "FinAbGroup",
    "GroupHom",
    "IllDefinedHomError",
    "IntMatrix",
    "Presentation",
    "UnresolvedExtensionError",
    "apply_evidence",
    "classify_components",
    "compute_group",
    "enumerate_middle_groups",
    "ext_group",
    "fibration_equivalences",
    "golden_row",
    "gottlieb_group",
    "load_db",
    "loads_db",
    "mapping_space_pi",
    "null_component_gottlieb",
    "paper_notation",
    "parse_group",
    "render_group",
    "render_table",
    "smith_diagonal",
    "smith_normal_form",
    "subgroup_and_quotient",
    "validate_db",
    "verify_all",
    "whitehead_hom",
]
