"""Higher-order abstract syntax binders over a de Bruijn core, ``hobind.terms``."""

from .terms import ParseError, PreconditionViolated
from .expr import (
    APP,
    CON,
    ERR,
    VAR,
    ExoticUse,
    Expr,
    ExprView,
    NotProper,
    VApp,
    VCon,
    VErr,
    VLam,
    VVar,
    cases,
    expr_equal,
    expr_size,
    from_db,
    pretty,
    to_db,
)
from .binder import (
    LAM,
    AbstrClassification,
    AppCase,
    Binder1,
    Binder2,
    ConstCon,
    ConstErr,
    ConstVar,
    Exotic,
    Identity,
    LamCase,
    PremiseViolated,
    PurityError,
    abstr,
    abstr_lam_check,
    classify,
    lbind,
    ordinary,
)

__version__ = "0.1.0"
