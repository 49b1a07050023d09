"""bagdb: a bag-semantics database engine with probabilistic generation.

Deterministic core: canonical multisets (`Bag`) with a fold-based
commutative-monoid interface, and a query algebra over structured values
(`algebra`).  Probabilistic layer: finite exact distributions and seeded
Monte-Carlo sampling (`prob`), distributions over bags with generative
rule programs (`pbmonad`).  A textual query language (`dsl`) and a CLI
(`cli`) sit on top.  The slow independent re-implementations used for
cross-checking live with the tests, in `tests/oracle.py` and
`tests/dual_routes.py`.

``ExactDist`` and ``Seed`` are imported from `prob` on first use (PEP 562),
so that importing the package, or running ``bagdb query``, does not load
the probabilistic layer.
"""
from .bags import EMPTY, Bag
from .errors import (
    EmptyAggregateError,
    EngineError,
    EngineTypeError,
    NormalizationError,
    NotFiniteError,
    ParseError,
    ProgramError,
    ResourceLimitError,
    SchemaError,
    UnknownTableError,
    WorldEvalError,
)
from .values import (
    UNIT,
    BagV,
    Bool,
    Int,
    Real,
    Str,
    Tagged,
    Tuple,
    Unit,
    Value,
    compare,
    deserialize,
    from_json,
    infer_schema,
    serialize,
    to_json,
    typecheck,
    unify_schema,
)

__version__ = "0.1.0"

_FROM_PROB = ("ExactDist", "Seed")


def __getattr__(name: str):
    if name in _FROM_PROB:
        from . import prob

        return getattr(prob, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_FROM_PROB})

__all__ = [
    "Bag",
    "EMPTY",
    "ExactDist",
    "Seed",
    "Value",
    "Int",
    "Real",
    "Bool",
    "Str",
    "Unit",
    "UNIT",
    "Tuple",
    "Tagged",
    "BagV",
    "compare",
    "to_json",
    "from_json",
    "serialize",
    "deserialize",
    "infer_schema",
    "unify_schema",
    "typecheck",
    "EngineError",
    "ParseError",
    "EngineTypeError",
    "SchemaError",
    "UnknownTableError",
    "EmptyAggregateError",
    "ResourceLimitError",
    "NotFiniteError",
    "NormalizationError",
    "ProgramError",
    "WorldEvalError",
    "__version__",
]
