"""bagdb: a bag-semantics database engine with probabilistic generation.

Deterministic core: canonical multisets (`Bag`) with a fold-based
commutative-monoid interface, and a query algebra over structured values
(`algebra`).  Probabilistic layer: finite exact distributions and seeded
Monte-Carlo sampling (`prob`), distributions over bags with generative
rule programs (`pbmonad`).  A textual query language (`dsl`) and a CLI
(`cli`) sit on top.  The slow independent re-implementations used for
cross-checking live with the tests, in `tests/oracle.py` and
`tests/dual_routes.py`.
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
from .prob import ExactDist, Seed
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
