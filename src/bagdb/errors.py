"""Exception hierarchy shared by the whole engine.

The CLI maps these onto process exit codes, so the split between parse,
type, resource and finiteness errors is load-bearing; see cli.py.  An
error whose constructor takes more than its message pickles as those
arguments (``__reduce__``), so it crosses a process boundary whole.
"""
from __future__ import annotations


class EngineError(Exception):
    """Base class for every error the engine raises deliberately."""


class ParseError(EngineError):
    """Malformed source text (query DSL, rule program, or JSON input)."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        loc = f"line {line}, column {column}"
        if expected:
            super().__init__(f"{message} at {loc} (expected {', '.join(expected)})")
        else:
            super().__init__(f"{message} at {loc}")

    def __reduce__(self) -> tuple:
        return type(self), (self.message, self.line, self.column, self.expected), self.__dict__


class EngineTypeError(EngineError):
    """Value or query is ill-typed for the requested operation."""


class UnknownTableError(EngineTypeError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown table: {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), (self.name,), self.__dict__


class SchemaError(EngineTypeError):
    """Rows of one table disagree on shape, or a value fails its schema."""


class EmptyAggregateError(EngineError):
    """`the` was applied to an empty bag; there is no element to return."""


class ResourceLimitError(EngineError):
    """A guard tripped: powerbag too large or too many worlds to enumerate."""


class NotFiniteError(EngineError):
    """Exact backend asked to enumerate a distribution with infinite support."""


class NormalizationError(EngineError):
    """Weights of a finite distribution do not sum to 1 within tolerance."""


class ProgramError(EngineError):
    """Rule program is structurally invalid (unbound variable, recursion, ...)."""


class WorldEvalError(EngineError):
    """Query evaluation failed inside one possible world.

    The message names the world by ``index`` (the sample index of an mc
    world, the entry index of an exact one) and its row count, and shows
    only the start of its repr; ``world`` holds the whole world.
    """

    def __init__(self, world, cause: EngineError, index: int):
        self.world = world
        self.cause = cause
        self.index = index
        rows = world.bag.elements
        super().__init__(
            f"query failed in world {index} ({len(rows)} rows: {_preview(rows)}): {cause}")

    def __reduce__(self) -> tuple:
        return type(self), (self.world, self.cause, self.index), self.__dict__


_PREVIEW_CHARS = 200


def _preview(rows) -> str:
    """repr of the first rows, cut at about _PREVIEW_CHARS characters."""
    parts, size = [], 0
    for row in rows:
        if size > _PREVIEW_CHARS:
            break
        parts.append(repr(row))
        size += len(parts[-1]) + 2
    text = ", ".join(parts)
    if len(parts) < len(rows) or len(text) > _PREVIEW_CHARS:
        text = text[:_PREVIEW_CHARS] + " ..."
    return f"[{text}]"
