"""Frozen records: ``Frozen``, the immutable base, and ``Node``, the one
base class of the syntax nodes (the query and row-expression AST, sampler
expressions, the rule AST, tokens and schemas) and of ``ExactDist``,
``Seed`` and ``PBSampler``.

A node behaves as a generated frozen record class would, but nothing is
generated per class: the methods below are shared, driven by each class's
field names, which ``__init_subclass__`` reads from its annotations.
Values and bags are slotted ``Frozen`` classes (see ``values``).
"""
from __future__ import annotations

_setattr = object.__setattr__


class Frozen:
    """Assigning or deleting an attribute raises ``FrozenInstanceError``,
    imported only then: its module imports ``inspect``, slow at start-up.
    A constructor sets attributes with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Node(Frozen):
    """Fields are given positionally, in annotation order, and stored in the
    instance ``__dict__``; anything else kept there (``algebra.compile_expr``
    keeps closures) is not a field, so ``==``, ``hash`` and ``repr`` do not
    see it.  ``==`` holds between two nodes of one class whose field tuples
    are equal, ``hash`` is the field tuple's, ``repr`` is
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises ``FrozenInstanceError``.  A subclass may define
    ``__post_init__``, which runs after the fields are set and may replace
    one with ``object.__setattr__``."""

    _fields: tuple[str, ...] = ()
    _post = False  # whether the class defines __post_init__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._post = hasattr(cls, "__post_init__")

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments but {len(args)} were given")
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        if self._post:
            self.__post_init__()  # type: ignore[attr-defined]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"
