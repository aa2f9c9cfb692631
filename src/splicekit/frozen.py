"""Base of the immutable value classes, and the pass rule of the reports.

The plain result records are ``typing.NamedTuple``s. The classes that
check their fields on construction or cache derived values (continued
fractions, resolution graphs, splice diagrams) derive from ``Frozen``
instead, so that no route builds one unchecked.

A condition report holds its entries, each with its own ``ok``, in its
last field; every report takes its ``ok`` and ``failures`` from
``report_ok`` and ``report_failures``, so the rule is stated once.
"""

from __future__ import annotations


class Frozen:
    """Fields live in ``__slots__`` (a subclass that caches adds a
    ``__dict__`` slot for its cached properties) and are set once, by
    ``_init``; assigning or deleting any attribute raises AttributeError.
    An instance equals only an instance of its own class whose ``_compared``
    fields are equal, hashes those fields (a class whose fields include a
    mapping sets ``__hash__ = None``), reads as ``Name(field=value, ...)``
    over ``_fields``, and copies and pickles through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


@property
def report_ok(report) -> bool:
    """Whether every entry of the report, its last field, passes."""
    return all(e.ok for e in report[-1])


@property
def report_failures(report) -> tuple:
    """The entries of the report, its last field, that fail, in order."""
    return tuple(e for e in report[-1] if not e.ok)
