"""Immutable value records: concepts, axioms, queries, Datalog terms and rules.

A record class subclasses Record, is decorated with @record and lists its
fields as annotations, in order, each with an optional default as its
class attribute; it inherits no fields.  It may name further slots in
__slots__: they hold cached values, set with object.__setattr__, and take
no part in construction, equality, hashing, printing or pickling.

Records of the same class are equal when their fields are, and records of
different classes never are, so Name("a") != Nominal("a").  A record
hashes by its fields, prints as Name(name='a'), unpacks in a class pattern
(case Name(n)), pickles by its fields and refuses assignment and deletion;
_replace gives a copy with some fields changed.  Each class gets one
generated __init__, which stores the fields, keeps the tuple of their
values for the shared methods, and then runs __post_init__ if the class
has one.  Nothing else is generated per class, which keeps defining the
records, and so importing typel, cheap.  A decorator builds the classes,
not a metaclass, so they stay instances of type: on a class of another
metaclass, each isinstance test or class pattern that is not an exact
type match looks up and calls __instancecheck__.
"""

from __future__ import annotations


def record(cls: type) -> type:
    """cls, a subclass of Record, made a record class: its own annotations
    are its fields, and it gets their slots, __match_args__ and __init__."""
    ns = dict(cls.__dict__)
    for name in ("__dict__", "__weakref__", *ns.get("__slots__", ())):
        ns.pop(name, None)
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {f: ns.pop(f) for f in fields if f in ns}
    ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
    ns["__match_args__"] = fields
    cls = type(cls)(cls.__name__, cls.__bases__, ns)
    # __init__ stores each field and then the tuple of values through the
    # slots' descriptors, past the __setattr__ that makes a record
    # immutable, and then runs __post_init__
    params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
    stores = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
    values = "".join(f"{f}, " for f in fields)
    post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    source = f"def __init__(self{params}):{stores}\n    _set_values(self, ({values})){post_init}"
    namespace = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    namespace.update(_defaults=defaults, _set_values=Record._values.__set__)
    exec(source, namespace)
    cls.__init__ = namespace["__init__"]
    return cls


class Record:
    """Base class of the immutable records; see the module docstring."""

    __slots__ = ("_values",)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy of this record with the named fields changed."""
        return type(self)(**dict(zip(self.__match_args__, self._values), **changes))
