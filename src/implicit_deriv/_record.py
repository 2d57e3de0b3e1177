"""The frozen value records of the package.

A record is a plain class whose fields are its `__slots__`.  It compares
equal to another record of the same class with equal fields, hashes its
fields, prints as `Name(field=value, ...)`, refuses assignment and deletion
with AttributeError, and pickles and copies through its constructor.  Its
methods are written once here, not generated per class, so defining a
record costs no more than defining any class.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # The default reduction would restore each slot with setattr, which a
    # record refuses; rebuilding through the constructor also rechecks it.
    def __reduce__(self):
        return type(self), self._values()
