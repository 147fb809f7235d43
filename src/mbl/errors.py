"""Shared exception types, and the base of the package's value classes."""


class VerificationError(RuntimeError):
    """An exact check that is expected to always hold turned out violated.

    Raised by operations whose postconditions restate proven facts (strict
    descent of capacities, existence of the central point, ...).  Seeing this
    exception means a bug, not bad input.
    """


class _Record:
    """An immutable value whose positional fields are the annotated names of
    its class; `__post_init__`, equality, hash, repr and refused assignment
    follow the frozen dataclass; a `__dict__` stays for `cached_property`."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
