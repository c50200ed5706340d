"""Record: the base of the package's frozen value types.

A subclass names its fields in _fields and holds them in __slots__.  Its
own __init__ gives the signature and defaults and passes the values, in
_fields order, to Record.__init__, the one place that stores fields,
through the slot descriptors' __set__, which bypasses the refusing
__setattr__ below.
Record adds what a frozen dataclass would: equality and hash over the
fields, between instances of one type only; a repr that names every
field; no assignment or deletion; and pickling and copying through the
constructor.  Frozen dataclasses cost each CLI process the import of
dataclasses (with inspect, ast and dis) and generated code per class.
"""


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _stores: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the __set__ of each field's slot descriptor, looked up once per class
        cls._stores = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __init__(self, *values):
        for store, value in zip(self._stores, values, strict=True):
            store(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())
