"""Plain records: classes whose fields are the ones their `_fields` name.

A record's class writes its own `__init__`; this base gives it what
`@dataclass` would, read off `_fields` in order: `==` holds between
instances of one class whose fields are, one by one, the same object or
equal (another class gets `NotImplemented`), `repr` is
`Name(field=value!r, ...)`, pickling and `copy` rebuild through the
constructor, and `copy.replace` calls it with the changed fields. A
`Record` is unhashable; a `FrozenRecord` hashes its field tuple and refuses
assignment and deletion, so its `__init__` sets its fields through `_set`
or `_init`.

The library's value classes compare through `Record.__eq__`: `Machine`
(so `DetSystem` and `StochSystem`), `DetLens`, `DetChart`, `FinMap`,
`Span`, `FamilyMatch`, `Dist`, `OdeSystem`, `OdeLens`, `SquareResult`,
`SuiteResult`, `ProjectFile`, `Trajectory`, `ResidualResult` and
`FunctorialityResult`. A field may be a property, as `FamilyMatch.witness`
is, and a class may keep further slots, such as `OdeSystem`'s caches, that
are not fields. `FinMap` keeps its own `__hash__`. Those that keep their
own `__eq__`:

- `FinSet` and `ProductSet`, which every boundary check compares: a
  `ProductSet` equals a `FinSet` that lists its labels;
- `DetInterface`, whose identity shortcuts on its two alphabets the square
  constructors take at each of a square's four corners;
- `Family`, which compares its labels, not its fields;
- `expr._Node`, which compares expressions as shared graphs (`Dag`).
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        # identity before `==`, as tuple comparison has it: a NaN field
        # equals itself
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and not mine == theirs:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __replace__(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class FrozenRecord(Record):
    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
