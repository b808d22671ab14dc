"""Class names, arrow labels and the naming of implicit classes.

The paper's schemas draw their nodes from a set ``N`` of classes and
their arrow labels from a set ``L`` (section 2).  We realise ``N`` as a
small algebraic datatype:

* :class:`BaseName` — an ordinary, user-supplied class name such as
  ``Dog`` or ``Person``;
* :class:`ImplicitName` — a class invented by the *upper* properization
  of section 4.2.  The paper requires that implicit classes "describe
  their own origin" so that subsequent merges can recognise them; we
  honour that by naming the class with the (frozen) set of classes it
  was introduced below;
* :class:`GenName` — a *generalization* class introduced above a set of
  classes by the lower properization of section 6.

Implicit and generalization names are *flattened* on construction: an
``ImplicitName`` whose member set itself contains implicit names absorbs
their members, so ``Imp({Imp(D, E), F})`` is ``Imp(D, E, F)``.  The
upper merge reaches Figure 4/5's associativity without it, by stripping
implicit classes before each merge; the set-based oracle, which still
takes unstripped input, relies on it.

Arrow labels are plain strings; a tiny :func:`check_label` guard keeps
obviously broken values (non-strings, empty strings) out of schemas.
"""

from __future__ import annotations

from functools import total_ordering
from typing import FrozenSet, Iterable, Tuple, Union

from repro.exceptions import SchemaValidationError
from repro.perf.interning import InternTable

# Hash-consing tables: structurally equal names become pointer-equal,
# so the millions of element comparisons inside closure computations
# short-circuit on identity (CPython compares identity before calling
# __eq__).  Structural __eq__/__hash__ stay correct for values evicted
# from a full table, so interning is transparent.
_BASE_INTERN = InternTable("names.base")
_IMPLICIT_INTERN = InternTable("names.implicit")
_GEN_INTERN = InternTable("names.gen")

__all__ = [
    "BaseName",
    "ImplicitName",
    "GenName",
    "ClassName",
    "Label",
    "name",
    "names",
    "check_label",
    "sort_key",
    "base_members",
]


Label = str


@total_ordering
class BaseName:
    """An ordinary class name, wrapping a non-empty string.

    Instances are immutable, hashable and totally ordered (by their
    string), so schemas built from them render deterministically.
    Hashes are precomputed: names are hashed millions of times inside
    closure computations, and the recursive structure of composite
    names makes on-demand hashing a measurable hot spot.
    """

    __slots__ = ("_value", "_hash")

    def __new__(cls, value: str):
        if cls is BaseName and type(value) is str:
            cached = _BASE_INTERN.get(value)
            if cached is not None:
                return cached
        if not isinstance(value, str) or not value:
            raise SchemaValidationError(
                f"class names must be non-empty strings, got {value!r}"
            )
        self = object.__new__(cls)
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_hash", hash(("BaseName", value)))
        if cls is BaseName:
            _BASE_INTERN.put(value, self)
        return self

    def __init__(self, value: str):
        # Construction (and interning) happens in __new__; nothing to do.
        pass

    @property
    def value(self) -> str:
        """The underlying string."""
        return self._value

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("BaseName is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, BaseName) and self._value == other._value

    def __lt__(self, other) -> bool:
        return sort_key(self) < sort_key(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BaseName({self._value!r})"

    def __str__(self) -> str:
        return self._value


def _flatten(members: Iterable["ClassName"], kind) -> FrozenSet["ClassName"]:
    """Absorb nested names of the same *kind* into a flat member set."""
    flat = set()
    for member in members:
        if isinstance(member, kind):
            flat.update(member.members)
        else:
            flat.add(_as_name(member))
    return frozenset(flat)


@total_ordering
class ImplicitName:
    """The name of an implicit class introduced *below* a set of classes.

    Section 4.2 constructs, for every multi-element set ``X`` of minimal
    reachable classes, a new class ``X̄`` that specializes every member
    of ``X``.  Naming the class by ``X`` itself both records its origin
    (as the paper requires) and makes equal origins collide, which is
    what keeps repeated merges associative.
    """

    __slots__ = ("_members", "_hash")

    def __new__(cls, members: Iterable[Union["ClassName", str]]):
        flat = _flatten(members, ImplicitName)
        if len(flat) < 2:
            raise SchemaValidationError(
                "an implicit class must sit below at least two classes, "
                f"got members {sorted(map(str, flat))!r}"
            )
        if cls is ImplicitName:
            cached = _IMPLICIT_INTERN.get(flat)
            if cached is not None:
                return cached
        self = object.__new__(cls)
        object.__setattr__(self, "_members", flat)
        object.__setattr__(self, "_hash", hash(("ImplicitName", flat)))
        if cls is ImplicitName:
            _IMPLICIT_INTERN.put(flat, self)
        return self

    def __init__(self, members: Iterable[Union["ClassName", str]]):
        pass

    @property
    def members(self) -> FrozenSet["ClassName"]:
        """The classes this implicit class was introduced below."""
        return self._members

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("ImplicitName is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, ImplicitName) and self._members == other._members

    def __lt__(self, other) -> bool:
        return sort_key(self) < sort_key(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in sorted(self._members, key=sort_key))
        return f"ImplicitName({{{inner}}})"

    def __str__(self) -> str:
        inner = "&".join(str(m) for m in sorted(self._members, key=sort_key))
        return f"<{inner}>"


@total_ordering
class GenName:
    """The name of a generalization class introduced *above* a set of classes.

    Section 6 notes that the lower properization introduces implicit
    classes "above, rather than below, the sets of proper schemas that
    they represent".  We keep those distinct from :class:`ImplicitName`
    because a class above ``{A, B}`` and a class below ``{A, B}`` are
    different classes and must never collide.
    """

    __slots__ = ("_members", "_hash")

    def __new__(cls, members: Iterable[Union["ClassName", str]]):
        flat = _flatten(members, GenName)
        if len(flat) < 2:
            raise SchemaValidationError(
                "a generalization class must sit above at least two "
                f"classes, got members {sorted(map(str, flat))!r}"
            )
        if cls is GenName:
            cached = _GEN_INTERN.get(flat)
            if cached is not None:
                return cached
        self = object.__new__(cls)
        object.__setattr__(self, "_members", flat)
        object.__setattr__(self, "_hash", hash(("GenName", flat)))
        if cls is GenName:
            _GEN_INTERN.put(flat, self)
        return self

    def __init__(self, members: Iterable[Union["ClassName", str]]):
        pass

    @property
    def members(self) -> FrozenSet["ClassName"]:
        """The classes this generalization class was introduced above."""
        return self._members

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("GenName is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, GenName) and self._members == other._members

    def __lt__(self, other) -> bool:
        return sort_key(self) < sort_key(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in sorted(self._members, key=sort_key))
        return f"GenName({{{inner}}})"

    def __str__(self) -> str:
        inner = "|".join(str(m) for m in sorted(self._members, key=sort_key))
        return f"[{inner}]"


ClassName = Union[BaseName, ImplicitName, GenName]


def _as_name(value: Union[ClassName, str]) -> ClassName:
    if isinstance(value, (BaseName, ImplicitName, GenName)):
        return value
    if isinstance(value, str):
        return BaseName(value)
    raise SchemaValidationError(
        f"expected a class name or string, got {type(value).__name__}: {value!r}"
    )


def name(value: Union[ClassName, str]) -> ClassName:
    """Coerce a string (or pass through an existing name) to a class name.

    Allowing plain strings everywhere keeps user code close to the
    paper's notation: ``schema.has_arrow("Dog", "owner", "Person")``.
    """
    return _as_name(value)


def names(values: Iterable[Union[ClassName, str]]) -> FrozenSet[ClassName]:
    """Coerce an iterable of strings/names to a frozen set of names."""
    return frozenset(_as_name(v) for v in values)


def check_label(label: Label) -> Label:
    """Validate an arrow label (a non-empty string) and return it."""
    if not isinstance(label, str) or not label:
        raise SchemaValidationError(
            f"arrow labels must be non-empty strings, got {label!r}"
        )
    return label


def sort_key(cls: ClassName) -> Tuple:
    """A total-order key over all three name kinds.

    Base names sort before implicit names, which sort before
    generalization names; composite names sort by their (recursively
    keyed) member tuples.  Used everywhere rendering or iteration must
    be deterministic.
    """
    if isinstance(cls, BaseName):
        return (0, cls.value)
    if isinstance(cls, ImplicitName):
        return (1, tuple(sorted(sort_key(m) for m in cls.members)))
    if isinstance(cls, GenName):
        return (2, tuple(sorted(sort_key(m) for m in cls.members)))
    raise SchemaValidationError(f"not a class name: {cls!r}")


def base_members(cls: ClassName) -> FrozenSet[BaseName]:
    """The set of base names underlying *cls*.

    For a base name this is the singleton; for composite names, the
    union of the base members of every member.  Useful for consistency
    checking (section 4.2), which is phrased over the original classes.
    """
    if isinstance(cls, BaseName):
        return frozenset({cls})
    collected: set = set()
    for member in cls.members:
        collected.update(base_members(member))
    return frozenset(collected)
