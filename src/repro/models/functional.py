"""The functional substrate model (DAPLEX / Multibase style, section 2).

The paper observes that proper schemas "could equally well have defined
the arrows as partial functions from classes to classes, which is how
they are expressed in the definition of a functional schema" — citing
DAPLEX [6], Multibase [2] and Motro's superviews [1], whose axioms are
exactly conditions D1 and D2.

:class:`FunctionalSchema` is that presentation made concrete: classes,
an ISA hierarchy and a table of *functions* ``(class, label) → class``.
Translation to the general model goes through
:func:`repro.core.proper.from_canonical`; translation back extracts
canonical arrows.  The round trip is the identity on functional schemas
whose function table is D2-complete, which the property tests verify.

Merging functional schemas (:func:`merge_functional`) is the paper's
translate–merge–translate-back pipeline; the merge may invent implicit
classes, which come back as ordinary classes with origin-recording
names, and always yields a proper — hence functional — result.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Tuple, Union

from repro.core.merge import upper_merge
from repro.core.names import ClassName, Label, name, sort_key
from repro.core.proper import canonical_arrows, from_canonical
from repro.core.schema import Schema
from repro.exceptions import IncompatibleSchemasError, TranslationError

__all__ = ["FunctionalSchema", "to_schema", "from_schema", "merge_functional"]

NameLike = Union[ClassName, str]


class FunctionalSchema:
    """A schema in functional presentation: ISA + partial functions.

    ``functions`` maps ``(class, label)`` to the function's result
    class — the canonical arrow ``⇀``.  D1 holds by construction; D2
    (specializations must refine inherited functions) can be
    established automatically with ``inherit=True``, which copies each
    function down the ISA hierarchy wherever a specialization lacks its
    own refinement — how DAPLEX-style models treat inheritance.  A class
    inheriting several results takes their least; with no least one,
    construction raises :class:`~repro.exceptions.TranslationError`.
    """

    __slots__ = ("_classes", "_isa", "_functions")

    def __init__(
        self,
        classes: Iterable[NameLike] = (),
        isa: Iterable[Tuple[NameLike, NameLike]] = (),
        functions: Mapping[Tuple[NameLike, Label], NameLike] = (),
        inherit: bool = True,
    ):
        class_set = {name(c) for c in classes}
        isa_pairs = {(name(a), name(b)) for a, b in isa}
        table: Dict[Tuple[ClassName, Label], ClassName] = {}
        functions = dict(functions)
        for (cls_raw, label), target_raw in functions.items():
            cls, target = name(cls_raw), name(target_raw)
            class_set.update((cls, target))
            table[(cls, label)] = target
        for sub, sup in isa_pairs:
            class_set.update((sub, sup))
        if inherit:
            table = _inherit_functions(class_set, isa_pairs, table)
        object.__setattr__(self, "_classes", frozenset(class_set))
        object.__setattr__(self, "_isa", frozenset(isa_pairs))
        object.__setattr__(self, "_functions", table)

    @property
    def classes(self) -> FrozenSet[ClassName]:
        """All classes."""
        return self._classes

    @property
    def isa(self) -> FrozenSet[Tuple[ClassName, ClassName]]:
        """The declared (non-closed) ISA edges."""
        return self._isa

    def __setattr__(self, key, val):  # pragma: no cover - immutability guard
        raise AttributeError("FunctionalSchema is immutable")

    def functions_of(self, cls: NameLike) -> Dict[Label, ClassName]:
        """Every function defined on *cls*, as ``{label: result}``."""
        p = name(cls)
        return {
            label: target
            for (source, label), target in self._functions.items()
            if source == p
        }

    def function_table(self) -> Dict[Tuple[ClassName, Label], ClassName]:
        """A copy of the full ``(class, label) → class`` table."""
        return dict(self._functions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalSchema):
            return NotImplemented
        return (
            self._classes == other._classes
            and self._isa == other._isa
            and self._functions == other._functions
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._classes,
                self._isa,
                frozenset(self._functions.items()),
            )
        )

    def __repr__(self) -> str:
        return (
            f"FunctionalSchema({len(self._classes)} classes, "
            f"{len(self._functions)} function(s))"
        )


def _inherit_functions(
    classes: Iterable[ClassName],
    isa: Iterable[Tuple[ClassName, ClassName]],
    table: Dict[Tuple[ClassName, Label], ClassName],
) -> Dict[Tuple[ClassName, Label], ClassName]:
    """Copy functions down the ISA order where no refinement exists (D2).

    A class without its own *label*-function inherits the least of the
    results its strict generalizations declare: D2 asks its result to
    refine every one of them.  With no least result, raise
    :class:`~repro.exceptions.TranslationError`.
    """
    try:
        order = Schema.build(classes=classes, spec=isa)
    except IncompatibleSchemasError as exc:
        raise TranslationError(
            "ISA edges form a cycle: " + " ==> ".join(str(c) for c in exc.cycle)
        ) from None
    declared: Dict[Label, Dict[ClassName, ClassName]] = {}
    for (source, label), target in table.items():
        declared.setdefault(label, {})[source] = target
    completed = dict(table)
    for cls in order:
        sups = order.generalizations_of(cls) - {cls}
        for label in sorted(declared):
            if (cls, label) in table:
                continue
            results = frozenset(
                target for sup, target in declared[label].items() if sup in sups
            )
            least = [t for t in results if results <= order.generalizations_of(t)]
            if least:
                completed[(cls, label)] = least[0]
            elif results:
                raise TranslationError(
                    f"{cls} inherits {label!r}-functions with no least result: "
                    + ", ".join(str(t) for t in sorted(results, key=sort_key))
                )
    return completed


def to_schema(functional: FunctionalSchema) -> Schema:
    """Translate a functional schema into the general model.

    Uses :func:`repro.core.proper.from_canonical`, so the result is a
    proper schema whose canonical arrows are exactly the input's
    function table (D2 is verified along the way).
    """
    return from_canonical(
        classes=functional.classes,
        spec=functional.isa,
        canon=functional.function_table(),
    )


def from_schema(schema: Schema) -> FunctionalSchema:
    """Translate a proper schema back to functional presentation.

    The ISA edges kept are the Hasse covers (the closure is re-derived
    on the way back in), and the function table is the canonical-arrow
    table.  Raises :class:`~repro.exceptions.NotProperError` on weak
    schemas — the functional model cannot express them.
    """
    return FunctionalSchema(
        classes=schema.classes,
        isa=schema.spec_covers(),
        functions=canonical_arrows(schema),
        inherit=False,
    )


def merge_functional(
    *functionals: FunctionalSchema, assertions: Iterable[Schema] = ()
) -> FunctionalSchema:
    """Merge functional schemas via the general model.

    The merged proper schema translates straight back: properization
    guarantees canonical classes exist, so the functional model is
    closed under our merge — the section 7 claim, here for the
    functional stratum.
    """
    merged = upper_merge(
        *(to_schema(f) for f in functionals), assertions=assertions
    )
    return from_schema(merged)
