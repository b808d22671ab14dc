"""The upper merge — the paper's headline operation (sections 3 and 4).

The merge of a compatible collection of schemas is defined in two
stages:

1. the **weak merge** ``⊔`` — the least upper bound of the collection in
   the information ordering (Proposition 4.1, :func:`weak_merge`);
2. **properization** — converting that weak schema into a proper one by
   introducing origin-named implicit classes
   (:func:`repro.core.implicit.properize`).

:func:`upper_merge` composes the two, optionally folding in user
assertions (section 3) and vetting implicit classes against a
consistency relationship (section 4.2).  Both failure modes the paper
identifies surface as distinct exceptions:
:class:`~repro.exceptions.IncompatibleSchemasError` when the combined
specializations are cyclic, and
:class:`~repro.exceptions.InconsistentSchemasError` when an implicit
class conflates classes the consistency relationship keeps apart.

Associativity and commutativity hold by construction (a least upper
bound cannot depend on argument order); :class:`MergeReport` exposes the
intermediate artifacts so tools, benchmarks and the test suite can
inspect each stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.core.consistency import ConsistencyRelation, check_consistency
from repro.core.implicit import (
    implicit_classes_of,
    implicit_sets,
    properize,
    strip_implicits,
)
from repro.core.names import ClassName
from repro.core.ordering import join_all
from repro.core.schema import Schema

__all__ = ["weak_merge", "upper_merge", "merge_report", "MergeReport"]


def weak_merge(*schemas: Schema, assertions: Iterable[Schema] = ()) -> Schema:
    """The weak schema merge ``G1 ⊔ .. ⊔ Gn`` (with assertions folded in).

    This is the pure least-upper-bound stage: the result is a weak
    schema presenting exactly the union of the inputs' information, but
    it may fail condition 1 (canonical classes) and therefore not be
    proper.  Raises
    :class:`~repro.exceptions.IncompatibleSchemasError` when no upper
    bound exists.
    """
    return join_all(list(schemas) + list(assertions))


def upper_merge(
    *schemas: Schema,
    assertions: Iterable[Schema] = (),
    consistency: Optional[ConsistencyRelation] = None,
) -> Schema:
    """The merge of section 4: weak LUB followed by properization.

    Parameters
    ----------
    schemas:
        The proper (or weak) schemas to merge.  Order is irrelevant.
    assertions:
        Extra elementary schemas (typically from
        :mod:`repro.core.assertions`) stating inter-schema
        relationships.  Because they participate in the same LUB, their
        order is irrelevant too.
    consistency:
        An optional :class:`~repro.core.consistency.ConsistencyRelation`;
        when given, every implicit class the merge would create is
        vetted against it before the result is assembled.

    Implicit classes left by earlier merges are always stripped from the
    inputs and derived again: they carry no information of their own and
    "can be readily identified to allow subsequent merges" (section 4.2).
    This makes the iterated binary merge equal the n-ary one (Figure 5).

    Returns the proper schema ``Ḡ`` where ``G`` is the weak merge.
    """
    schemas = tuple(strip_implicits(g) for g in schemas)
    weak = weak_merge(*schemas, assertions=assertions)
    if consistency is not None:
        check_consistency(implicit_sets(weak), consistency)
    return properize(weak)


@dataclass(frozen=True)
class MergeReport:
    """Every intermediate artifact of one merge, for inspection.

    Produced by :func:`merge_report`; used by the CLI (to explain a
    merge to the user), the analysis layer and the ``benchmarks/`` files.
    """

    #: The input schemas, in the order supplied (informational only).
    inputs: Tuple[Schema, ...]
    #: Assertions folded into the merge.
    assertions: Tuple[Schema, ...]
    #: The weak least upper bound.
    weak: Schema
    #: The final proper schema.
    merged: Schema
    #: Member sets of the implicit classes the properization introduced.
    implicit_members: Tuple[FrozenSet[ClassName], ...] = field(default=())

    @property
    def implicit_classes(self) -> FrozenSet[ClassName]:
        """The invented classes present in the merged schema."""
        return implicit_classes_of(self.merged)

    def summary(self) -> str:
        """A human-readable one-paragraph account of the merge."""
        stats = self.merged.stats()
        lines = [
            f"merged {len(self.inputs)} schema(s) with "
            f"{len(self.assertions)} assertion(s)",
            f"weak merge: {len(self.weak.classes)} classes, "
            f"{len(self.weak.arrows)} arrows, "
            f"{len(self.weak.strict_spec())} strict specializations",
            f"properization introduced {stats['implicit_classes']} "
            "implicit class(es)",
            f"result: {stats['classes']} classes, {stats['arrows']} arrows",
        ]
        return "; ".join(lines)


def merge_report(
    *schemas: Schema,
    assertions: Iterable[Schema] = (),
    consistency: Optional[ConsistencyRelation] = None,
) -> MergeReport:
    """Run :func:`upper_merge` but keep all intermediate artifacts."""
    assertion_list: List[Schema] = list(assertions)
    weak = weak_merge(
        *(strip_implicits(g) for g in schemas), assertions=assertion_list
    )
    member_sets = implicit_sets(weak)
    check_consistency(member_sets, consistency)
    merged = properize(weak)
    return MergeReport(
        inputs=tuple(schemas),
        assertions=tuple(assertion_list),
        weak=weak,
        merged=merged,
        implicit_members=tuple(sorted(member_sets, key=lambda s: sorted(map(str, s)))),
    )
