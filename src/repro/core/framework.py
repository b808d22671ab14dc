"""Information orderings as first-class objects — the §6 merge criterion.

The paper closes section 6 with a methodological claim:

    "in order for a concept of a merge to be valid and well defined, it
    should have a definition in terms of an information ordering similar
    to the ones given here."

This module makes that criterion *executable*.  An
:class:`InformationOrdering` packages a carrier of schema-like values
with its order and (partial) lattice operations; the generic law
checkers (:func:`ordering_violations`, :func:`merge_law_violations`)
verify, over concrete samples, exactly the properties the paper uses to
justify its merges: the order is a partial order, the merge is its
least upper (or greatest lower) bound, and the induced binary operation
is associative, commutative and idempotent.

Three orderings are provided:

* :data:`WEAK_ORDERING` — section 4.1's component-wise order on weak
  schemas.  Joins are the weak upper merge, meets the plain
  intersection.
* :data:`ANNOTATED_ORDERING` — section 6's refined order on
  participation-annotated schemas, under which an absent arrow is
  information (constraint ``0``).  Meets are the (un-completed) lower
  bound; the n-ary :func:`annotated_join_all` is the **in-between
  merge** the paper anticipates ("there may well be valid and useful
  concepts of merges lying inbetween the two"): like the upper merge it
  unions classes and specializations, but it treats participation
  conflicts (one schema *forbids* an arrow that another *requires*) as
  a failure instead of silently unioning, because ``0`` and ``1`` have
  no common upper bound in the Figure 11 semilattice.  The operation is
  n-ary by necessity — folding binary joins re-creates the section 3
  order-dependence; see :func:`annotated_join_all`.
* :data:`KEYED_ORDERING` — section 5's order on keyed schemas: the
  schema order together with pointwise superkey-family containment.
  Joins compute the unique minimal satisfactory key assignment.

Because each merge here is a LUB/GLB *in an ordering*, the §4 laws hold
by construction; the property-test suite still machine-checks them via
the generic checkers, as the paper's philosophy demands.
"""

from __future__ import annotations

import abc
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.core.keys import (
    KeyFamily,
    KeyedSchema,
    minimal_satisfactory_assignment,
)
from repro.core.lower import (
    AnnotatedSchema,
    annotated_leq,
    annotated_meet,
    forbidden_arrow,
)
from repro.core.names import ClassName, sort_key
from repro.core.ordering import is_sub, join as weak_join, meet as weak_meet
from repro.core.participation import Participation, lub
from repro.core.schema import Arrow, Schema
from repro.exceptions import IncompatibleSchemasError

__all__ = [
    "InformationOrdering",
    "WeakSchemaOrdering",
    "AnnotatedSchemaOrdering",
    "KeyedSchemaOrdering",
    "WEAK_ORDERING",
    "ANNOTATED_ORDERING",
    "KEYED_ORDERING",
    "annotated_join",
    "annotated_join_all",
    "annotated_meet",
    "keyed_leq",
    "keyed_join",
    "keyed_meet",
    "ordering_violations",
    "merge_law_violations",
    "validate_merge_concept",
]

T = TypeVar("T")


class InformationOrdering(abc.ABC, Generic[T]):
    """A carrier of schema-like values with an information order.

    Subclasses supply :meth:`leq` and :meth:`join`; :meth:`meet` is
    optional (raise :class:`NotImplementedError` when the carrier has no
    greatest lower bounds).  ``join`` may be partial — it raises
    :class:`~repro.exceptions.IncompatibleSchemasError` when the two
    values have no common upper bound, mirroring Proposition 4.1's
    *bounded* completeness.
    """

    #: Human-readable name, used in law-violation messages.
    name: str = "ordering"

    @abc.abstractmethod
    def leq(self, left: T, right: T) -> bool:
        """Does ``left ⊑ right`` hold?"""

    @abc.abstractmethod
    def join(self, left: T, right: T) -> T:
        """The least upper bound, when one exists."""

    def meet(self, left: T, right: T) -> T:
        """The greatest lower bound, when the carrier supports meets."""
        raise NotImplementedError(f"{self.name} has no meet operation")

    def bottom(self) -> Optional[T]:
        """The least element, or ``None`` when the carrier has none."""
        return None

    def equal(self, left: T, right: T) -> bool:
        """Carrier equality (structural by default)."""
        return left == right

    def join_all(self, items: Iterable[T]) -> T:
        """Fold :meth:`join` over *items* (the n-ary merge).

        An empty collection yields :meth:`bottom`; if the carrier has no
        bottom an empty fold raises :class:`ValueError`.
        """
        result: Optional[T] = None
        for item in items:
            result = item if result is None else self.join(result, item)
        if result is None:
            result = self.bottom()
            if result is None:
                raise ValueError(
                    f"{self.name}: empty join with no bottom element"
                )
        return result

    def comparable(self, left: T, right: T) -> bool:
        """Are the two values related (either way)?"""
        return self.leq(left, right) or self.leq(right, left)

    def is_upper_bound(self, candidate: T, items: Iterable[T]) -> bool:
        """Is *candidate* above every element of *items*?"""
        return all(self.leq(item, candidate) for item in items)

    def is_lower_bound(self, candidate: T, items: Iterable[T]) -> bool:
        """Is *candidate* below every element of *items*?"""
        return all(self.leq(candidate, item) for item in items)


# ----------------------------------------------------------------------
# The weak-schema ordering (section 4.1)
# ----------------------------------------------------------------------


class WeakSchemaOrdering(InformationOrdering[Schema]):
    """Section 4.1's ordering: component-wise inclusion on ``(C, E, S)``."""

    name = "weak-schema ordering"

    def leq(self, left: Schema, right: Schema) -> bool:
        return is_sub(left, right)

    def join(self, left: Schema, right: Schema) -> Schema:
        return weak_join(left, right)

    def meet(self, left: Schema, right: Schema) -> Schema:
        return weak_meet(left, right)

    def bottom(self) -> Schema:
        return Schema.empty()


# ----------------------------------------------------------------------
# The annotated ordering (section 6) and its join — the in-between merge
# ----------------------------------------------------------------------


def _participation_opinions(
    schemas: Sequence[AnnotatedSchema], arrow: Arrow
) -> List[Participation]:
    """Each input's constraint on *arrow* — ABSENT counts only when the
    input knows both endpoints (section 6's convention that a missing
    arrow over known classes is constraint 0, while an unknown class is
    simply no opinion)."""
    source, label, target = arrow
    opinions: List[Participation] = []
    for schema in schemas:
        if source in schema.classes and target in schema.classes:
            opinions.append(schema.participation_of(source, label, target))
    return opinions


def annotated_join_all(
    schemas: Sequence[AnnotatedSchema],
) -> AnnotatedSchema:
    """The conservative upper merge of annotated schemas — an n-ary,
    order-independent operation.

    Classes and specializations are unioned exactly as in the weak upper
    merge; each arrow's constraint is the least upper bound, in the
    Figure 11 semilattice, of the opinions of the inputs that know both
    endpoint classes (absence over known classes is the paper's
    constraint ``0``; an unknown class is no opinion at all).  Because
    ``0`` (forbidden) and ``1`` (required) have no common upper bound,
    the merge fails — with an :class:`IncompatibleSchemasError` naming
    the offending arrow — when one schema forbids an arrow that another
    requires.  This is the *participation-aware upper merge*: stricter
    than the plain upper merge (which has no notion of "forbidden" and
    would simply union the arrows) and more informative than the lower
    merge (which weakens every disagreement to "optional").  In the
    paper's terms it is a merge concept lying in between the two,
    defined — as section 6 insists any valid merge must be — by an
    information ordering.

    Two precision notes, machine-checked in the property suite:

    * The result is an upper bound of the inputs and the least one
      *among upper bounds that assert no arrows beyond those some input
      asserts*.  Under :func:`annotated_leq` absence is information, so
      a true least upper bound would have to pad every un-opined
      ``(class, label, class)`` combination with the bottom constraint
      ``0/1`` — an object that does not exist over the unbounded label
      set ``L``.  The conservative reading is the useful one.
    * The operation is n-ary **by necessity**, not convenience: folding
      binary joins is *not* associative in definedness, because a
      binary join unions class scopes and thereby asserts constraint
      ``0`` on arrows between classes that no single input co-knew —
      negative information neither input carried.  This is precisely
      the section 3 phenomenon (intermediate merge results asserting
      more than their inputs breaks order-independence) resurfacing in
      the annotated world; the paper's remedy there (treat the merge as
      an operation on whole collections) is the remedy here too.  Any
      fold order still yields an upper bound that is ``⊒`` this n-ary
      result.
    """
    schema_list = list(schemas)
    if not schema_list:
        return AnnotatedSchema.empty()
    all_classes: Set[ClassName] = set()
    union_spec: Set[Tuple[ClassName, ClassName]] = set()
    candidate_arrows: Set[Arrow] = set()
    for schema in schema_list:
        all_classes |= schema.classes
        union_spec |= schema.spec
        candidate_arrows |= schema.present_arrows()
    entries = []
    for arrow in sorted(
        candidate_arrows, key=lambda e: (sort_key(e[0]), e[1], sort_key(e[2]))
    ):
        # Every candidate is present in some input, so there is at least
        # one opinion; inputs that do not know both endpoint classes
        # have no say.
        opinions = _participation_opinions(schema_list, arrow)
        combined = opinions[0]
        for opinion in opinions[1:]:
            upper = lub(combined, opinion)
            if upper is None:
                source, label, target = arrow
                raise IncompatibleSchemasError(
                    f"participation conflict on {source} --{label}--> "
                    f"{target}: one schema forbids the arrow (constraint 0) "
                    "while another requires it (constraint 1); the two have "
                    "no common upper bound in the Figure 11 semilattice"
                )
            combined = upper
        if combined != Participation.ABSENT:
            entries.append((*arrow, combined))
    # A specialization cycle raises IncompatibleSchemasError here.
    joined = AnnotatedSchema.build(
        classes=all_classes, arrows=entries, spec=union_spec
    )
    # Every input's classes, specializations and required arrows are in
    # the join by construction, so ``schema ⊑ joined`` can fail only on
    # an arrow the input forbids: the closure discipline may add one
    # (e.g. a required arrow propagating down a new specialization
    # edge), and then the join does not exist.
    for index, schema in enumerate(schema_list):
        found = forbidden_arrow(schema, joined)
        if found is not None:
            (source, label, target), constraint = found
            raise IncompatibleSchemasError(
                "annotated join does not exist: the closure of the combined "
                f"schema contradicts input {index} on {source} --{label}--> "
                f"{target} (absent, i.e. 0, vs {constraint})"
            )
    return joined


def annotated_join(
    left: AnnotatedSchema, right: AnnotatedSchema
) -> AnnotatedSchema:
    """Binary form of :func:`annotated_join_all`.

    Merge whole collections with :func:`annotated_join_all` rather than
    folding this — see the n-ary function's docstring for why folds can
    strengthen the result or fail where the collection merge succeeds.
    """
    return annotated_join_all([left, right])


class AnnotatedSchemaOrdering(InformationOrdering[AnnotatedSchema]):
    """Section 6's refined ordering on participation-annotated schemas.

    ``join_all`` is overridden to merge the whole collection at once:
    folding binary joins strengthens intermediate results (a §3-style
    order-dependence), so the n-ary primitive is the law-abiding one.
    """

    name = "annotated-schema ordering"

    def leq(self, left: AnnotatedSchema, right: AnnotatedSchema) -> bool:
        return annotated_leq(left, right)

    def join(
        self, left: AnnotatedSchema, right: AnnotatedSchema
    ) -> AnnotatedSchema:
        return annotated_join(left, right)

    def join_all(
        self, items: Iterable[AnnotatedSchema]
    ) -> AnnotatedSchema:
        return annotated_join_all(list(items))

    def meet(
        self, left: AnnotatedSchema, right: AnnotatedSchema
    ) -> AnnotatedSchema:
        return annotated_meet(left, right)

    def bottom(self) -> AnnotatedSchema:
        return AnnotatedSchema.empty()


# ----------------------------------------------------------------------
# The keyed ordering (section 5)
# ----------------------------------------------------------------------


def keyed_leq(left: KeyedSchema, right: KeyedSchema) -> bool:
    """``left ⊑ right``: schema inclusion plus pointwise key containment.

    This is the order implicit in section 5's definition of a
    *satisfactory* assignment: an upper bound of keyed schemas must
    contain each input's schema and each input's superkey family at
    every class.
    """
    if not is_sub(left.schema, right.schema):
        return False
    return all(
        right.keys_of(cls).contains_family(left.keys_of(cls))
        for cls in left.schema.classes
    )


def keyed_join(left: KeyedSchema, right: KeyedSchema) -> KeyedSchema:
    """The least upper bound of keyed schemas.

    The schema part is the weak join of Proposition 4.1; the key part
    is the unique minimal satisfactory assignment of section 5 — which
    is exactly what makes this the *least* upper bound rather than just
    an upper bound.  (The full keyed merge,
    :func:`repro.core.keys.merge_keyed`, additionally properizes the
    schema; the ordering works at the weak level where the lattice laws
    live.)
    """
    joined = weak_join(left.schema, right.schema)
    assignment = minimal_satisfactory_assignment(joined, [left, right])
    return KeyedSchema(joined, assignment)


def keyed_meet(left: KeyedSchema, right: KeyedSchema) -> KeyedSchema:
    """The greatest lower bound of keyed schemas.

    The schema part is the plain meet; the key part is the pointwise
    family intersection ``SK ∩ SK'`` of section 5's minimality argument,
    filtered to keys whose labels survive as arrows in the met schema
    (a key over vanished arrows is not expressible there, and any
    common lower bound's keys are — see the property tests).
    """
    met = weak_meet(left.schema, right.schema)
    assignment: Dict[ClassName, KeyFamily] = {}
    for cls in met.classes:
        family = left.keys_of(cls) & right.keys_of(cls)
        available = met.out_labels(cls)
        surviving = KeyFamily(
            key for key in family.min_keys if key <= available
        )
        if not surviving.is_empty():
            assignment[cls] = surviving
    return KeyedSchema(met, assignment)


class KeyedSchemaOrdering(InformationOrdering[KeyedSchema]):
    """Section 5's ordering on keyed schemas."""

    name = "keyed-schema ordering"

    def leq(self, left: KeyedSchema, right: KeyedSchema) -> bool:
        return keyed_leq(left, right)

    def join(self, left: KeyedSchema, right: KeyedSchema) -> KeyedSchema:
        return keyed_join(left, right)

    def meet(self, left: KeyedSchema, right: KeyedSchema) -> KeyedSchema:
        return keyed_meet(left, right)

    def bottom(self) -> KeyedSchema:
        return KeyedSchema(Schema.empty())


#: Singleton instances — the orderings are stateless.
WEAK_ORDERING = WeakSchemaOrdering()
ANNOTATED_ORDERING = AnnotatedSchemaOrdering()
KEYED_ORDERING = KeyedSchemaOrdering()


# ----------------------------------------------------------------------
# Generic law checkers — the executable form of the §6 criterion
# ----------------------------------------------------------------------


def _try_join(
    ordering: InformationOrdering[T], left: T, right: T
) -> Optional[T]:
    try:
        return ordering.join(left, right)
    except IncompatibleSchemasError:
        return None


def ordering_violations(
    ordering: InformationOrdering[T],
    samples: Sequence[T],
    describe: Callable[[T], str] = repr,
) -> List[str]:
    """Check that ``leq`` is a partial order over *samples*.

    Returns human-readable violation strings — reflexivity,
    antisymmetry and transitivity failures — with an empty list meaning
    the order laws held on every sampled combination.
    """
    problems: List[str] = []
    for item in samples:
        if not ordering.leq(item, item):
            problems.append(
                f"{ordering.name}: not reflexive at {describe(item)}"
            )
    indexed = list(enumerate(samples))
    for i, a in indexed:
        for j, b in indexed:
            if i == j:
                continue
            if (
                ordering.leq(a, b)
                and ordering.leq(b, a)
                and not ordering.equal(a, b)
            ):
                problems.append(
                    f"{ordering.name}: antisymmetry fails between sample "
                    f"{i} and sample {j}"
                )
    for i, a in indexed:
        for j, b in indexed:
            for k, c in indexed:
                if ordering.leq(a, b) and ordering.leq(b, c):
                    if not ordering.leq(a, c):
                        problems.append(
                            f"{ordering.name}: transitivity fails on "
                            f"samples ({i}, {j}, {k})"
                        )
    return problems


def merge_law_violations(
    ordering: InformationOrdering[T],
    samples: Sequence[T],
) -> List[str]:
    """Check LUB-hood and the §4 algebraic laws of ``join`` over *samples*.

    For every pair with a defined join the result must be an upper
    bound and below every sampled upper bound; joins must be
    commutative, idempotent, and associative on triples (including
    *agreeing on definedness* — if one association order fails, the
    other must too, which is the precise content of the paper's
    order-independence claim).
    """
    problems: List[str] = []
    for item in samples:
        joined = _try_join(ordering, item, item)
        if joined is None or not ordering.equal(joined, item):
            problems.append(f"{ordering.name}: join not idempotent")
    indexed = list(enumerate(samples))
    for i, a in indexed:
        for j, b in indexed[i + 1 :]:
            ab = _try_join(ordering, a, b)
            ba = _try_join(ordering, b, a)
            if (ab is None) != (ba is None):
                problems.append(
                    f"{ordering.name}: commutativity of definedness fails "
                    f"on samples ({i}, {j})"
                )
                continue
            if ab is None or ba is None:
                continue
            if not ordering.equal(ab, ba):
                problems.append(
                    f"{ordering.name}: commutativity fails on samples "
                    f"({i}, {j})"
                )
            if not (ordering.leq(a, ab) and ordering.leq(b, ab)):
                problems.append(
                    f"{ordering.name}: join of samples ({i}, {j}) is not "
                    "an upper bound"
                )
            for k, candidate in indexed:
                if (
                    ordering.leq(a, candidate)
                    and ordering.leq(b, candidate)
                    and not ordering.leq(ab, candidate)
                ):
                    problems.append(
                        f"{ordering.name}: join of samples ({i}, {j}) is "
                        f"not least (sample {k} is a smaller upper bound)"
                    )
    for i, a in indexed:
        for j, b in indexed:
            for k, c in indexed:
                ab = _try_join(ordering, a, b)
                bc = _try_join(ordering, b, c)
                left = _try_join(ordering, ab, c) if ab is not None else None
                right = _try_join(ordering, a, bc) if bc is not None else None
                if (left is None) != (right is None):
                    problems.append(
                        f"{ordering.name}: associativity of definedness "
                        f"fails on samples ({i}, {j}, {k})"
                    )
                elif left is not None and right is not None:
                    if not ordering.equal(left, right):
                        problems.append(
                            f"{ordering.name}: associativity fails on "
                            f"samples ({i}, {j}, {k})"
                        )
    return problems


def validate_merge_concept(
    ordering: InformationOrdering[T],
    samples: Sequence[T],
) -> List[str]:
    """Run every law checker — the §6 validity criterion in one call.

    A merge concept is "valid and well defined" in the paper's sense
    when this returns no violations over representative samples: its
    order is a partial order and its merge is that order's least upper
    bound, hence associative, commutative and idempotent.
    """
    return ordering_violations(ordering, samples) + merge_law_violations(
        ordering, samples
    )
