"""Property tests for the information-ordering framework (§6 criterion).

The paper's validity criterion for a merge concept — defined by an
information ordering, merge = least upper bound, hence order-independent
— is machine-checked here over randomized schema families for all three
shipped orderings, together with the "sandwich" theorem that places the
annotated join strictly between the lower and upper merges.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.framework import (
    KEYED_ORDERING,
    WEAK_ORDERING,
    annotated_join,
    annotated_join_all,
    annotated_meet,
    keyed_join,
    keyed_leq,
    keyed_meet,
    merge_law_violations,
    ordering_violations,
)
from repro.core.keys import KeyedSchema, minimal_satisfactory_assignment
from repro.core.lower import AnnotatedSchema, annotated_leq, lower_merge
from repro.core.ordering import join as weak_join
from repro.core.participation import Participation
from repro.exceptions import IncompatibleSchemasError

from tests.conftest import annotated_schemas, schemas

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def keyed_schemas(draw):
    """A random *monotone* keyed schema — the section 5 carrier.

    Raw keys are drawn from each class's out-labels and then closed
    downward along specialization via the minimal satisfactory
    assignment, which is how any valid keyed schema arises.
    """
    schema = draw(schemas(max_classes=5))
    raw = {}
    for cls in schema.sorted_classes():
        labels = sorted(schema.out_labels(cls))
        if not labels or not draw(st.booleans()):
            continue
        size = draw(st.integers(min_value=1, max_value=len(labels)))
        raw[cls] = [frozenset(labels[:size])]
    seed = KeyedSchema(schema, raw, check_spec_monotone=False)
    assignment = minimal_satisfactory_assignment(schema, [seed])
    return KeyedSchema(schema, assignment)


def _rebuilt(schema, spec, optional=frozenset()):
    """*schema* closed over the order *spec*, also allowing (as optional)
    each arrow of *optional* it forbids.

    Optional arrows never close into required ones, so the required
    arrows are those of *schema* closed over *spec*.
    """
    table = schema.participation_table()
    return AnnotatedSchema.build(
        classes=schema.classes,
        spec=spec,
        arrows=[(*arrow, constraint) for arrow, constraint in table.items()]
        + [
            (*arrow, Participation.OPTIONAL)
            for arrow in optional - table.keys()
        ],
    )


def _try(operation, *args):
    try:
        return operation(*args)
    except IncompatibleSchemasError:
        return None


class TestWeakOrderingLaws:
    @given(schemas(), schemas(), schemas())
    @SLOW
    def test_partial_order_and_merge_laws(self, a, b, c):
        samples = [a, b, c]
        joined = _try(weak_join, a, b)
        if joined is not None:
            samples.append(joined)
        assert ordering_violations(WEAK_ORDERING, samples) == []
        assert merge_law_violations(WEAK_ORDERING, samples) == []


class TestAbsorptionLaws:
    """Join and meet interlock as lattice theory demands."""

    @given(schemas(), schemas())
    @RELAXED
    def test_weak_absorption(self, a, b):
        met = WEAK_ORDERING.meet(a, b)
        assert WEAK_ORDERING.join(a, met) == a
        joined = _try(weak_join, a, b)
        assume(joined is not None)
        assert WEAK_ORDERING.meet(a, joined) == a

    @given(keyed_schemas(), keyed_schemas())
    @RELAXED
    def test_keyed_absorption_up_to_ordering(self, a, b):
        """Keyed meets drop keys whose arrows vanish, so absorption
        holds up to mutual ⊑ (which is equality for the schema part
        and family containment for keys)."""
        met = keyed_meet(a, b)
        rejoined = keyed_join(a, met)
        assert keyed_leq(a, rejoined) and keyed_leq(rejoined, a)
        joined = _try(keyed_join, a, b)
        assume(joined is not None)
        remet = keyed_meet(a, joined)
        assert keyed_leq(remet, a) and keyed_leq(a, remet)


class TestAnnotatedOrderingLaws:
    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_join_is_upper_bound_when_defined(self, a, b):
        joined = _try(annotated_join, a, b)
        assume(joined is not None)
        assert annotated_leq(a, joined)
        assert annotated_leq(b, joined)

    @given(annotated_schemas(), annotated_schemas(), annotated_schemas())
    @SLOW
    def test_join_is_least_among_sampled_upper_bounds(self, a, b, c):
        joined = _try(annotated_join, a, b)
        assume(joined is not None)
        # Build a (potentially strictly larger) upper bound by joining
        # in extra material; the LUB must sit below it.
        bigger = _try(annotated_join, joined, c)
        assume(bigger is not None)
        assert annotated_leq(joined, bigger)

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_join_commutes_including_definedness(self, a, b):
        ab, ba = _try(annotated_join, a, b), _try(annotated_join, b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab == ba

    @given(annotated_schemas())
    @RELAXED
    def test_join_idempotent(self, a):
        assert annotated_join(a, a) == a

    @given(annotated_schemas(), annotated_schemas(), annotated_schemas())
    @SLOW
    def test_nary_join_is_order_independent(self, a, b, c):
        """The collection merge cannot depend on presentation order."""
        import itertools

        results = []
        for order in itertools.permutations([a, b, c]):
            results.append(_try(annotated_join_all, list(order)))
        assert all((r is None) == (results[0] is None) for r in results)
        if results[0] is not None:
            assert all(r == results[0] for r in results)

    @given(annotated_schemas(), annotated_schemas(), annotated_schemas())
    @SLOW
    def test_binary_folds_dominate_the_nary_join(self, a, b, c):
        """Folding binary joins strengthens: any defined fold sits above
        the n-ary collection merge (the §3 phenomenon, annotated)."""
        nary = _try(annotated_join_all, [a, b, c])
        ab = _try(annotated_join, a, b)
        fold = _try(annotated_join, ab, c) if ab is not None else None
        if fold is not None:
            assert nary is not None, "a defined fold implies a defined n-ary"
            assert annotated_leq(nary, fold)

    @given(annotated_schemas(), annotated_schemas(), annotated_schemas())
    @SLOW
    def test_nary_join_is_upper_bound_of_all_inputs(self, a, b, c):
        nary = _try(annotated_join_all, [a, b, c])
        assume(nary is not None)
        for schema in (a, b, c):
            assert annotated_leq(schema, nary)

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_meet_is_lower_bound(self, a, b):
        met = annotated_meet(a, b)
        assert annotated_leq(met, a)
        assert annotated_leq(met, b)

    @given(annotated_schemas(), annotated_schemas(), annotated_schemas())
    @SLOW
    def test_meet_is_greatest_among_sampled_lower_bounds(self, a, b, c):
        met = annotated_meet(a, b)
        candidate = annotated_meet(met, c)  # a smaller lower bound
        assert annotated_leq(candidate, met)
        if annotated_leq(c, a) and annotated_leq(c, b):
            assert annotated_leq(c, met)

    @given(annotated_schemas(), annotated_schemas())
    @RELAXED
    def test_sandwich_on_a_common_class_universe(self, a, b):
        """§6's 'merges lying in between', stated where it is true.

        Over a *common class universe* the lower merge sits below each
        input and the annotated join above it: GLB ⊑ input ⊑ LUB.  (On
        differing class sets the chain genuinely breaks — the lower
        merge's class completion asserts constraint 0 on imported
        arrows, negative information the join need not respect — which
        is why the statement is scoped this way.)

        The pair is drawn so its join exists: both inputs share one
        specialization order, and each allows (as optional) every arrow
        the other requires, so no arrow is required on one side and
        forbidden on the other.
        """
        from repro.core.lower import complete_classes

        a_c, b_c = complete_classes([a, b])
        spec = a_c.spec | b_c.spec
        a_s, b_s = _rebuilt(a_c, spec), _rebuilt(b_c, spec)
        a_c = _rebuilt(a_s, spec, b_s.required_arrows())
        b_c = _rebuilt(b_s, spec, a_s.required_arrows())
        joined = annotated_join(a_c, b_c)
        lowered = lower_merge(a_c, b_c)
        for completed in (a_c, b_c):
            assert annotated_leq(lowered, completed)
            assert annotated_leq(completed, joined)
        assert annotated_leq(lowered, joined)

    @given(schemas(), schemas())
    @RELAXED
    def test_required_embedding_recovers_weak_join(self, a, b):
        """When the annotated join of required embeddings exists, its
        required part is exactly the §4.1 weak join."""
        from repro.core.lower import AnnotatedSchema

        joined = _try(
            annotated_join,
            AnnotatedSchema.from_schema(a),
            AnnotatedSchema.from_schema(b),
        )
        assume(joined is not None)
        assert joined.required_schema() == weak_join(a, b)


def _restrict_annotated(master, keep):
    """The induced annotated sub-schema on a class-name subset."""
    from repro.core.lower import AnnotatedSchema

    kept = {cls for cls in master.classes if str(cls) in set(keep)}
    table = {
        arrow: constraint
        for arrow, constraint in master.participation_table().items()
        if arrow[0] in kept and arrow[2] in kept
    }
    spec = frozenset(
        (p, q) for p, q in master.spec if p in kept and q in kept
    )
    return AnnotatedSchema(frozenset(kept), spec, table)


class TestMiddleMergeInstances:
    """How instances relate to the in-between merge.

    The §4 coercion theorem lifts to the annotated join only at the
    *required* level: an instance of the join satisfies every view's
    required projection as a weak schema.  Full annotated coercion
    fails — §6's "may not" semantics is closed-world, so a value
    licensed through a class the view does not contain becomes a
    violation after coercion.  Both directions are pinned down here.
    """

    @given(st.integers(min_value=0, max_value=10_000))
    @RELAXED
    def test_required_level_coercion_holds(self, seed):
        from repro.core.implicit import properize
        from repro.exceptions import NotProperError
        from repro.generators.random_schemas import (
            random_annotated_schema,
            random_instance,
        )
        from repro.instances.satisfaction import (
            violations_annotated,
            violations_weak,
        )

        master = random_annotated_schema(n_classes=8, n_labels=4, seed=seed)
        names = sorted(str(c) for c in master.classes)
        views = [
            _restrict_annotated(master, names[:6]),
            _restrict_annotated(master, names[3:]),
        ]
        joined = _try(annotated_join_all, views)
        assume(joined is not None)
        try:
            proper_required = properize(joined.required_schema())
        except NotProperError:
            assume(False)
        instance = random_instance(proper_required, seed=seed)
        instance = instance.restrict_classes(joined.classes)
        assume(not violations_annotated(instance, joined))
        for view in views:
            coerced = instance.restrict_classes(view.classes)
            assert violations_weak(coerced, view.required_schema()) == []

    def test_full_annotated_coercion_fails_by_design(self):
        """Minimal witness: the licensing class vanishes in the view."""
        from repro.core.lower import AnnotatedSchema
        from repro.instances.instance import Instance
        from repro.instances.satisfaction import (
            satisfies_annotated,
            violations_annotated,
        )

        knows_dogs = AnnotatedSchema.build(classes=["Dog"])
        ages = AnnotatedSchema.build(arrows=[("Dog", "age", "Int", "1")])
        joined = annotated_join(knows_dogs, ages)
        instance = Instance.build(
            extents={"Dog": {"d"}, "Int": {"5"}},
            values={("d", "age"): "5"},
        )
        assert satisfies_annotated(instance, joined)
        coerced = instance.restrict_classes(knows_dogs.classes)
        # The view ⊑ join, yet the coerced instance violates it: the
        # view's closed world has no present age-arrow to license the
        # defined value.  Instances flow *upward* in the annotated
        # world (federation), not downward.
        assert violations_annotated(coerced, knows_dogs)


class TestKeyedOrderingLaws:
    @given(keyed_schemas(), keyed_schemas())
    @RELAXED
    def test_join_is_upper_bound(self, a, b):
        joined = _try(keyed_join, a, b)
        assume(joined is not None)
        assert keyed_leq(a, joined)
        assert keyed_leq(b, joined)

    @given(keyed_schemas(), keyed_schemas(), keyed_schemas())
    @SLOW
    def test_join_is_least_among_sampled_upper_bounds(self, a, b, c):
        joined = _try(keyed_join, a, b)
        assume(joined is not None)
        bigger = _try(keyed_join, joined, c)
        assume(bigger is not None)
        assert keyed_leq(joined, bigger)

    @given(keyed_schemas(), keyed_schemas())
    @RELAXED
    def test_join_commutative(self, a, b):
        ab, ba = _try(keyed_join, a, b), _try(keyed_join, b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab == ba

    @given(keyed_schemas())
    @RELAXED
    def test_join_idempotent(self, a):
        assert keyed_join(a, a) == a

    @given(keyed_schemas(), keyed_schemas(), keyed_schemas())
    @SLOW
    def test_join_associative(self, a, b, c):
        ab = _try(keyed_join, a, b)
        bc = _try(keyed_join, b, c)
        left = _try(keyed_join, ab, c) if ab is not None else None
        right = _try(keyed_join, a, bc) if bc is not None else None
        assert (left is None) == (right is None)
        if left is not None:
            assert left == right

    @given(keyed_schemas(), keyed_schemas())
    @RELAXED
    def test_meet_is_lower_bound(self, a, b):
        met = keyed_meet(a, b)
        assert keyed_leq(met, a)
        assert keyed_leq(met, b)

    @given(keyed_schemas(), keyed_schemas(), keyed_schemas())
    @SLOW
    def test_meet_is_greatest_among_sampled_lower_bounds(self, a, b, c):
        met = keyed_meet(a, b)
        if keyed_leq(c, a) and keyed_leq(c, b):
            assert keyed_leq(c, met)

    @given(keyed_schemas(), keyed_schemas())
    @RELAXED
    def test_ordering_is_partial_order(self, a, b):
        assert ordering_violations(KEYED_ORDERING, [a, b]) == []
