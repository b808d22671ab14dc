"""ABLATE — ablations of design choices the paper leaves open.

Two choices in the implementation are not forced by the paper's
text, and each earns its keep measurably:

* **stripping derived classes** (upper merge): re-deriving implicit
  classes across iterated merges is what makes the binary fold
  literally equal the n-ary merge.  ``properize`` refuses an unstripped
  input, so the ablated variant comes from the set-based oracle, which
  leaves stale intermediate classes behind.
* **origin-recording names** (vs the naive baseline's anonymous
  classes): the other half of the associativity story.
"""

import pytest

from repro.baselines.naive import naive_merge_sequence
from repro.core.implicit import properize
from repro.core.merge import upper_merge, weak_merge
from repro.core.names import ImplicitName
from repro.exceptions import SchemaValidationError
from repro.figures import figure4_schemas
from repro.generators.workloads import get_workload
from repro.perf.reference import reference_properize


def test_ablate_strip_derived(benchmark):
    g1, g2, g3 = figure4_schemas()

    def both_variants():
        stripped = upper_merge(upper_merge(g1, g2), g3)
        unstripped = reference_properize(weak_merge(upper_merge(g1, g2), g3))
        return stripped, unstripped

    stripped, unstripped = benchmark(both_variants)
    # The kernel takes only stripped input.
    with pytest.raises(SchemaValidationError):
        properize(weak_merge(upper_merge(g1, g2), g3))
    # With stripping: exactly the n-ary result.
    assert stripped == upper_merge(g1, g2, g3)
    # Without: the intermediate <D&E> survives as a stale extra class.
    assert ImplicitName(["D", "E"]) in unstripped.classes
    assert ImplicitName(["D", "E"]) not in stripped.classes
    assert len(unstripped.classes) > len(stripped.classes)


def test_ablate_origin_names_vs_anonymous(benchmark):
    g1, g2, g3 = figure4_schemas()

    def both_mergers():
        ours = {
            upper_merge(upper_merge(g1, g2), g3),
            upper_merge(upper_merge(g1, g3), g2),
            upper_merge(upper_merge(g2, g3), g1),
        }
        naive = {
            naive_merge_sequence([g1, g2, g3]),
            naive_merge_sequence([g1, g3, g2]),
            naive_merge_sequence([g2, g3, g1]),
        }
        return ours, naive

    ours, naive = benchmark(both_mergers)
    assert len(ours) == 1
    assert len(naive) >= 2


def test_ablate_properization_share_of_merge_cost(benchmark):
    schemas = get_workload("views-medium").schemas()

    def staged():
        weak = weak_merge(*schemas)
        proper = properize(weak)
        return weak, proper

    weak, proper = benchmark(staged)
    assert proper.classes >= weak.classes
