"""repro — a full reproduction of *Theoretical Aspects of Schema Merging*
(Buneman, Davidson, Kosky; EDBT 1992).

The library implements the paper's general graph data model, the weak
information ordering with its bounded joins, the associative/commutative
upper merge with origin-named implicit classes, key-constraint
propagation, participation-constraint lower merges, and the ER /
relational / functional model translations the paper sketches — plus the
instance semantics, baselines and tooling needed to evaluate it.

Quickstart::

    from repro import Schema, upper_merge, isa

    pets = Schema.build(
        arrows=[("Dog", "owner", "Person"), ("Dog", "breed", "Breed")])
    licences = Schema.build(
        arrows=[("Dog", "licence", "Licence"),
                ("Police-dog", "badge", "Badge")],
        spec=[("Police-dog", "Dog")])
    merged = upper_merge(pets, licences, assertions=[isa("Puppy", "Dog")])

See ``README.md`` for the architecture overview and the documentation
index, and ``tests/test_figures.py`` and ``benchmarks/`` for the
reproduction of every figure.
"""

from repro.core.assertions import AssertionSet, arrow, class_exists, isa
from repro.core.consistency import ConsistencyRelation
from repro.core.framework import (
    ANNOTATED_ORDERING,
    KEYED_ORDERING,
    WEAK_ORDERING,
    InformationOrdering,
    annotated_join,
    annotated_meet,
    keyed_join,
    keyed_leq,
    keyed_meet,
    validate_merge_concept,
)
from repro.core.keys import (
    KeyFamily,
    KeyedSchema,
    merge_keyed,
    minimal_satisfactory_assignment,
)
from repro.core.lower import (
    AnnotatedSchema,
    annotated_leq,
    lower_merge,
    lower_properize,
)
from repro.core.merge import MergeReport, merge_report, upper_merge, weak_merge
from repro.core.implicit import properize, strip_implicits
from repro.core.names import BaseName, GenName, ImplicitName, name
from repro.core.ordering import compatible, is_sub, join, join_all, meet
from repro.core.participation import Participation
from repro.core.proper import canonical_arrows, canonical_class, is_proper
from repro.core.schema import Schema
from repro import obs
from repro.obs import span
from repro.service import (
    MergeService,
    QueryResult,
    RegisterReceipt,
    RegistrationEntry,
    RetireReceipt,
    serve_http,
)
from repro.tools.session import IntegrationSession
from repro.exceptions import (
    CorruptLogError,
    CorruptSnapshotError,
    IncompatibleSchemasError,
    InconsistentSchemasError,
    KeyConstraintError,
    NotProperError,
    RetiredSchemaError,
    SchemaError,
    SchemaValidationError,
    ServiceError,
    ServiceShutdownError,
    StorageError,
    StorageLockedError,
    UnknownClassError,
    UnknownSchemaError,
)

__version__ = "1.1.0"

__all__ = [
    "ANNOTATED_ORDERING",
    "AnnotatedSchema",
    "AssertionSet",
    "InformationOrdering",
    "KEYED_ORDERING",
    "WEAK_ORDERING",
    "BaseName",
    "ConsistencyRelation",
    "CorruptLogError",
    "CorruptSnapshotError",
    "GenName",
    "ImplicitName",
    "IncompatibleSchemasError",
    "InconsistentSchemasError",
    "IntegrationSession",
    "KeyConstraintError",
    "KeyFamily",
    "KeyedSchema",
    "MergeReport",
    "MergeService",
    "NotProperError",
    "Participation",
    "QueryResult",
    "RegisterReceipt",
    "RegistrationEntry",
    "RetireReceipt",
    "RetiredSchemaError",
    "Schema",
    "SchemaError",
    "SchemaValidationError",
    "ServiceError",
    "ServiceShutdownError",
    "StorageError",
    "StorageLockedError",
    "UnknownClassError",
    "UnknownSchemaError",
    "annotated_join",
    "annotated_leq",
    "annotated_meet",
    "arrow",
    "canonical_arrows",
    "canonical_class",
    "class_exists",
    "compatible",
    "is_proper",
    "is_sub",
    "isa",
    "join",
    "join_all",
    "keyed_join",
    "keyed_leq",
    "keyed_meet",
    "lower_merge",
    "lower_properize",
    "meet",
    "merge_keyed",
    "merge_report",
    "minimal_satisfactory_assignment",
    "name",
    "obs",
    "properize",
    "serve_http",
    "span",
    "strip_implicits",
    "upper_merge",
    "validate_merge_concept",
    "weak_merge",
    "__version__",
]
