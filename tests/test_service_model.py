"""Model check: a durable ``MergeService`` against the paper's algebra.

A ``hypothesis`` state machine drives one ``MergeService.open`` data
directory through arbitrary histories of batch registers (anonymous or
named, compatible or not; as ``Schema`` values or as wire documents
decoded by the HTTP front end, in closed form, generator form or with
reordered edges), retires, ``save()`` cuts and close/reopen cycles.  The model is the multiset of live schemas plus the lifecycle
table of each name; after every step the service must agree with it:

* ``merged_view()`` is ``join_all`` of the live schemas (Prop. 4.1:
  the weak least upper bound of a compatible family), and each
  component's view is ``join_all`` of its own members;
* the components' member multisets partition the live multiset, and
  no class lies in two components (a retire rebuilds a component from
  its remaining members without splitting it, so a component may hold
  several connected components of the class-sharing graph);
* each name resolves to its newest live version;
* a rejected batch changes nothing, and a reopen (cut plus log suffix)
  restores exactly the state the closed service held — same log, same
  state.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from typing import Dict, List, Optional

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.ordering import join_all
from repro.core.schema import Schema
from repro.io.json_io import schema_to_dict
from repro.exceptions import (
    IncompatibleSchemasError,
    InvalidRequestError,
    RetiredSchemaError,
    UnknownSchemaError,
)
from repro.service import HttpFrontend, MergeService
from repro.service.storage import RegistrationEntry

from tests.conftest import CLASS_UNIVERSE, schema_docs, schemas

NAMES = ("alpha", "beta", "gamma")

#: One specialization edge between two of a few classes: two draws
#: with the edge reversed close a cycle, so batches are often refused.
edges = st.lists(
    st.sampled_from(CLASS_UNIVERSE[:4]), min_size=2, max_size=2, unique=True
).map(lambda pair: Schema.build(spec=[tuple(pair)]))

entries = st.tuples(
    st.one_of(schemas(max_classes=4), edges),
    st.one_of(st.none(), st.sampled_from(NAMES)),
)

#: The same draws as (schema, document) pairs, for the wire rule.
documents = st.tuples(
    st.one_of(
        schema_docs(max_classes=4),
        edges.map(lambda schema: (schema, schema_to_dict(schema))),
    ),
    st.one_of(st.none(), st.sampled_from(NAMES)),
)

class ServiceModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.data = tempfile.mkdtemp(prefix="repro-model-")
        self.service = MergeService.open(self.data, fsync=False)
        self.live: List[Schema] = []
        #: name → [schema, retired] per version, in version order.
        self.series: Dict[str, List[list]] = {}

    def teardown(self) -> None:
        self.service.close()
        shutil.rmtree(self.data, ignore_errors=True)

    def observed(self) -> tuple:
        service = self.service
        return (
            service.service_stats()["generation"],
            service.merged_view(),
            service.components(),
            {sid: service.component_schemas(sid) for sid in service.components()},
            {n: service.schema_info(n) for n in self.live_names()},
        )

    def live_names(self) -> List[str]:
        return [
            n for n, versions in self.series.items()
            if any(not retired for _s, retired in versions)
        ]

    def expected_failure(self, batch) -> Optional[type]:
        if any(name is not None and schema.is_empty() for schema, name in batch):
            return InvalidRequestError
        try:
            join_all(self.live + [schema for schema, _name in batch])
        except IncompatibleSchemasError:
            return IncompatibleSchemasError
        return None

    @rule(batch=st.lists(entries, min_size=1, max_size=3))
    def register(self, batch) -> None:
        self.apply(batch, [
            schema if name is None else RegistrationEntry(schema, name=name)
            for schema, name in batch
        ])

    @rule(batch=st.lists(documents, min_size=1, max_size=3))
    def register_documents(self, batch) -> None:
        self.apply(
            [(schema, name) for (schema, _doc), name in batch],
            [
                HttpFrontend._decode_entry(
                    doc if name is None else {"name": name, "schema": doc}
                )
                for (_schema, doc), name in batch
            ],
        )

    def apply(self, batch, items) -> None:
        """Register *items*, the entries of *batch*'s (schema, name) pairs."""
        failure = self.expected_failure(batch)
        before = self.observed()
        try:
            self.service.register(items)
        except (IncompatibleSchemasError, InvalidRequestError) as exc:
            assert type(exc) is failure, exc
            assert self.observed() == before  # a rejected batch changes nothing
            return
        assert failure is None
        for schema, name in batch:
            if schema.is_empty():
                continue
            self.live.append(schema)
            if name is not None:
                self.series.setdefault(name, []).append([schema, False])

    @rule(name=st.sampled_from(NAMES))
    def retire(self, name: str) -> None:
        versions = self.series.get(name)
        live = [v for v in versions or () if not v[1]]
        expected = (
            UnknownSchemaError if versions is None
            else RetiredSchemaError if not live
            else None
        )
        try:
            self.service.retire(name)
        except (UnknownSchemaError, RetiredSchemaError) as exc:
            assert type(exc) is expected, exc
            return
        assert expected is None
        for version in live:
            version[1] = True
            self.live.remove(version[0])

    @rule()
    def save(self) -> None:
        self.service.save()

    @rule()
    def reopen(self) -> None:
        before = self.observed()
        self.service.close()
        self.service = MergeService.open(self.data, fsync=False)
        assert self.observed() == before

    @invariant()
    def merged_view_is_the_join_of_the_live_schemas(self) -> None:
        assert self.service.merged_view() == join_all(self.live)

    @invariant()
    def components_partition_the_live_schemas(self) -> None:
        service = self.service
        held: Counter = Counter()
        seen: set = set()
        for sid in service.components():
            members = service.component_schemas(sid)
            view = service.merged_view(sid)
            assert view == join_all(members)
            assert not seen & view.classes  # no class spans two components
            seen |= view.classes
            held.update(members)
        assert held == Counter(self.live)

    @invariant()
    def names_resolve_to_their_newest_live_version(self) -> None:
        for name, versions in self.series.items():
            live = [schema for schema, retired in versions if not retired]
            if live:
                assert self.service.resolve_schema(name) == live[-1]
                continue
            try:
                self.service.resolve_schema(name)
            except RetiredSchemaError:
                continue
            raise AssertionError(f"{name!r} resolves after its retirement")


ServiceModel.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceModel = ServiceModel.TestCase
