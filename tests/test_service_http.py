"""Tests for the asyncio HTTP front end (repro.service.http).

A real server on a real socket (port 0, loopback), driven with
``http.client`` — the same wire a curl user sees.  Covers the four
routes, the taxonomy → status-code mapping, keep-alive, and the
wire-format round trip through ``io/json_io.py``.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import threading

import pytest

from repro.core.schema import Schema
from repro.exceptions import (
    CorruptLogError,
    CorruptSnapshotError,
    IncompatibleSchemasError,
    InvalidRequestError,
    RetiredSchemaError,
    ServiceShutdownError,
    StorageError,
    UnknownClassError,
    UnknownSchemaError,
)
from repro.generators.workloads import get_request_stream
from repro.io.json_io import schema_from_dict, schema_to_dict
from repro.service import (
    API_FORMAT,
    HttpFrontend,
    MemoryBackend,
    MergeService,
    RegistrationEntry,
)
from repro.service import http as http_module
from repro.service.http import MAX_BODY_BYTES, status_for


def schema_doc(schema: Schema) -> dict:
    return schema_to_dict(schema)


def post(conn, path, payload):
    conn.request(
        "POST",
        path,
        json.dumps(payload),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    content_type = response.getheader("Content-Type", "")
    if content_type.startswith("application/json"):
        return response.status, json.loads(body)
    return response.status, body.decode()


@pytest.fixture
def service():
    return MergeService(
        [
            Schema.build(
                arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
            ),
            Schema.build(arrows=[("Case", "judge", "Court")]),
        ]
    )


@pytest.fixture
def frontend(service):
    with HttpFrontend(service, port=0) as server:
        yield server


@pytest.fixture
def conn(frontend):
    connection = http.client.HTTPConnection(*frontend.address, timeout=10)
    yield connection
    connection.close()


class TestRoutes:
    def test_register_round_trip(self, conn, service):
        incoming = Schema.build(arrows=[("Person", "argues", "Case")])
        status, doc = post(
            conn,
            "/v1/schemas",
            {"format": API_FORMAT, "schemas": [schema_doc(incoming)]},
        )
        assert status == 200
        assert doc["format"] == API_FORMAT
        assert doc["accepted"] == 1
        assert doc["generation"] == 2
        # The bridge merged the two seed components.
        assert doc["components"] == 1
        assert service.component_of("Dog") == service.component_of("Court")

    def test_component_view_round_trips_through_json_io(self, conn, service):
        sid = service.component_of("Dog")
        status, doc = get(conn, f"/v1/components/{sid}/view")
        assert status == 200
        assert doc["component"] == sid
        decoded = schema_from_dict(doc["view"])
        assert decoded == service.merged_view(sid)
        assert decoded.has_arrow("Puppy", "owner", "Person")

    def test_query(self, conn):
        status, doc = get(conn, "/v1/query/Dog")
        assert status == 200
        assert doc["format"] == API_FORMAT
        assert doc["class"] == "Dog"
        assert ["owner", "Person"] in doc["arrows_out"]
        assert "Puppy" in doc["specializations"]

    def test_stats_prometheus_text(self, conn):
        status, text = get(conn, "/v1/stats")
        assert status == 200
        assert "service_components" in text or "service" in text

    def test_stats_json(self, conn):
        status, doc = get(conn, "/v1/stats?format=json")
        assert status == 200
        assert doc["stats"]["components"] == 2

    def test_keep_alive_serves_many_requests_per_connection(self, conn):
        for _ in range(5):
            status, doc = get(conn, "/v1/query/Dog")
            assert status == 200
            assert doc["class"] == "Dog"


class TestSchemaLifecycleRoutes:
    def register_named(self, conn, name="pets", lifecycle=None):
        entry = {
            "name": name,
            "schema": schema_doc(
                Schema.build(arrows=[("Dog", "owner", "Person")])
            ),
        }
        if lifecycle is not None:
            entry["lifecycle"] = lifecycle
        return post(
            conn, "/v1/schemas", {"format": API_FORMAT, "schemas": [entry]}
        )

    def test_named_entry_registers_and_reads_back(self, conn):
        status, doc = self.register_named(conn)
        assert status == 200
        status, info = get(conn, "/v1/schemas/pets")
        assert status == 200
        assert info["name"] == "pets"
        assert info["recommended"] == 1
        assert info["versions"][0]["lifecycle"] == "recommended"

    def test_supersede_chain_over_the_wire(self, conn):
        self.register_named(conn)
        self.register_named(conn)
        status, info = get(conn, "/v1/schemas/pets")
        assert status == 200
        assert info["recommended"] == 2
        assert [v["lifecycle"] for v in info["versions"]] == [
            "supported",
            "recommended",
        ]

    def test_delete_retires_and_subsequent_reads_are_410(self, conn):
        self.register_named(conn)
        conn.request("DELETE", "/v1/schemas/pets")
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 200
        assert doc["name"] == "pets"
        assert doc["versions"] == [1]
        status, doc = get(conn, "/v1/schemas/pets")
        assert status == 410
        assert doc["type"] == "RetiredSchemaError"

    def test_unknown_schema_name_is_404(self, conn):
        status, doc = get(conn, "/v1/schemas/never-registered")
        assert status == 404
        assert doc["type"] == "UnknownSchemaError"

    def test_delete_unknown_schema_is_404(self, conn):
        conn.request("DELETE", "/v1/schemas/never-registered")
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 404
        assert doc["type"] == "UnknownSchemaError"

    def test_bad_lifecycle_is_400(self, conn):
        status, doc = self.register_named(conn, lifecycle="zombie")
        assert status == 400
        assert doc["type"] == "InvalidRequestError"

    def test_put_on_schema_name_is_405(self, conn):
        conn.request("PUT", "/v1/schemas/pets")
        response = conn.getresponse()
        response.read()
        assert response.status == 405


class TestStatusMapping:
    def test_unknown_class_is_404(self, conn):
        status, doc = get(conn, "/v1/query/Unicorn")
        assert status == 404
        assert doc["type"] == "UnknownClassError"
        assert "Unicorn" in doc["error"]

    def test_unknown_component_is_404(self, conn):
        status, doc = get(conn, "/v1/components/99/view")
        assert status == 404

    def test_malformed_body_is_400(self, conn):
        conn.request("POST", "/v1/schemas", "this is not json")
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 400
        assert doc["type"] == "InvalidRequestError"

    @pytest.mark.parametrize(
        "head",
        [
            b"POST /v1/schemas HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /v1/schemas HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /v1/" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET /v1/stats HTTP/1.1\r\nX-Big: " + b"y" * 70_000 + b"\r\n\r\n",
        ],
        ids=["non-integer-length", "negative-length", "long-line", "long-header"],
    )
    def test_malformed_head_is_400_and_closes(self, frontend, head):
        with socket.create_connection(frontend.address, timeout=10) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 400 ")
        _, _, body = rest.partition(b"\r\n\r\n")
        doc = json.loads(body)
        assert doc["format"] == "repro.api/1"
        assert doc["type"] == "InvalidRequestError"
        assert doc["error"].startswith("malformed request head")

    def test_oversized_body_is_413_before_the_body_is_read(self, frontend, service):
        head = (
            "POST /v1/schemas HTTP/1.1\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode("latin-1")
        generation = service.service_stats()["generation"]
        with socket.create_connection(frontend.address, timeout=10) as sock:
            sock.sendall(head)  # and no body: the answer must not wait for it
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 413 ")
        doc = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert str(MAX_BODY_BYTES) in doc["error"]
        assert doc["format"] == "repro.api/1"
        assert doc["type"] == "BodyTooLargeError"
        assert service.service_stats()["generation"] == generation

    def test_short_body_is_408_and_closes(self, frontend, service, monkeypatch):
        monkeypatch.setattr(http_module, "BODY_TIMEOUT_S", 0.2)
        head = b"POST /v1/schemas HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
        generation = service.service_stats()["generation"]
        with socket.create_connection(frontend.address, timeout=10) as sock:
            sock.sendall(head + b"{" * 10)  # 10 of the 100 declared bytes
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 408 Request Timeout"
        headers, _, body = rest.partition(b"\r\n\r\n")
        assert b"Connection: close" in headers
        doc = json.loads(body)
        assert doc["format"] == "repro.api/1"
        assert "100 bytes" in doc["error"]
        assert doc["type"] == "BodyTimeoutError"
        assert service.service_stats()["generation"] == generation

    def test_wrong_wire_format_is_400(self, conn):
        status, doc = post(conn, "/v1/schemas", {"format": "nope", "schemas": []})
        assert status == 400

    def test_bad_schema_document_is_400(self, conn):
        status, doc = post(
            conn,
            "/v1/schemas",
            {"format": API_FORMAT, "schemas": [{"format": "bogus"}]},
        )
        assert status == 400
        assert doc["type"] == "SerializationError"

    def test_incompatible_batch_is_409_and_rolls_back(self, conn, service):
        generation = service.service_stats()["generation"]
        status, doc = post(
            conn,
            "/v1/schemas",
            {
                "format": API_FORMAT,
                "schemas": [
                    schema_doc(Schema.build(spec=[("X", "Y")])),
                    schema_doc(Schema.build(spec=[("Y", "X")])),
                ],
            },
        )
        assert status == 409
        assert doc["type"] == "IncompatibleSchemasError"
        assert service.service_stats()["generation"] == generation
        assert service.component_of("X") is None

    def test_a_cyclic_document_is_409_with_its_own_witness(self, tmp_path):
        # Decoding no longer closes a document; the fold refuses it with
        # the witness Schema.build gives, and nothing reaches the log.
        cyclic = {
            "format": "repro.schema/1",
            "spec": [["A", "B"], ["B", "C"], ["C", "A"]],
        }
        with pytest.raises(IncompatibleSchemasError) as closed:
            schema_from_dict(cyclic)
        pets = Schema.build(arrows=[("Dog", "owner", "Person")])
        service = MergeService.open(tmp_path / "data")
        log = tmp_path / "data" / "registry.log"
        try:
            with HttpFrontend(service, port=0) as server:
                connection = http.client.HTTPConnection(*server.address, timeout=10)
                try:
                    body = {"format": API_FORMAT, "schemas": [schema_doc(pets)]}
                    assert post(connection, "/v1/schemas", body)[0] == 200
                    logged = log.read_bytes()
                    for batch in (
                        [cyclic],
                        [schema_doc(Schema.build(spec=[("Person", "A")])), cyclic],
                        [{"name": "loop", "schema": cyclic}],
                    ):
                        status, doc = post(
                            connection,
                            "/v1/schemas",
                            {"format": API_FORMAT, "schemas": batch},
                        )
                        assert status == 409
                        assert doc["type"] == "IncompatibleSchemasError"
                        assert doc["error"] == str(closed.value)
                finally:
                    connection.close()
            assert log.read_bytes() == logged
            assert service.service_stats()["generation"] == 1
        finally:
            service.close()

    def test_unknown_route_is_404(self, conn):
        status, doc = get(conn, "/v2/anything")
        assert status == 404

    def test_wrong_method_is_405(self, conn):
        status, doc = get(conn, "/v1/schemas")
        assert status == 405

    def test_non_integer_component_id_is_400(self, conn):
        status, doc = get(conn, "/v1/components/dog/view")
        assert status == 400

    def test_closed_service_is_503(self, conn, service):
        service.close()
        status, doc = get(conn, "/v1/query/Dog")
        assert status == 503
        assert doc["type"] == "ServiceShutdownError"

    def test_status_for_covers_the_taxonomy(self):
        assert status_for(UnknownClassError("x")) == 404
        assert status_for(UnknownSchemaError("x")) == 404
        assert status_for(RetiredSchemaError("x")) == 410
        assert status_for(InvalidRequestError("x")) == 400
        assert status_for(IncompatibleSchemasError("x")) == 409
        assert status_for(ServiceShutdownError("x")) == 503
        assert status_for(StorageError("x")) == 500
        assert status_for(CorruptLogError("x")) == 500
        assert status_for(CorruptSnapshotError("x")) == 500
        assert status_for(Exception("x")) == 500


class TestLifecycle:
    def test_port_zero_picks_a_free_port(self, frontend):
        host, port = frontend.address
        assert host == "127.0.0.1"
        assert port > 0

    def test_stop_is_idempotent(self, service):
        server = HttpFrontend(service, port=0).start()
        server.stop()
        server.stop()

    def test_stop_with_an_idle_keep_alive_connection_logs_nothing(
        self, service, caplog
    ):
        server = HttpFrontend(service, port=0).start()
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        status, _doc = get(connection, "/v1/query/Dog")
        assert status == 200
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            server.stop()  # the connection is open and idle in readline
        connection.close()
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_address_before_start_raises(self, service):
        with pytest.raises(RuntimeError):
            HttpFrontend(service).address

    def test_two_frontends_can_share_a_process(self, service):
        with HttpFrontend(service, port=0) as first:
            with HttpFrontend(service, port=0) as second:
                assert first.address != second.address
                for server in (first, second):
                    connection = http.client.HTTPConnection(
                        *server.address, timeout=10
                    )
                    status, doc = get(connection, "/v1/query/Dog")
                    connection.close()
                    assert status == 200


class _GatedBackend(MemoryBackend):
    """Once *gated*, ``append`` signals *entered* and then blocks on
    *release* — a writer parked on its log append (an fsync)."""

    def __init__(self):
        super().__init__()
        self.gated = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def append(self, record):
        if self.gated:
            self.entered.set()
            self.release.wait(timeout=60)
        return super().append(record)


class TestReadsDuringWrite:
    def test_reads_answer_while_a_write_waits_on_its_log_append(self):
        backend = _GatedBackend()
        pets = Schema.build(
            arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
        )
        service = MergeService(
            [RegistrationEntry(pets, name="pets")], storage=backend
        )
        backend.gated = True
        bridge = Schema.build(arrows=[("Person", "argues", "Case")])
        posted = []
        with HttpFrontend(service, port=0) as server:

            def write():
                writer = http.client.HTTPConnection(*server.address, timeout=60)
                try:
                    posted.append(
                        post(
                            writer,
                            "/v1/schemas",
                            {"format": API_FORMAT, "schemas": [schema_doc(bridge)]},
                        )
                    )
                finally:
                    writer.close()

            thread = threading.Thread(target=write, daemon=True)
            thread.start()
            try:
                assert backend.entered.wait(timeout=10)
                reader = http.client.HTTPConnection(*server.address, timeout=2)
                try:
                    for path in (
                        "/v1/schemas/pets",
                        "/v1/stats?format=json",
                        "/v1/query/Dog",
                    ):
                        status, _body = get(reader, path)
                        assert status == 200, path
                finally:
                    reader.close()
            finally:
                backend.release.set()
                thread.join(timeout=60)
        assert [status for status, _doc in posted] == [200]
        assert service.component_of("Case") == service.component_of("Dog")


def get_bytes(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


class TestWarmBodies:
    """View and query bodies are memoized on the shard as encoded bytes."""

    @pytest.fixture
    def sharded(self):
        initial, _requests = get_request_stream("service-sharded-small").make()
        service = MergeService(initial)
        with HttpFrontend(service, port=0) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=10)
            yield service, connection
            connection.close()

    @staticmethod
    def fresh_view(service, sid):
        payload = {
            "format": API_FORMAT,
            "component": sid,
            "view": schema_to_dict(service.merged_view(sid)),
        }
        return json.dumps(payload).encode()

    @staticmethod
    def fresh_query(service, cls):
        payload = {"format": API_FORMAT}
        payload.update(service.query(cls).to_dict())
        return json.dumps(payload).encode()

    def test_warm_bodies_are_byte_identical_to_a_fresh_encode(self, sharded):
        service, conn = sharded
        assert len(service.components()) > 1
        classes = sorted(service._registry.class_to_sid, key=str)
        for _ in range(2):  # cold, then warm
            for sid in service.components():
                status, body = get_bytes(conn, f"/v1/components/{sid}/view")
                assert (status, body) == (200, self.fresh_view(service, sid))
            for cls in classes:
                status, body = get_bytes(conn, f"/v1/query/{cls}")
                assert (status, body) == (200, self.fresh_query(service, cls))

    def test_a_post_re_encodes_only_its_component(self, conn, service):
        dog, court = service.component_of("Dog"), service.component_of("Court")
        paths = (
            f"/v1/components/{dog}/view", f"/v1/components/{court}/view",
            "/v1/query/Dog", "/v1/query/Court",
        )
        before = [get_bytes(conn, path)[1] for path in paths]
        court_bodies = dict(service._registry.shards[court].bodies)
        status, _doc = post(
            conn,
            "/v1/schemas",
            {
                "format": API_FORMAT,
                "schemas": [schema_doc(Schema.build(arrows=[("Dog", "walks", "Park")]))],
            },
        )
        assert status == 200
        after = [get_bytes(conn, path)[1] for path in paths]
        assert after[0] != before[0] and after[2] != before[2]
        assert after[1] == before[1] and after[3] == before[3]
        assert after[0] == self.fresh_view(service, dog)
        court_shard = service._registry.shards[court]
        assert all(
            court_shard.bodies[key] is body for key, body in court_bodies.items()
        )

    def test_unknown_class_404_leaves_no_memo_entry(self, conn, service):
        get_bytes(conn, "/v1/query/Dog")

        def memos():
            return {
                sid: dict(shard.bodies)
                for sid, shard in service._registry.shards.items()
            }

        before = memos()
        status, doc = get(conn, "/v1/query/NoSuchClass")
        assert status == 404 and doc["type"] == "UnknownClassError"
        assert memos() == before

    def test_a_warm_get_encodes_nothing(self, conn, service, monkeypatch):
        sid = service.component_of("Dog")
        paths = (f"/v1/components/{sid}/view", "/v1/query/Dog")
        warm = [get_bytes(conn, path) for path in paths]

        def refuse(*_args, **_kwargs):
            raise AssertionError("a warm GET encoded its body again")

        from repro.service import service as service_module
        from repro.service.api_types import QueryResult

        monkeypatch.setattr(service_module, "schema_to_dict", refuse)
        monkeypatch.setattr(http_module, "schema_to_dict", refuse)
        monkeypatch.setattr(QueryResult, "to_dict", refuse)
        monkeypatch.setattr(json, "dumps", refuse)
        assert [get_bytes(conn, path) for path in paths] == warm

    @staticmethod
    def outcomes(service):
        tel = service.telemetry
        counters = (
            tel.view_hits, tel.view_partial, tel.view_misses,
            tel.component_hits, tel.component_misses,
            tel.answer_hits, tel.answer_misses,
        )
        return [c.value for c in counters] + [service.service_stats()["requests_served"]]

    def test_warm_gets_count_what_in_process_reads_count(self, conn, service):
        sid = service.component_of("Dog")
        for read, path in (
            (lambda: service.merged_view(sid), f"/v1/components/{sid}/view"),
            (lambda: service.query("Dog"), "/v1/query/Dog"),
        ):
            get_bytes(conn, path)
            read()  # both forms warm
            start = self.outcomes(service)
            read()
            middle = self.outcomes(service)
            assert get_bytes(conn, path)[0] == 200
            end = self.outcomes(service)
            in_process = [b - a for a, b in zip(start, middle)]
            assert [b - a for a, b in zip(middle, end)] == in_process
            assert in_process[-1] == 1 and sum(in_process[:-1]) >= 1
        tel = service.telemetry
        assert tel.view_hits.value > 0 and tel.answer_hits.value > 0

    def test_sampled_gets_observe_the_duration_histograms(self):
        from repro import obs
        from repro.obs import _state

        was_enabled = _state.enabled
        obs.enable()
        try:
            service = MergeService(
                [Schema.build(arrows=[("Dog", "owner", "Person")])],
                telemetry_sample_every=1,
            )
            with HttpFrontend(service, port=0) as server:
                connection = http.client.HTTPConnection(*server.address, timeout=10)
                try:
                    for _ in range(3):  # one miss, then hits
                        get_bytes(connection, "/v1/components/0/view")
                        get_bytes(connection, "/v1/query/Dog")
                finally:
                    connection.close()
            tel = service.telemetry
            assert tel.view_duration.count == 3
            assert tel.query_duration.count == 3
        finally:
            _state.set_enabled(was_enabled)


def read_answers(sock, count):
    """Read *count* HTTP responses off a raw socket: (status, headers, doc)."""
    answers, pending = [], b""
    while len(answers) < count:
        head, sep, rest = pending.partition(b"\r\n\r\n")
        if sep:
            status_line, *lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            length = int(headers["Content-Length"])
            if len(rest) >= length:
                answers.append(
                    (int(status_line.split()[1]), headers, json.loads(rest[:length]))
                )
                pending = rest[length:]
                continue
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {len(answers)} answers"
        pending += chunk
    return answers


def raw_request(method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


class TestPipelining:
    """Answers leave in request order, even when a write is slow."""

    def test_pipelined_requests_are_answered_in_order(self):
        backend = _GatedBackend()
        service = MergeService(
            [Schema.build(arrows=[("Dog", "owner", "Person")])], storage=backend
        )
        backend.gated = True
        walks = {
            "name": "walks",
            "schema": schema_doc(Schema.build(arrows=[("Dog", "walks", "Park")])),
        }
        pipeline = b"".join([
            raw_request("GET", "/v1/query/Dog"),
            raw_request("POST", "/v1/schemas", {"format": API_FORMAT, "schemas": [walks]}),
            raw_request("GET", "/v1/query/Park"),
            raw_request("DELETE", "/v1/schemas/walks"),
        ])
        with HttpFrontend(service, port=0) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                try:
                    sock.sendall(pipeline)
                    assert backend.entered.wait(timeout=10)
                    [(status, _, first)] = read_answers(sock, 1)
                    assert (status, first["class"]) == (200, "Dog")
                    sock.settimeout(0.3)
                    with pytest.raises(socket.timeout):
                        sock.recv(1)  # the read behind the write waits for it
                    sock.settimeout(10)
                finally:
                    backend.release.set()
                answers = read_answers(sock, 3)
        assert [status for status, _, _ in answers] == [200, 200, 200]
        receipt, park, retired = (doc for _, _, doc in answers)
        assert receipt["accepted"] == 1
        assert park["class"] == "Park"  # the read saw the write before it
        assert (retired["name"], retired["versions"]) == ("walks", [1])

    def test_a_body_over_one_read_buffer_arrives_whole(self, conn, service):
        big = Schema.build(arrows=[("Dog", f"trait{i}", "Trait") for i in range(3000)])
        doc = {"format": API_FORMAT, "schemas": [schema_doc(big)]}
        assert len(json.dumps(doc)) > 64 * 1024
        status, receipt = post(conn, "/v1/schemas", doc)
        assert status == 200 and receipt["accepted"] == 1
        assert get(conn, "/v1/query/Trait")[0] == 200


class TestDeadlines:
    """Head and idle deadlines, enforced by one sweep per front end."""

    def test_a_half_sent_head_is_408_and_closes(self, frontend, monkeypatch):
        monkeypatch.setattr(http_module, "HEAD_TIMEOUT_S", 0.3)
        with socket.create_connection(frontend.address, timeout=10) as sock:
            for piece in (b"GET /v1/query/Dog HTTP/1.1\r\n", b"Host: x\r\n", b"X: y"):
                sock.sendall(piece)  # bytes keep arriving; the head never ends
                threading.Event().wait(0.15)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 408 Request Timeout"
        headers, _, body = rest.partition(b"\r\n\r\n")
        assert b"Connection: close" in headers
        doc = json.loads(body)
        assert doc["format"] == "repro.api/1"
        assert doc["type"] == "BodyTimeoutError"
        assert "request head" in doc["error"]

    def test_an_idle_connection_is_closed_without_an_answer(
        self, frontend, monkeypatch
    ):
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.3)
        with socket.create_connection(frontend.address, timeout=10) as sock:
            sock.sendall(raw_request("GET", "/v1/query/Dog"))
            assert read_answers(sock, 1)[0][0] == 200
            assert sock.recv(65536) == b""  # closed, and nothing was sent

    def test_a_busy_connection_is_never_cut(self, frontend, monkeypatch):
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.3)
        monkeypatch.setattr(http_module, "HEAD_TIMEOUT_S", 0.3)
        connection = http.client.HTTPConnection(*frontend.address, timeout=10)
        try:
            connection.connect()
            sock = connection.sock
            for _ in range(25):  # ~1.25 s: several sweeps, each gap < 0.3 s
                assert get(connection, "/v1/query/Dog")[0] == 200
                threading.Event().wait(0.05)
            assert connection.sock is sock
        finally:
            connection.close()


class TestShutdownAndDisconnects:
    def gated(self):
        backend = _GatedBackend()
        service = MergeService(
            [Schema.build(arrows=[("Dog", "owner", "Person")])], storage=backend
        )
        backend.gated = True
        body = {
            "format": API_FORMAT,
            "schemas": [schema_doc(Schema.build(arrows=[("Person", "argues", "Case")]))],
        }
        return backend, service, body

    def test_a_client_gone_mid_post_leaves_no_warning(self, caplog):
        backend, service, body = self.gated()
        server = HttpFrontend(service, port=0).start()
        try:
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                with socket.create_connection(server.address, timeout=10) as sock:
                    sock.sendall(raw_request("POST", "/v1/schemas", body))
                    assert backend.entered.wait(timeout=10)
                backend.release.set()  # the client has closed
                for _ in range(200):
                    if service.service_stats()["generation"] == 2:
                        break
                    threading.Event().wait(0.05)
                connection = http.client.HTTPConnection(*server.address, timeout=10)
                assert get(connection, "/v1/query/Case")[0] == 200
                connection.close()
                server.stop()
        finally:
            backend.release.set()
            server.stop()
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        # The register committed whole: one generation, both classes joined.
        assert service.service_stats()["generation"] == 2
        assert service.component_of("Case") == service.component_of("Dog")

    def test_stop_answers_the_write_in_flight_before_closing(self):
        backend, service, body = self.gated()
        server = HttpFrontend(service, port=0).start()
        address = server.address
        posted = []

        def write():
            writer = http.client.HTTPConnection(*address, timeout=30)
            try:
                writer.request("POST", "/v1/schemas", json.dumps(body))
                response = writer.getresponse()
                posted.append(
                    (response.status, response.getheader("Connection"),
                     json.loads(response.read()))
                )
            finally:
                writer.close()

        writing = threading.Thread(target=write, daemon=True)
        writing.start()
        stopping = threading.Thread(target=server.stop, daemon=True)
        try:
            assert backend.entered.wait(timeout=10)
            stopping.start()
            for _ in range(200):
                if not server._serving:  # stop() has begun
                    break
                threading.Event().wait(0.05)
            assert posted == []
        finally:
            backend.release.set()
            writing.join(timeout=30)
            stopping.join(timeout=30)
        [(status, connection, receipt)] = posted
        assert (status, connection, receipt["generation"]) == (200, "close", 2)
        assert not stopping.is_alive()
        assert service.component_of("Case") == service.component_of("Dog")
