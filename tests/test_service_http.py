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
from repro.io.json_io import schema_from_dict, schema_to_dict
from repro.service import API_FORMAT, HttpFrontend, MergeService
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
