"""Integration tests for the schema-merge CLI."""

import json

import pytest

from repro.core.lower import AnnotatedSchema
from repro.core.participation import Participation
from repro.core.schema import Schema
from repro.figures import figure3_schemas
from repro.io import json_io
from repro.tools.cli import main


@pytest.fixture
def schema_files(tmp_path):
    one, two = figure3_schemas()
    path_one = tmp_path / "g1.json"
    path_two = tmp_path / "g2.json"
    path_one.write_text(json_io.dumps(one))
    path_two.write_text(json_io.dumps(two))
    return path_one, path_two


class TestShow:
    def test_show_schema(self, schema_files, capsys):
        path_one, _ = schema_files
        assert main(["show", str(path_one)]) == 0
        out = capsys.readouterr().out
        assert "classes" in out

    def test_show_annotated(self, tmp_path, capsys):
        schema = AnnotatedSchema.build(
            arrows=[("A", "f", "B", Participation.OPTIONAL)]
        )
        path = tmp_path / "ann.json"
        path.write_text(json_io.dumps(schema))
        assert main(["show", str(path)]) == 0
        assert "--f?-->" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["show", "/nonexistent/file.json"]) == 2


class TestMerge:
    def test_merge_to_file(self, schema_files, tmp_path, capsys):
        path_one, path_two = schema_files
        out_path = tmp_path / "merged.json"
        code = main(
            ["merge", str(path_one), str(path_two), "-o", str(out_path)]
        )
        assert code == 0
        merged = json_io.loads(out_path.read_text())
        assert isinstance(merged, Schema)
        assert any(str(c) == "<B1&B2>" for c in merged.classes)

    def test_merge_explain(self, schema_files, capsys):
        path_one, path_two = schema_files
        assert main(["merge", str(path_one), str(path_two), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "weak merge (LUB)" in out
        assert "implicit classes introduced below" in out

    def test_merge_with_assertion(self, schema_files, capsys):
        path_one, path_two = schema_files
        assert (
            main(["merge", str(path_one), str(path_two), "--isa", "B1:B2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "<B1&B2>" not in out  # assertion removed the conflict

    def test_bad_assertion_syntax(self, schema_files, capsys):
        path_one, path_two = schema_files
        code = main(
            ["merge", str(path_one), str(path_two), "--isa", "nonsense"]
        )
        assert code == 1
        assert "SUB:SUPER" in capsys.readouterr().err

    def test_incompatible_merge_fails_cleanly(self, tmp_path, capsys):
        one = tmp_path / "a.json"
        two = tmp_path / "b.json"
        one.write_text(json_io.dumps(Schema.build(spec=[("A", "B")])))
        two.write_text(json_io.dumps(Schema.build(spec=[("B", "A")])))
        assert main(["merge", str(one), str(two)]) == 1
        assert "cycle" in capsys.readouterr().err


class TestLower:
    def test_lower_merge(self, tmp_path, capsys):
        one = tmp_path / "a.json"
        two = tmp_path / "b.json"
        one.write_text(
            json_io.dumps(
                Schema.build(
                    arrows=[("Dog", "name", "Str"), ("Dog", "age", "Int")]
                )
            )
        )
        two.write_text(
            json_io.dumps(Schema.build(arrows=[("Dog", "name", "Str")]))
        )
        assert main(["lower", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert "Dog --age?--> Int" in out
        assert "Dog --name--> Str" in out


class TestCheckDiffDot:
    def test_check(self, schema_files, capsys):
        path_one, path_two = schema_files
        assert main(["check", str(path_one), str(path_two)]) == 0
        assert "no conflicts detected" in capsys.readouterr().out

    def test_diff(self, schema_files, capsys):
        path_one, path_two = schema_files
        assert main(["diff", str(path_one), str(path_two)]) == 0
        out = capsys.readouterr().out
        assert "only in left" in out and "only in right" in out

    def test_dot_to_file(self, schema_files, tmp_path):
        path_one, _ = schema_files
        out_path = tmp_path / "g.dot"
        assert main(["dot", str(path_one), "-o", str(out_path)]) == 0
        assert out_path.read_text().startswith("digraph")


class TestTextDialect:
    def test_merge_text_files(self, tmp_path, capsys):
        one = tmp_path / "a.schema"
        two = tmp_path / "b.schema"
        one.write_text("C ==> A1\nC ==> A2\n")
        two.write_text("A1 --a--> B1\nA2 --a--> B2\n")
        assert main(["merge", str(one), str(two)]) == 0
        assert "<B1&B2>" in capsys.readouterr().out

    def test_mixed_dialects(self, tmp_path, schema_files, capsys):
        json_one, _ = schema_files
        text_two = tmp_path / "b.schema"
        text_two.write_text("A1 --a--> B1\nA2 --a--> B2\n")
        assert main(["merge", str(json_one), str(text_two)]) == 0
        assert "<B1&B2>" in capsys.readouterr().out

    def test_convert_round_trip(self, tmp_path, schema_files):
        json_one, _ = schema_files
        text_path = tmp_path / "a.schema"
        back_path = tmp_path / "a2.json"
        assert main(
            ["convert", str(json_one), "--to", "text", "-o", str(text_path)]
        ) == 0
        assert main(
            ["convert", str(text_path), "--to", "json", "-o", str(back_path)]
        ) == 0
        from repro.figures import figure3_schemas

        original, _two = figure3_schemas()
        assert json_io.loads(back_path.read_text()) == original

    def test_show_keyed_text(self, tmp_path, capsys):
        path = tmp_path / "t.schema"
        path.write_text(
            "T --loc--> M\nT --at--> Time\nkey T: {loc, at}\n"
        )
        assert main(["show", str(path)]) == 0
        assert "keys" in capsys.readouterr().out

    def test_unparseable_text(self, tmp_path, capsys):
        path = tmp_path / "bad.schema"
        path.write_text("this is not a schema\n")
        assert main(["show", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err


class TestCorrespond:
    @pytest.fixture
    def keyed_files(self, tmp_path):
        from repro.core.keys import KeyFamily, KeyedSchema

        census = KeyedSchema(
            Schema.build(arrows=[("Person", "ssn", "SSN")]),
            {"Person": KeyFamily.of({"ssn"})},
        )
        payroll = KeyedSchema(
            Schema.build(
                arrows=[("Person", "ssn", "SSN"), ("Person", "name", "Str")]
            )
        )
        one = tmp_path / "census.json"
        two = tmp_path / "payroll.json"
        one.write_text(json_io.dumps(census))
        two.write_text(json_io.dumps(payroll))
        return one, two

    def test_reports_the_imposed_key(self, keyed_files, capsys):
        one, two = keyed_files
        assert main(["correspond", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert "imposed" in out

    def test_plain_schemas_are_accepted(self, schema_files, capsys):
        one, two = schema_files
        assert main(["correspond", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert "identity" in out or "no class is shared" in out

    def test_instance_file_rejected(self, tmp_path, capsys):
        from repro.instances.instance import Instance

        path = tmp_path / "inst.json"
        path.write_text(json_io.dumps(Instance.build(extents={"A": {"x"}})))
        assert main(["correspond", str(path), str(path)]) == 1
        assert "expected" in capsys.readouterr().err


class TestOOMerge:
    @pytest.fixture
    def diagram_files(self, tmp_path):
        from repro.models.oo import OOAttribute, OOClass, OODiagram

        one = OODiagram(
            classes=[OOClass("Person", [OOAttribute("name", "Str")])]
        )
        two = OODiagram(
            classes=[
                OOClass("Person", [OOAttribute("age", "Int")]),
                OOClass("Pet", [OOAttribute("owner", "Person")]),
            ]
        )
        path_one = tmp_path / "lib1.json"
        path_two = tmp_path / "lib2.json"
        path_one.write_text(json_io.dumps(one))
        path_two.write_text(json_io.dumps(two))
        return path_one, path_two

    def test_merges_and_prints_classes(self, diagram_files, capsys):
        one, two = diagram_files
        assert main(["oo-merge", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert "class Person:" in out
        assert "age: Int" in out and "name: Str" in out

    def test_writes_mergeable_json(self, diagram_files, tmp_path, capsys):
        from repro.models.oo import OODiagram

        one, two = diagram_files
        out_path = tmp_path / "merged.json"
        assert main(
            ["oo-merge", str(one), str(two), "-o", str(out_path)]
        ) == 0
        merged = json_io.loads(out_path.read_text())
        assert isinstance(merged, OODiagram)
        assert merged.all_attributes("Person") == {
            "name": "Str",
            "age": "Int",
        }

    def test_non_diagram_rejected(self, schema_files, capsys):
        one, _two = schema_files
        assert main(["oo-merge", str(one)]) == 1
        assert "repro.oo/1" in capsys.readouterr().err


class TestFuse:
    @pytest.fixture
    def source_files(self, tmp_path):
        from repro.datasets import person_registry_scenario

        entries = []
        for index, (keyed, instance) in enumerate(
            person_registry_scenario()
        ):
            schema_path = tmp_path / f"schema{index}.json"
            instance_path = tmp_path / f"instance{index}.json"
            schema_path.write_text(json_io.dumps(keyed))
            instance_path.write_text(json_io.dumps(instance))
            entries.append(f"{schema_path}:{instance_path}")
        return entries

    def test_fuses_and_reports(self, source_files, capsys):
        code = main(
            ["fuse"]
            + [arg for entry in source_files for arg in ("--source", entry)]
            + [
                "--value-class", "SSN",
                "--value-class", "Date",
                "--value-class", "Str",
                "--value-class", "Money",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 identified by keys" in out
        assert "imposed" in out

    def test_writes_fused_instance(self, source_files, tmp_path, capsys):
        from repro.instances.instance import Instance

        out_path = tmp_path / "fused.json"
        code = main(
            ["fuse"]
            + [arg for entry in source_files for arg in ("--source", entry)]
            + ["--value-class", "SSN", "-o", str(out_path)]
        )
        assert code == 0
        fused = json_io.loads(out_path.read_text())
        assert isinstance(fused, Instance)
        assert len(fused.extent("Person")) == 3

    def test_malformed_source_spec_rejected(self, capsys):
        assert main(["fuse", "--source", "only-one-path.json"]) == 1
        assert "SCHEMA.json:INSTANCE.json" in capsys.readouterr().err


class TestOOShowAndDot:
    @pytest.fixture
    def diagram_file(self, tmp_path):
        from repro.models.oo import OOAttribute, OOClass, OODiagram

        diagram = OODiagram(
            classes=[
                OOClass("Person", [OOAttribute("name", "Str")]),
                OOClass("Author", bases=("Person",)),
            ]
        )
        path = tmp_path / "lib.json"
        path.write_text(json_io.dumps(diagram))
        return path

    def test_show_renders_classes(self, diagram_file, capsys):
        assert main(["show", str(diagram_file)]) == 0
        out = capsys.readouterr().out
        assert "class Author (Person):" in out

    def test_dot_renders_via_general_model(self, diagram_file, capsys):
        assert main(["dot", str(diagram_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "Author" in out and "name" in out


class TestShowInstance:
    def test_show_instance_renders_extents(self, tmp_path, capsys):
        from repro.instances.instance import Instance

        instance = Instance.build(
            extents={"Dog": {"d1"}},
            values={("d1", "name"): "d1"},
        )
        path = tmp_path / "inst.json"
        path.write_text(json_io.dumps(instance))
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "objects (1):" in out


class TestServe:
    @pytest.fixture
    def service_files(self, tmp_path):
        pets = Schema.build(
            arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
        )
        court = Schema.build(arrows=[("Case", "judge", "Court")])
        pets_path = tmp_path / "pets.json"
        court_path = tmp_path / "court.json"
        pets_path.write_text(json_io.dumps(pets))
        court_path.write_text(json_io.dumps(court))
        return pets_path, court_path

    def run_session(self, monkeypatch, argv, script):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        return main(argv)

    def test_session_views_queries_and_quits(
        self, service_files, monkeypatch, capsys
    ):
        pets_path, court_path = service_files
        script = "components\nview Dog\nquery Person\nstats\nquit\n"
        assert (
            self.run_session(
                monkeypatch,
                ["serve", str(pets_path), str(court_path)],
                script,
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "registered 2 schemas in 2 components" in out
        assert "Puppy --owner--> Person" in out
        assert '"arrows_in"' in out
        assert '"requests_served": 2' in out

    def test_session_registers_mid_flight(
        self, service_files, monkeypatch, capsys, tmp_path
    ):
        pets_path, court_path = service_files
        bridge = Schema.build(arrows=[("Person", "argues", "Case")])
        bridge_path = tmp_path / "bridge.json"
        bridge_path.write_text(json_io.dumps(bridge))
        script = f"register {bridge_path}\ncomponents\nquit\n"
        assert (
            self.run_session(
                monkeypatch,
                ["serve", str(pets_path), str(court_path)],
                script,
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "generation 2: 1 components" in out

    def test_session_survives_bad_requests(
        self, service_files, monkeypatch, capsys
    ):
        pets_path, _ = service_files
        script = "query Unicorn\nbogus\nview Dog\n"  # EOF ends the session
        assert (
            self.run_session(monkeypatch, ["serve", str(pets_path)], script)
            == 0
        )
        out = capsys.readouterr().out
        assert "error: no registered schema mentions class Unicorn" in out
        assert "unknown command 'bogus'" in out
        assert "Dog --owner--> Person" in out

    def test_workload_preload(self, monkeypatch, capsys):
        script = "stats\nquit\n"
        assert (
            self.run_session(
                monkeypatch,
                ["serve", "--workload", "service-tiny"],
                script,
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "registered 12 schemas" in out


class TestWorkloadReplay:
    """``stats`` and ``trace`` replay a named request stream."""

    @staticmethod
    def stream_registers() -> int:
        from repro.generators.workloads import get_request_stream

        _initial, requests = get_request_stream("service-tiny").make()
        return sum(1 for kind, _payload in requests if kind == "register")

    def test_stats_json_counts_replayed_registers(self, capsys):
        assert (
            main(["stats", "--workload", "service-tiny", "--format", "json"])
            == 0
        )
        metrics = json.loads(capsys.readouterr().out)
        calls = [m for m in metrics if m["name"] == "service.register.calls"]
        assert len(calls) == 1
        # One register of the initial schemas, then the stream's own.
        assert calls[0]["value"] == 1 + self.stream_registers()

    def test_trace_prints_register_spans(self, capsys):
        assert main(["trace", "--workload", "service-tiny"]) == 0
        roots = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("service.register ")
        ]
        assert len(roots) == 1 + self.stream_registers()

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["stats", "--workload", "nope"]) == 1
        assert "unknown request stream" in capsys.readouterr().err
