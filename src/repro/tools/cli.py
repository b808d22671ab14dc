"""The command-line merge tool — the reproduction's "prototype".

The paper reports "a prototype implementation, together with a
graphical interface, has been developed"; this CLI exposes the same
workflow over JSON schema files and deterministic text/DOT rendering:

.. code-block:: console

    schema-merge show g1.json                      # render a schema
    schema-merge check g1.json g2.json             # pre-merge conflicts
    schema-merge check --strict src/repro          # invariant analyzers
    schema-merge merge g1.json g2.json -o out.json # upper merge
    schema-merge merge --isa Puppy:Dog g1.json g2.json
    schema-merge lower g1.json g2.json             # lower merge
    schema-merge diff g1.json g2.json              # structural diff
    schema-merge dot merged.json                   # Graphviz output
    schema-merge correspond g1.json g2.json        # §5 key analysis
    schema-merge oo-merge lib1.json lib2.json      # merge class diagrams
    schema-merge fuse --source g1.json:i1.json \
                      --source g2.json:i2.json \
                      --value-class SSN            # §5 entity resolution
    schema-merge serve g1.json g2.json             # long-lived service REPL
    schema-merge stats --workload service-tiny     # telemetry counters
    schema-merge trace --workload service-tiny     # span tree of a replay

Exit codes: 0 success, 1 merge failure (incompatible/inconsistent), 2
bad input.  All subcommands read/write the JSON dialect of
:mod:`repro.io.json_io`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.assertions import isa
from repro.core.diff import diff
from repro.core.keys import KeyedSchema
from repro.core.lower import AnnotatedSchema, lower_merge, lower_properize
from repro.core.merge import merge_report
from repro.core.schema import Schema
from repro.exceptions import SchemaError
from repro.io import json_io, text_format
from repro.render.ascii_art import (
    render_annotated,
    render_keyed,
    render_report,
    render_schema,
)
from repro.render.dot import annotated_to_dot, schema_to_dot
from repro.tools.conflicts import conflict_report

__all__ = ["main", "build_parser"]


def _load_artifact(path: str) -> Any:
    """Load a schema file in either dialect (JSON or the text format).

    JSON documents are recognised by their leading ``{``; everything
    else goes through :mod:`repro.io.text_format`.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json_io.loads(text)
    return text_format.parse(text)


def _load_schema(path: str) -> Schema:
    artifact = _load_artifact(path)
    if isinstance(artifact, Schema):
        return artifact
    if isinstance(artifact, KeyedSchema):
        return artifact.schema
    if isinstance(artifact, AnnotatedSchema):
        # Accept annotated files where plain schemas are expected by
        # taking their required-arrow projection.
        return artifact.required_schema()
    raise SchemaError(
        f"{path}: expected a schema document, got "
        f"{type(artifact).__name__}"
    )


def _load_annotated(path: str) -> AnnotatedSchema:
    artifact = _load_artifact(path)
    if isinstance(artifact, AnnotatedSchema):
        return artifact
    if isinstance(artifact, Schema):
        return AnnotatedSchema.from_schema(artifact)
    raise SchemaError(
        f"{path}: expected a schema document, got "
        f"{type(artifact).__name__}"
    )


def _parse_assertions(entries: Optional[Sequence[str]]) -> List[Schema]:
    assertions: List[Schema] = []
    for entry in entries or []:
        if ":" not in entry:
            raise SchemaError(
                f"assertions take the form SUB:SUPER, got {entry!r}"
            )
        sub, sup = entry.split(":", 1)
        assertions.append(isa(sub.strip(), sup.strip()))
    return assertions


def _write_or_print(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="schema-merge",
        description=(
            "Order-independent schema merging "
            "(Buneman/Davidson/Kosky, EDBT 1992)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    show = commands.add_parser("show", help="render a schema as text")
    show.add_argument("schema", help="JSON schema file")

    check = commands.add_parser(
        "check",
        help=(
            "pre-merge conflict report on schema files, or the "
            "concurrency-invariant analyzers on Python sources"
        ),
    )
    check.add_argument(
        "schemas",
        nargs="+",
        help=(
            "JSON schema files (conflict report), or .py files / "
            "directories (static analysis — see docs/STATIC_ANALYSIS.md)"
        ),
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help=(
            "force static-analysis mode and fail on warnings as well "
            "as errors"
        ),
    )

    merge = commands.add_parser(
        "merge", help="upper merge (least upper bound + implicit classes)"
    )
    merge.add_argument("schemas", nargs="+", help="JSON schema files")
    merge.add_argument(
        "--isa",
        action="append",
        metavar="SUB:SUPER",
        help="assert SUB ==> SUPER (repeatable; order never matters)",
    )
    merge.add_argument("-o", "--output", help="write merged schema JSON here")
    merge.add_argument(
        "--explain",
        action="store_true",
        help="print the full merge report instead of the result schema",
    )

    lower = commands.add_parser(
        "lower", help="lower merge (greatest lower bound, federated views)"
    )
    lower.add_argument("schemas", nargs="+", help="JSON schema files")
    lower.add_argument("-o", "--output", help="write merged schema JSON here")
    lower.add_argument(
        "--import-spec",
        action="store_true",
        help="import foreign specialization edges during class completion",
    )

    diff_cmd = commands.add_parser("diff", help="structural diff")
    diff_cmd.add_argument("left", help="JSON schema file")
    diff_cmd.add_argument("right", help="JSON schema file")

    dot = commands.add_parser("dot", help="emit Graphviz DOT")
    dot.add_argument("schema", help="JSON schema file")
    dot.add_argument("-o", "--output", help="write DOT here")

    convert = commands.add_parser(
        "convert", help="convert between the JSON and text dialects"
    )
    convert.add_argument("schema", help="schema file (either dialect)")
    convert.add_argument(
        "--to",
        choices=["json", "text"],
        required=True,
        help="output dialect",
    )
    convert.add_argument("-o", "--output", help="write result here")

    correspond = commands.add_parser(
        "correspond",
        help=(
            "how merged keys identify objects across databases "
            "(agreed / imposed / undeterminable, section 5)"
        ),
    )
    correspond.add_argument(
        "schemas", nargs="+", help="JSON keyed-schema files"
    )
    correspond.add_argument(
        "--isa",
        action="append",
        metavar="SUB:SUPER",
        help="assert SUB ==> SUPER before analysing (repeatable)",
    )

    oo_merge = commands.add_parser(
        "oo-merge",
        help="merge object-oriented class diagrams (translate-merge-back)",
    )
    oo_merge.add_argument(
        "diagrams", nargs="+", help="JSON class-diagram files (repro.oo/1)"
    )
    oo_merge.add_argument(
        "-o", "--output", help="write the merged diagram JSON here"
    )

    fuse_cmd = commands.add_parser(
        "fuse",
        help=(
            "merge keyed schemas and fuse their instances by key-based "
            "object identity (section 5)"
        ),
    )
    fuse_cmd.add_argument(
        "--source",
        action="append",
        required=True,
        metavar="SCHEMA.json:INSTANCE.json",
        help="a keyed-schema file and its instance file (repeatable)",
    )
    fuse_cmd.add_argument(
        "--value-class",
        action="append",
        metavar="CLASS",
        help=(
            "class whose extent holds shared atomic values (repeatable); "
            "everything else is disjointified per source"
        ),
    )
    fuse_cmd.add_argument(
        "--isa",
        action="append",
        metavar="SUB:SUPER",
        help="assert SUB ==> SUPER before merging (repeatable)",
    )
    fuse_cmd.add_argument(
        "-o", "--output", help="write the fused instance JSON here"
    )

    serve = commands.add_parser(
        "serve",
        help=(
            "long-lived merge service: register schemas, then answer "
            "view/query commands from stdin until quit/EOF"
        ),
    )
    serve.add_argument(
        "schemas", nargs="*", help="JSON schema files to pre-register"
    )
    serve.add_argument(
        "--workload",
        metavar="STREAM",
        help=(
            "pre-register the initial schemas of a named request stream "
            "(see repro.generators.workloads.REQUEST_STREAMS)"
        ),
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help="enable spans and latency sampling (see :stats / :trace)",
    )
    serve.add_argument(
        "--http",
        type=_positive_int,
        metavar="PORT",
        help=(
            "serve the registry over HTTP on PORT instead of the stdin "
            "REPL (POST /v1/schemas, GET /v1/query/CLASS, ...)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --http (default 127.0.0.1)",
    )
    serve.add_argument(
        "--data-dir",
        metavar="PATH",
        help=(
            "persist the registry under PATH (append-only log + "
            "snapshots) and recover from it on start; omit for a "
            "memory-only registry"
        ),
    )
    serve.add_argument(
        "--snapshot-every",
        type=_positive_int,
        metavar="N",
        help=(
            "cut a snapshot after every N log appends (needs "
            "--data-dir; default: only on :save)"
        ),
    )

    stats = commands.add_parser(
        "stats",
        help=(
            "replay a workload (or register schema files) with telemetry "
            "on and dump the metrics registry"
        ),
    )
    stats.add_argument(
        "schemas", nargs="*", help="JSON schema files to register"
    )
    stats.add_argument(
        "--workload",
        metavar="STREAM",
        help="register and replay a named request stream first",
    )
    stats.add_argument(
        "--format",
        dest="fmt",
        choices=["prom", "json"],
        default="prom",
        help="Prometheus text (default) or a JSON snapshot",
    )

    trace = commands.add_parser(
        "trace",
        help=(
            "run registrations with telemetry on and print the resulting "
            "span tree"
        ),
    )
    trace.add_argument(
        "schemas", nargs="*", help="JSON schema files to register"
    )
    trace.add_argument(
        "--workload",
        metavar="STREAM",
        help="register and replay a named request stream instead",
    )
    trace.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also write every span (and a metrics snapshot) here as JSONL",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "convert":
        artifact = _load_artifact(args.schema)
        if args.to == "json":
            text = json_io.dumps(artifact)
        elif isinstance(artifact, AnnotatedSchema):
            text = text_format.format_annotated(artifact).rstrip("\n")
        elif isinstance(artifact, KeyedSchema):
            text = text_format.format_keyed(artifact).rstrip("\n")
        elif isinstance(artifact, Schema):
            text = text_format.format_schema(artifact).rstrip("\n")
        else:
            raise SchemaError(
                f"{args.schema}: cannot write "
                f"{type(artifact).__name__} in the text dialect"
            )
        _write_or_print(text, args.output)
        return 0

    if args.command == "show":
        from repro.instances.instance import Instance
        from repro.models.oo import OODiagram, format_diagram
        from repro.render.ascii_art import render_instance

        artifact = _load_artifact(args.schema)
        if isinstance(artifact, AnnotatedSchema):
            print(render_annotated(artifact, args.schema))
        elif isinstance(artifact, KeyedSchema):
            print(render_keyed(artifact, args.schema))
        elif isinstance(artifact, Schema):
            print(render_schema(artifact, args.schema))
        elif isinstance(artifact, OODiagram):
            print(format_diagram(artifact, args.schema))
        elif isinstance(artifact, Instance):
            print(render_instance(artifact, args.schema))
        else:
            print(json_io.dumps(artifact))
        return 0

    if args.command == "check":
        targets = [Path(path) for path in args.schemas]
        static = args.strict or any(
            target.is_dir() or target.suffix == ".py" for target in targets
        )
        if static:
            from repro.check import run_checks
            from repro.check.runner import render_report as render_diagnostics

            diagnostics = run_checks(args.schemas)
            print(render_diagnostics(diagnostics))
            if any(d.severity == "error" for d in diagnostics):
                return 1
            if args.strict and diagnostics:
                return 1
            return 0
        schemas = [_load_schema(path) for path in args.schemas]
        for line in conflict_report(schemas):
            print(line)
        return 0

    if args.command == "merge":
        schemas = [_load_schema(path) for path in args.schemas]
        assertions = _parse_assertions(args.isa)
        report = merge_report(*schemas, assertions=assertions)
        if args.explain:
            print(render_report(report))
        else:
            print(render_schema(report.merged, "merged schema"))
        if args.output:
            Path(args.output).write_text(json_io.dumps(report.merged) + "\n")
        return 0

    if args.command == "lower":
        annotated = [_load_annotated(path) for path in args.schemas]
        merged = lower_properize(
            lower_merge(
                *annotated, import_specializations=args.import_spec
            )
        )
        print(render_annotated(merged, "lower merge"))
        if args.output:
            Path(args.output).write_text(json_io.dumps(merged) + "\n")
        return 0

    if args.command == "diff":
        left = _load_schema(args.left)
        right = _load_schema(args.right)
        for line in diff(left, right).summary_lines():
            print(line)
        return 0

    if args.command == "correspond":
        from repro.instances.correspondence import (
            analyze_correspondence,
            correspondence_report,
        )

        keyed_inputs = []
        for path in args.schemas:
            artifact = _load_artifact(path)
            if isinstance(artifact, KeyedSchema):
                keyed_inputs.append(artifact)
            elif isinstance(artifact, Schema):
                keyed_inputs.append(KeyedSchema(artifact))
            else:
                raise SchemaError(
                    f"{path}: expected a (keyed) schema document, got "
                    f"{type(artifact).__name__}"
                )
        rows = analyze_correspondence(
            keyed_inputs, assertions=_parse_assertions(args.isa)
        )
        if rows:
            print(correspondence_report(rows))
        else:
            print("no class is shared by two or more inputs")
        return 0

    if args.command == "oo-merge":
        from repro.models.oo import OODiagram, format_diagram, merge_oo

        diagrams = []
        for path in args.diagrams:
            artifact = _load_artifact(path)
            if not isinstance(artifact, OODiagram):
                raise SchemaError(
                    f"{path}: expected a class-diagram document "
                    f"(repro.oo/1), got {type(artifact).__name__}"
                )
            diagrams.append(artifact)
        merged = merge_oo(*diagrams)
        print(format_diagram(merged, "merged class diagram"))
        if args.output:
            Path(args.output).write_text(json_io.dumps(merged) + "\n")
        return 0

    if args.command == "fuse":
        from repro.instances.correspondence import fuse
        from repro.instances.instance import Instance

        sources = []
        for entry in args.source:
            if ":" not in entry:
                raise SchemaError(
                    "--source takes SCHEMA.json:INSTANCE.json, got "
                    f"{entry!r}"
                )
            schema_path, instance_path = entry.split(":", 1)
            schema_artifact = _load_artifact(schema_path)
            if isinstance(schema_artifact, Schema):
                schema_artifact = KeyedSchema(schema_artifact)
            if not isinstance(schema_artifact, KeyedSchema):
                raise SchemaError(
                    f"{schema_path}: expected a (keyed) schema document, "
                    f"got {type(schema_artifact).__name__}"
                )
            instance_artifact = _load_artifact(instance_path)
            if not isinstance(instance_artifact, Instance):
                raise SchemaError(
                    f"{instance_path}: expected an instance document, got "
                    f"{type(instance_artifact).__name__}"
                )
            sources.append((schema_artifact, instance_artifact))
        result = fuse(
            sources,
            value_classes=args.value_class or [],
            assertions=_parse_assertions(args.isa),
        )
        print(result.summary())
        if args.output:
            Path(args.output).write_text(
                json_io.dumps(result.instance) + "\n"
            )
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "stats":
        return _stats(args)

    if args.command == "trace":
        return _trace(args)

    if args.command == "dot":
        from repro.models.oo import OODiagram, to_schema as oo_to_schema

        artifact = _load_artifact(args.schema)
        if isinstance(artifact, AnnotatedSchema):
            text = annotated_to_dot(artifact)
        elif isinstance(artifact, Schema):
            text = schema_to_dot(artifact)
        elif isinstance(artifact, OODiagram):
            # Class diagrams render through their general-model image.
            text = schema_to_dot(oo_to_schema(artifact).schema)
        else:
            raise SchemaError(
                f"{args.schema}: cannot render "
                f"{type(artifact).__name__} as DOT"
            )
        _write_or_print(text, args.output)
        return 0

    raise SchemaError(f"unknown command {args.command!r}")


_SERVE_HELP = """\
commands:
  register FILE [FILE...]   fold schema files into the registry (atomic batch)
  retire NAME               withdraw every live version of a named schema
  view [CLASS|#SID]         merged view of one component (or of everything)
  query CLASS               what the merged view asserts about CLASS
  components                per-component summary
  stats                     service_stats() as JSON
  :save                     cut a snapshot now (needs --data-dir)
  :stats                    the metrics registry, Prometheus text format
  :trace                    recent spans as a tree (needs --telemetry)
  help                      this text
  quit                      exit (EOF works too)"""


def _serve(args: argparse.Namespace) -> int:
    """The ``serve`` REPL: a MergeService driven by stdin commands."""
    import json as _json

    from repro import obs
    from repro.service import MergeService

    if args.telemetry:
        obs.enable()
    if args.snapshot_every and not args.data_dir:
        print("error: --snapshot-every needs --data-dir", file=sys.stderr)
        return 2
    if args.data_dir:
        service = MergeService.open(
            args.data_dir, snapshot_every=args.snapshot_every
        )
        if service.service_stats()["generation"]:
            print(
                f"recovered registry from {args.data_dir} at "
                f"generation {service.service_stats()['generation']}"
            )
    else:
        service = MergeService()
    initial = [_load_schema(path) for path in args.schemas]
    if args.workload:
        from repro.generators.workloads import get_request_stream

        initial += get_request_stream(args.workload).make()[0]
    if initial:
        receipt = service.register(initial)
        print(
            f"registered {receipt.accepted} schemas in "
            f"{receipt.components} components"
        )
    if args.http:
        from repro.service.http import serve_http

        serve_http(
            service,
            host=args.host,
            port=args.http,
            announce=lambda host, port: print(
                f"serving HTTP on {host}:{port} (Ctrl-C to stop)",
                flush=True,
            ),
        )
        return 0
    prompt = "serve> " if sys.stdin.isatty() else ""
    while True:
        try:
            line = input(prompt)
        except EOFError:
            return 0
        words = line.split()
        if not words:
            continue
        command, rest = words[0].lower(), words[1:]
        try:
            if command in ("quit", "exit"):
                service.close()
                return 0
            elif command == "help":
                print(_SERVE_HELP)
            elif command == "register":
                if not rest:
                    print("register takes at least one schema file")
                    continue
                receipt = service.register(
                    [_load_schema(path) for path in rest]
                )
                print(
                    f"generation {receipt.generation}: "
                    f"{receipt.components} components"
                )
            elif command == "retire":
                if len(rest) != 1:
                    print("retire takes exactly one schema name")
                    continue
                retired = service.retire(rest[0])
                print(
                    f"retired {rest[0]} versions "
                    f"{list(retired.versions)}; "
                    f"{retired.components} components at "
                    f"generation {retired.generation}"
                )
            elif command == ":save":
                if not args.data_dir:
                    print("no --data-dir; nothing to save to")
                    continue
                seq = service.save()
                print(f"snapshot cut at log record {seq}")
            elif command == "view":
                target = rest[0] if rest else None
                if target is not None and target.startswith("#"):
                    target = int(target[1:])
                merged = service.merged_view(target)
                title = (
                    "merged view (all components)"
                    if target is None
                    else f"merged view of {rest[0]}"
                )
                print(render_schema(merged, title))
            elif command == "query":
                if len(rest) != 1:
                    print("query takes exactly one class name")
                    continue
                print(
                    _json.dumps(service.query(rest[0]).to_dict(), indent=2)
                )
            elif command == "components":
                for sid, info in service.components().items():
                    print(
                        f"  #{sid}: {info['schemas']} schemas, "
                        f"{info['classes']} classes, "
                        f"generation {info['generation']}"
                    )
            elif command == "stats":
                print(_json.dumps(service.service_stats(), indent=2))
            elif command == ":stats":
                print(obs.prometheus_text())
            elif command == ":trace":
                spans = obs.tracer().spans()
                if spans:
                    print(obs.render_spans(spans))
                elif not obs.is_enabled():
                    print("telemetry is off (restart with --telemetry)")
                else:
                    print("no spans recorded yet")
            else:
                print(f"unknown command {command!r} (try: help)")
        except (SchemaError, KeyError, ValueError, OSError) as exc:
            # The service survives bad requests; report and keep serving.
            message = (
                exc.args[0]
                if isinstance(exc, KeyError) and exc.args
                else exc
            )
            print(f"error: {message}")


def _telemetry_session(args: argparse.Namespace) -> Tuple[Any, int]:
    """Register the inputs (and replay any workload) with telemetry on.

    Shared by ``stats`` and ``trace``: a fresh fully-sampled service,
    every request timed, every registration traced.  The caller is
    responsible for restoring the previous telemetry state.
    """
    from repro.generators.workloads import get_request_stream, replay
    from repro.service import MergeService

    initial = [_load_schema(path) for path in args.schemas]
    requests = []
    if args.workload:
        workload_initial, requests = get_request_stream(args.workload).make()
        initial = workload_initial + initial
    if not initial:
        raise SchemaError(
            "nothing to measure: give schema files and/or --workload STREAM"
        )
    service = MergeService(telemetry_sample_every=1)
    service.register(initial)
    if requests:
        replay(service, requests)
    return service, len(requests)


def _stats(args: argparse.Namespace) -> int:
    """The ``stats`` subcommand: replay, then dump the metrics registry."""
    import json as _json

    from repro import obs

    was_enabled = obs.is_enabled()
    obs.enable()
    try:
        # Bound to a local so the service's weakref-backed gauges stay
        # readable while the registry is dumped.
        service, _requests = _telemetry_session(args)
        if args.fmt == "json":
            print(
                _json.dumps(obs.registry().snapshot(), indent=2, sort_keys=True)
            )
        else:
            print(obs.prometheus_text())
        del service
    finally:
        if not was_enabled:
            obs.disable()
    return 0


def _trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: replay, then print the span tree."""
    from repro import obs

    was_enabled = obs.is_enabled()
    obs.enable()
    tracer = obs.tracer()
    tracer.clear()
    exporter = (
        obs.JsonlExporter(args.jsonl) if args.jsonl is not None else None
    )
    if exporter is not None:
        tracer.add_sink(exporter.export_span)
    try:
        _telemetry_session(args)
        spans = tracer.spans()
        if spans:
            print(obs.render_spans(spans))
        else:
            print("no spans recorded")
        if exporter is not None:
            exporter.export_metrics()
            print(f"wrote {args.jsonl}")
    finally:
        if exporter is not None:
            tracer.remove_sink(exporter.export_span)
            exporter.close()
        if not was_enabled:
            obs.disable()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
