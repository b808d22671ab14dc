"""The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest perfbench -q``.

They show that the answer checks fail a run that is fed a wrong answer,
a dropped acknowledged write or an improper merge result, that inputs
are a function of the seed, and that the printed result keeps its
contract.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run as bench  # noqa: E402
from repro.io.json_io import schema_from_dict  # noqa: E402
from repro.service import MergeService  # noqa: E402
from repro.service.storage import RegistrationEntry  # noqa: E402


def _schema(arrows=(), spec=()):
    return schema_from_dict({
        "format": gen.SCHEMA_FORMAT,
        "classes": [],
        "arrows": [list(a) for a in arrows],
        "spec": [list(p) for p in spec],
    })


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def test_same_seed_same_bytes_and_other_seed_other_bytes():
    def fingerprint(seed):
        plan = gen.read_mostly(seed, n_reads=500, n_writes=20)
        ops = gen.durable_ingest(seed, 200)
        jobs = gen.proper_merge(seed, 60)
        return (
            gen.digest(plan["seed_batches"] + plan["writes"] + [p.encode() for p in plan["reads"]]),
            gen.digest([m.encode() + p.encode() + b for m, p, b in ops]),
            gen.digest([gen.encode(job) for job in jobs]),
        )

    assert fingerprint(1) == fingerprint(1)
    assert all(a != b for a, b in zip(fingerprint(1), fingerprint(2)))


def test_durable_stream_is_valid_at_every_prefix():
    live, retired = set(), set()
    for method, path, body in gen.durable_ingest(3, 400):
        name = path.rsplit("/", 1)[1]
        if method == "POST":
            names = [e["name"] for e in json.loads(body)["schemas"]]
            assert len(names) == len(set(names))
            assert not retired & set(names)
            live.update(names)
        else:
            assert name in live
            if method == "DELETE":
                live.discard(name)
                retired.add(name)


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------


def test_query_check_rejects_a_wrong_answer():
    mirror = MergeService([_schema(arrows=[("Dog", "owner", "Person")])])
    right = checks.query_answer(mirror, "Dog")
    assert checks.same_answer(dict(right), right, checks.ComponentMap())
    wrong = dict(right, arrows_out=[["owner", "Cat"]])
    assert not checks.same_answer(wrong, right, checks.ComponentMap())
    assert not checks.same_answer(None, right, checks.ComponentMap())


def test_component_ids_must_rename_consistently():
    components = checks.ComponentMap()
    assert components.same(7, 0)
    assert components.same(7, 0)
    assert not components.same(8, 0)
    assert not components.same(7, 1)


def test_durability_check_catches_a_dropped_acknowledged_write(tmp_path):
    data = tmp_path / "data"
    mirror = MergeService()
    service = MergeService.open(str(data))
    for name, arrows in (("a", [("A", "x", "B")]), ("b", [("A", "y", "C")])):
        entry = [RegistrationEntry(_schema(arrows=arrows), name=name)]
        service.register(entry)
        mirror.register(entry)
    service.retire("a")
    mirror.retire("a")
    service.close()
    classes, names = ["A", "B", "C"], ["a", "b"]
    want = checks.state_digest(mirror, classes, names)

    reopened = MergeService.open(str(data))
    assert checks.digest_mismatches(checks.plain(checks.state_digest(reopened, classes, names)), want) == []
    reopened.close()

    # Lose the last acknowledged record (the retire of "a").
    log = data / "registry.log"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:-1]))
    lossy = MergeService.open(str(data))
    bad = checks.digest_mismatches(checks.plain(checks.state_digest(lossy, classes, names)), want)
    lossy.close()
    assert "names/a" in bad


def test_merge_check_rejects_improper_and_lossy_results():
    from repro.core.merge import upper_merge, weak_merge

    views = [schema_from_dict(v) for v in gen._diamond_chain(2)]
    assert checks.merge_failures(views, upper_merge(*views)) == []
    assert "result is not proper" in checks.merge_failures(views, weak_merge(*views))
    lossy = upper_merge(views[0])
    assert "weak merge is not is_sub of the result" in checks.merge_failures(views, lossy)


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------


def test_benchmark_json_names_what_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", ["read-mostly", "durable-ingest", "proper-merge"])
def test_short_run_prints_a_correct_result(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proper-merge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
