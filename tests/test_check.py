"""Tests for the ``repro.check`` static-analysis suite and the lock witness.

The corpus under ``tests/fixtures/check_corpus/`` encodes the contract: each
``bad_*.py`` file carries ``# BAD[rule-id]`` markers on the exact lines the
analyzers must flag, and each ``good_*.py`` file must come back clean.  The
meta-test at the bottom holds the real source tree to the same standard.
"""

from pathlib import Path
from typing import List, Tuple

import pytest

from repro.check import run_checks, run_checks_on_sources
from repro.check.runner import render_report
from repro.check.witness import (
    LockOrderViolation,
    WitnessedLock,
    disable_witness,
    enable_witness,
    reset_witness_stats,
    witness_active,
    witness_stats,
)
from repro.tools.cli import main as cli_main

CORPUS = Path(__file__).parent / "fixtures" / "check_corpus"
SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def expected_markers(path: Path) -> List[Tuple[int, str]]:
    """Extract the (line, rule) pairs declared by ``# BAD[rule]`` markers."""
    out: List[Tuple[int, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if "BAD[" in line:
            rule = line.split("BAD[", 1)[1].split("]", 1)[0]
            out.append((lineno, rule))
    return sorted(out)


def findings(target: Path) -> List[Tuple[int, str]]:
    return sorted((d.line, d.rule) for d in run_checks([str(target)]))


class TestCorpus:
    @pytest.mark.parametrize(
        "name",
        [
            "bad_lock_guard.py",
            "bad_lock_nesting.py",
            "bad_frozen.py",
            "bad_async_blocking.py",
            "bad_async_protocol.py",
        ],
    )
    def test_bad_file_matches_markers(self, name):
        path = CORPUS / name
        expected = expected_markers(path)
        assert expected, f"{name} has no BAD markers — corpus file is broken"
        assert findings(path) == expected

    @pytest.mark.parametrize("name", ["good_lock_guard.py", "good_async.py"])
    def test_good_file_is_clean(self, name):
        diags = run_checks([str(CORPUS / name)])
        assert diags == [], render_report(diags)

    def test_badapi_package(self):
        # The facade/__all__ checks can legitimately flag one line twice
        # (an import that is both an accidental export and a private
        # re-export), so the expectations are spelled out here rather
        # than via 1:1 markers.
        diags = run_checks([str(CORPUS / "badapi")])
        got = sorted((Path(d.path).name, d.line, d.rule) for d in diags)
        assert got == [
            ("__init__.py", 3, "api-surface"),
            ("__init__.py", 3, "api-surface"),
            ("__init__.py", 5, "api-surface"),
            ("exceptions.py", 12, "http-status-map"),
        ]

    def test_corpus_exercises_every_analyzer(self):
        rules = {d.rule for d in run_checks([str(CORPUS)])}
        assert {
            "lock-guard",
            "lock-nesting",
            "frozen-field",
            "async-blocking",
            "api-surface",
            "http-status-map",
        } <= rules


class TestSuppressionsAndErrors:
    def test_inline_suppression_silences_rule(self):
        src = (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "x = {}  # guarded-by: _lock\n"
            "def f():\n"
            "    x[1] = 2  # check: ignore[lock-guard]\n"
        )
        assert run_checks_on_sources({"mod.py": src}) == []

    def test_suppression_is_rule_specific(self):
        src = (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "x = {}  # guarded-by: _lock\n"
            "def f():\n"
            "    x[1] = 2  # check: ignore[frozen-field]\n"
        )
        diags = run_checks_on_sources({"mod.py": src})
        assert [(d.line, d.rule) for d in diags] == [(5, "lock-guard")]

    def test_unknown_rule_in_suppression_is_warned(self):
        src = "x = 1  # check: ignore[no-such-rule]\n"
        diags = run_checks_on_sources({"mod.py": src})
        assert [(d.rule, d.severity) for d in diags] == [
            ("bad-suppression", "warning")
        ]

    def test_syntax_error_becomes_parse_error_diagnostic(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        diags = run_checks([str(broken)])
        assert [d.rule for d in diags] == ["parse-error"]


class TestCliExitCodes:
    def test_clean_target_exits_zero(self, capsys):
        rc = cli_main(["check", str(CORPUS / "good_lock_guard.py")])
        assert rc == 0
        assert "all clean" in capsys.readouterr().out

    def test_bad_target_exits_nonzero(self, capsys):
        rc = cli_main(["check", str(CORPUS / "bad_lock_guard.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[lock-guard]" in out

    def test_strict_clean_tree_exits_zero(self, capsys):
        rc = cli_main(["check", "--strict", str(CORPUS / "good_async.py")])
        assert rc == 0
        capsys.readouterr()

    def test_strict_fails_on_warnings(self, tmp_path, capsys):
        warn_only = tmp_path / "warn.py"
        warn_only.write_text("x = 1  # check: ignore[no-such-rule]\n")
        assert cli_main(["check", str(warn_only)]) == 0
        assert cli_main(["check", "--strict", str(warn_only)]) == 1
        capsys.readouterr()


class TestMetaCleanliness:
    def test_real_source_tree_is_clean(self):
        diags = run_checks([str(SRC_REPRO)])
        assert diags == [], render_report(diags)


@pytest.fixture()
def witness():
    enable_witness()
    reset_witness_stats()
    try:
        yield
    finally:
        disable_witness()


class TestWitnessedLock:
    def test_acquire_while_planner_held_is_caught(self, witness):
        planner = WitnessedLock(planner=True)
        other = WitnessedLock()
        planner.acquire()
        try:
            with pytest.raises(LockOrderViolation):
                other.acquire()
        finally:
            planner.release()
        assert witness_stats()["acquires"] == 2

    def test_reentrant_acquire_is_caught(self, witness):
        lock = WitnessedLock()
        lock.acquire()
        try:
            with pytest.raises(LockOrderViolation):
                lock.acquire()
        finally:
            lock.release()

    def test_factories_gate_on_witness_flag(self):
        # A WitnessedLock always enforces the discipline; the global flag
        # only controls whether the service *creates* witnessed locks.
        import threading

        from repro.service.service import _new_writer_lock

        assert not witness_active()
        assert isinstance(_new_writer_lock(), type(threading.Lock()))
        enable_witness()
        try:
            lock = _new_writer_lock()
            assert isinstance(lock, WitnessedLock)
            assert lock.planner
        finally:
            disable_witness()
