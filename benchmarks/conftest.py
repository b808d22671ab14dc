"""Shared setup for the benchmark harness.

Every paper-figure benchmark both *times* its kernel (pytest-benchmark
fixture) and *asserts* the paper's qualitative claim, so `pytest
benchmarks/ --benchmark-only` doubles as the reproduction run that
`README.md` describes.  The benchmarks directory goes on ``sys.path`` so
bench files can import the runner's :mod:`_timing` helper.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
