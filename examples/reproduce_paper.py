#!/usr/bin/env python3
"""Reproduce the paper's evaluation in one command.

Prints a claim-by-claim PASS table covering every figure and the §7
growth question — the qualitative half of the reproduction, which
``tests/test_figures.py`` also asserts.  (The timed half is
``pytest benchmarks/ --benchmark-only``.)  Run with::

    python examples/reproduce_paper.py
"""

import sys

from repro.analysis.report import main

if __name__ == "__main__":
    sys.exit(main())
