"""``python -m repro.check [--strict] PATH...``: run the invariant analyzers.

The same as ``schema-merge check [--strict] PATH...`` on Python sources
(see ``docs/STATIC_ANALYSIS.md``).
"""

import sys

from repro.tools.cli import main

sys.exit(main(["check", *sys.argv[1:]]))
