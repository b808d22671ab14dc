"""Recovery probe: ``python3 perfbench/recover.py DATA_DIR EXPECT OUT [--trace]``.

Times ``MergeService.open(DATA_DIR)`` in a fresh process (so no intern
table or cache is warm from an earlier open), scaled by the host speed
sampled just before and after (see speed.py), then writes the opened
registry's state digest for the classes and names listed in EXPECT,
plus the storage replay count, to OUT.
"""

from __future__ import annotations

import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)


def main(argv: list) -> int:
    data_dir, expect_path, out_path, *flags = argv
    import spans as spanlib
    from checks import state_digest

    recorder = spanlib.Recorder()
    if "--trace" in flags:
        recorder.install(spanlib.SERVER_TARGETS)
    from repro.obs.metrics import REGISTRY
    from repro.service import MergeService

    from speed import REFERENCE_NS, reference_ns

    before = reference_ns()
    start = time.perf_counter_ns()
    service = MergeService.open(data_dir)
    open_ns = time.perf_counter_ns() - start
    reference = (before + reference_ns()) / 2
    with open(expect_path, encoding="utf-8") as fh:
        expect = json.load(fh)
    counters = {"storage.replays": REGISTRY.value("storage.replays") or 0}
    layers = {}
    if recorder.spans:
        layers = {
            "service.open_us": spanlib.mean_us(recorder.spans, "service.open"),
            "storage.load_state_us": spanlib.mean_us(
                recorder.spans, "storage.load_state"
            ),
        }
    digest = state_digest(service, expect["classes"], expect["names"])
    service.close()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "scaled_open_s": open_ns / 1e9 * REFERENCE_NS / reference,
                "digest": digest,
                "counters": counters,
                "layers": layers,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
