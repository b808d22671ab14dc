"""OBS — the telemetry overhead budget: enabled-mode cost on the hot path.

The instrumented service promises that turning telemetry on costs a
warm ``merged_view`` burst less than 5% (docs/OBSERVABILITY.md): the
counters it always pays are plain integer adds, and duration sampling
fires only 1-in-``telemetry_sample_every`` requests: a mask test that
runs identically in both modes, with the global switch read only on the
request it selects.  This suite times the same
warm burst with the global switch off and on and fails if the ratio
blows the budget.

CI runs this as a separate non-blocking check — sub-microsecond ratio
measurements on shared runners jitter, so a red here is a signal to
investigate, not an automatic revert.  The assertion bar (7.5%) sits
above the documented budget (5%) for the same reason; a failure
message carries the exact ratio.  Both bursts time through the runner
suites' :func:`_timing.time_call`.
"""

from __future__ import annotations

from _timing import time_call

from repro.generators.workloads import get_request_stream
from repro.obs import _state
from repro.obs.tracing import tracer
from repro.service import MergeService

WORKLOAD = "service-sharded-small"
BUDGET_FRACTION = 0.05
ASSERT_FRACTION = 0.075
LOOPS = 20000


def test_enabled_overhead_within_budget():
    initial, _requests = get_request_stream(WORKLOAD).make()
    service = MergeService(initial)
    service.merged_view()
    view = service.merged_view

    def burst() -> None:
        for _ in range(LOOPS):
            view()

    was_enabled = _state.enabled
    try:
        _state.set_enabled(False)
        disabled = time_call(burst, repeat=5)
        _state.set_enabled(True)
        enabled = time_call(burst, repeat=5)
    finally:
        _state.set_enabled(was_enabled)
        tracer().clear()

    overhead = enabled["best_s"] / disabled["best_s"] - 1.0
    assert overhead < ASSERT_FRACTION, (
        f"telemetry overhead {overhead * 100:.1f}% exceeds the "
        f"{ASSERT_FRACTION * 100:.1f}% assertion bar "
        f"(documented budget: {BUDGET_FRACTION * 100:.0f}%)"
    )
