"""The chaos control plane's scenarios, run for real.

Every registered scenario is executed against a live
:class:`~repro.serve.index.ServingIndex` with a shrunken
:class:`~repro.testing.scenarios.ChaosConfig` (fewer records, fewer
rounds) so the whole matrix stays CI-sized, and its three invariants are
asserted:

- **never wrong** — every completed answer is bit-identical to the
  epoch-keyed oracle;
- **never wedged** — no query outlives its deadline plus the grace
  window;
- **bounded recovery** — full-fidelity service returns within the
  configured limit after the last fault.

These are integration tests of the whole serving ladder (fabric →
compiled → snapshot scan), not of the orchestrator alone: a regression
in the executor's heal/reap logic, the ladder's breaker handling, or
the WAL replay path shows up here as a violated invariant.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import DegradedResultWarning
from repro.testing import SCENARIOS, ChaosConfig, run_scenario

#: Small enough for CI, large enough that the fault schedules actually
#: land mid-traffic (the scenarios inject between rounds).
CONFIG = ChaosConfig(records=250, rounds=3, batch=3, reply_timeout=0.3)


@pytest.fixture(autouse=True)
def _quiet_degraded():
    # Degraded-tier answers are the expected behaviour under fault, not
    # a test smell worth a warnings summary.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        yield


def test_registry_is_complete():
    assert set(SCENARIOS) == {
        "hung_worker",
        "sigkill_storm",
        "slow_jitter",
        "shm_tamper",
        "wal_fsync_failure",
        "mid_publish_kill",
        "store_tamper_section",
        "store_kill_mid_publish",
    }
    for fn in SCENARIOS.values():
        assert fn.__doc__, "every scenario documents its fault schedule"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_invariants_hold(name):
    report = run_scenario(name, seed=0, config=CONFIG)
    invariants = report.invariants()
    assert report.passed, (
        f"{name} violated {[k for k, v in invariants.items() if not v]}; "
        f"events:\n" + "\n".join(report.events)
    )
    assert invariants == {
        "never_wrong": True,
        "never_wedged_past_deadline": True,
        "bounded_recovery": True,
    }
    assert report.queries >= CONFIG.rounds * CONFIG.batch
    assert report.wrong == 0
    assert report.overruns == 0


def test_report_round_trips_to_json():
    report = run_scenario("hung_worker", seed=1, config=CONFIG)
    payload = report.to_dict()
    assert payload["name"] == "hung_worker"
    assert payload["seed"] == 1
    assert payload["invariants"]["never_wrong"] is True
    assert payload["availability"] == pytest.approx(
        report.availability, abs=1e-4
    )
    assert payload["passed"] is True
