"""The snapshot tool's summary: each metric's median over seeds beside its
minimum and maximum, so two snapshots show whether their medians differ by
more than their runs spread."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workload: str, trace: int, metric: str, values: list[float]) -> list[dict]:
    """One fabricated perfbench run per seed, each reading one value."""
    return [
        {
            "workload": workload, "seed": seed, "trace": trace,
            "result": {"metrics": {metric: {"value": value, "unit": "ms"}}},
        }
        for seed, value in enumerate(values, 1)
    ]


def test_a_snapshot_records_each_metrics_spread_beside_its_median():
    summarize = _tool().summarize
    before = _runs("online-status", 0, "validate_ms_p50", [0.41, 0.52, 0.40])
    before += _runs("online-status", 1, "validate_ms_p50", [0.60, 0.58])
    after = _runs("online-status", 0, "validate_ms_p50", [0.45, 0.38, 0.50])

    medians, ranges = summarize(before)
    assert medians == {
        "online-status/trace0": {"validate_ms_p50": 0.41},
        "online-status/trace1": {"validate_ms_p50": 0.59},
    }
    assert ranges == {
        "online-status/trace0": {"validate_ms_p50": [0.40, 0.52]},
        "online-status/trace1": {"validate_ms_p50": [0.58, 0.60]},
    }
    # +10% in the medians, inside either side's spread: an unresolved pair
    after_medians, after_ranges = summarize(after)
    assert after_medians == {"online-status/trace0": {"validate_ms_p50": 0.45}}
    assert after_ranges == {"online-status/trace0": {"validate_ms_p50": [0.38, 0.50]}}
    gap = after_medians["online-status/trace0"]["validate_ms_p50"] - 0.41
    low, high = ranges["online-status/trace0"]["validate_ms_p50"]
    assert 0 < gap < high - low
