"""Charging-source day tables share the weather layer's day-cache grid."""

from repro.energy.sources import PowerSource
from repro.environment import weather


def test_table_step_matches_weather_day_cache():
    # The solar and wind day tables are built straight from the weather's
    # ``day_samples``; a grid mismatch would misplace every node.
    assert PowerSource.TABLE_STEP_S == weather.DAY_CACHE_STEP_S
