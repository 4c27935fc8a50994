"""Basic-block profiling and sampling."""

from repro.profiling.profile import HOTSPOT_CYCLE_SHARE, BlockProfile

__all__ = ["BlockProfile", "HOTSPOT_CYCLE_SHARE"]
