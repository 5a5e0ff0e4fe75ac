"""Software-controlled non-binding prefetching."""

from repro.prefetch.engine import CachedPage, PrefetchEngine, PrefetchStats

__all__ = ["CachedPage", "PrefetchEngine", "PrefetchStats"]
