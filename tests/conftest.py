"""Registers the ``deep`` Hypothesis profile; tier-1 never loads it.

``pytest tests/dsm/test_drf.py --hypothesis-profile=deep`` runs the
generated-program batches with fresh random examples instead of tier-1's
fixed derandomized ones.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=100, deadline=None, database=None)
