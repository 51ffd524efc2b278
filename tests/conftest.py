"""Hypothesis profiles.

The default profile is small and derandomized, so the tier-1 suite draws the
same examples on every run.  `HYPOTHESIS_PROFILE=deep pytest tests/test_contract_fuzz.py`
gives the property tests a larger, randomized budget.  A test that fixes its
own `max_examples` keeps it under either profile.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=60, stateful_step_count=30, derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=1_000, stateful_step_count=50, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
