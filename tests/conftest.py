"""Hypothesis profiles: the default budgets for every run, and ``deep``
(selected by HYPOTHESIS_PROFILE=deep) for searches that the default
budgets sample too thinly, such as the function-norm bound properties
of test_scalar.py."""

import os

from hypothesis import settings

settings.register_profile("deep", max_examples=10000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
