"""Shared pytest set-up: one deterministic Hypothesis profile for the suite.

Property tests draw the same examples on every run (``derandomize``), keep
no example database between runs and have no per-example deadline, so a
Tier-1 run is reproducible and its timing does not decide its outcome."""

from hypothesis import settings

settings.register_profile("fracmix", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("fracmix")
