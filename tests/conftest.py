"""Test-suite settings: hypothesis draws the same examples on every run
(derandomized) and never fails a test for being slow."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
