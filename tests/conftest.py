"""Shared test settings: every hypothesis test runs derandomized (the same
examples on every run) and without a per-example deadline; a test sets only
its own max_examples."""

from hypothesis import settings

settings.register_profile("panoptic4d", derandomize=True, deadline=None)
settings.load_profile("panoptic4d")
