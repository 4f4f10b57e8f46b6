"""One hypothesis profile for the whole suite.

Derandomized, so every run replays the same examples, and without a
per-example deadline: the wall time of one example varies by up to half
on a machine whose CPU speed drifts, so a fixed deadline fails at random.
"""

from hypothesis import settings

settings.register_profile("cayley8", derandomize=True, deadline=None)
settings.load_profile("cayley8")
