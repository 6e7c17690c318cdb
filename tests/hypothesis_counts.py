"""Example counts of the properties that set their own.

An explicit ``@settings(max_examples=n)`` overrides the profile's count, so
under HYPOTHESIS_PROFILE=deep such a property would run its tier-1 count.
``examples(n)`` scales it by DEEP_FACTOR there instead.
"""
import os

PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "trendlab")
DEEP_FACTOR = 10


def examples(n: int) -> int:
    return n * DEEP_FACTOR if PROFILE == "deep" else n
