import hypothesis

from hypothesis_counts import PROFILE

hypothesis.settings.register_profile(
    "trendlab", deadline=None, max_examples=50, derandomize=True
)
# HYPOTHESIS_PROFILE=deep: 1000 examples a property; a property that sets its
# own count runs hypothesis_counts.examples(n), ten times its tier-1 count
hypothesis.settings.register_profile(
    "deep", hypothesis.settings.get_profile("trendlab"), max_examples=1000
)
hypothesis.settings.load_profile(PROFILE)
