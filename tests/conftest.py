import os

import hypothesis

hypothesis.settings.register_profile(
    "trendlab", deadline=None, max_examples=50, derandomize=True
)
# HYPOTHESIS_PROFILE=deep: 1000 examples a property, except where a test sets its own count
hypothesis.settings.register_profile(
    "deep", hypothesis.settings.get_profile("trendlab"), max_examples=1000
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "trendlab"))
