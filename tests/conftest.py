import os
import sys

from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))
# the benchmark's seeded input builders, which tests/helpers.py reuses
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "perfbench"))

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")
