import os
import sys

from hypothesis import HealthCheck, settings

# allow running the suite from a fresh checkout without an editable install
_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
try:
    import freeinv  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.abspath(_SRC))

settings.register_profile(
    "exact",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# a longer search for the property tests, e.g.
#   HYPOTHESIS_PROFILE=thorough python -m pytest tests/test_substitute.py
# (tests that pin their own max_examples keep it)
settings.register_profile("thorough", settings.get_profile("exact"), max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "exact"))
