"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a test's outcome does not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
