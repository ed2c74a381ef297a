import sys
import warnings
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))
pytest_plugins = ["pytester"]

# hypothesis imports this module to suggest a patch when a @given test fails;
# importing it raises a DeprecationWarning from libcst's dependencies, which
# filterwarnings = ["error"] would turn into an INTERNALERROR that ends the
# session.  Imported once here, the plugin's later import hits the module cache.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
