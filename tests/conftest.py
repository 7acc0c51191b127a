import pytest
from hypothesis import HealthCheck, settings

from splitmerge import complexes, steinfarley

settings.register_profile(
    "repeatable",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("repeatable")

# the link-type caches: the coface route's, and the link models' per input
# and per ascending items
LINK_TYPE_CACHES = (steinfarley._link_complex, complexes._model_for,
                    complexes._model_complex)


@pytest.fixture(autouse=True)
def cold_link_caches():
    """Every test starts with every link-type cache empty, so no result
    depends on which link types an earlier test built."""
    for cache in LINK_TYPE_CACHES:
        cache.cache_clear()
