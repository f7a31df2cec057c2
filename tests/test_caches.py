"""Every lru_cache in the package is bounded, and the flagship run fits in it."""

import importlib
import pkgutil

import binomial_moments
from binomial_moments.verify import VerifyConfig, run_verification


def package_caches() -> dict:
    """Every lru_cache defined in a module of the package, by qualified name."""
    caches = {}
    for info in pkgutil.walk_packages(binomial_moments.__path__, "binomial_moments."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                caches[f"{info.name}.{name}"] = obj
    return caches


def test_every_cache_is_bounded():
    caches = package_caches()
    assert {
        "binomial_moments.exact._rising_half",
        "binomial_moments.sigma._sigma_row",
        "binomial_moments.sigma._sigma_series",
        "binomial_moments.moments.oracle",
        "binomial_moments.conjecture._bareiss",
    } <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name


def test_flagship_verify_evicts_nothing():
    caches = package_caches()
    for cache in caches.values():
        cache.cache_clear()
    assert run_verification(VerifyConfig(m_max=8, n_max=30, seed=0)).all_pass
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.currsize < info.maxsize, (name, info)
