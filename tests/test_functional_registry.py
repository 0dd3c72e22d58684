"""Tests for the functional-kernel registry."""

import numpy as np
import pytest

from repro.kernels.functional import REGISTRY, FunctionalRegistry


def test_register_and_get():
    registry = FunctionalRegistry()
    fn = lambda a: a + 1
    registry.register("inc", fn)
    assert registry.get("inc") is fn
    assert "inc" in registry
    assert len(registry) == 1
    assert registry.signatures() == ["inc"]


def test_duplicate_registration_rejected():
    registry = FunctionalRegistry()
    registry.register("k", lambda a: a)
    with pytest.raises(ValueError):
        registry.register("k", lambda a: a)


def test_empty_signature_rejected():
    registry = FunctionalRegistry()
    with pytest.raises(ValueError):
        registry.register("", lambda a: a)


def test_require_raises_with_known_list():
    registry = FunctionalRegistry()
    registry.register("present", lambda a: a)
    with pytest.raises(KeyError, match="present"):
        registry.require("absent")
    assert registry.require("present") is not None


def test_get_missing_returns_none():
    assert FunctionalRegistry().get("ghost") is None


def test_global_registry_has_core_kernels():
    for signature in ("vectorAdd", "matrixMul", "saxpy"):
        assert signature in REGISTRY


def test_core_kernels_compute():
    a = np.arange(4, dtype=np.float64)
    b = np.ones(4)
    np.testing.assert_array_equal(REGISTRY.require("vectorAdd")(a, b), a + 1)
    m = np.eye(3)
    np.testing.assert_array_equal(REGISTRY.require("matrixMul")(m, m), m)
    np.testing.assert_array_equal(
        REGISTRY.require("saxpy")(a, b, alpha=3.0), 3 * a + 1
    )
