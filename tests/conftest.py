"""Shared fixtures for the tier-1 suite."""

import pytest


@pytest.fixture(scope="session")
def experiment_tables():
    """Every paper experiment's tables, regenerated once per session.

    The tests share and must not modify them; a test that moves a cell
    works on a copy.
    """
    from repro.analysis.experiments import run_experiments

    return run_experiments()
