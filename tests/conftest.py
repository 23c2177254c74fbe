import random

import pytest


@pytest.fixture
def rng():
    return random.Random(20240)


@pytest.fixture(autouse=True)
def _reports_to_tmp(tmp_path, monkeypatch):
    """``hankelkit`` writes reports under ``HANKEL_OUT_DIR`` (default
    ``reports/``) unless ``--out`` is given; keep test runs out of the
    checkout."""
    monkeypatch.setenv("HANKEL_OUT_DIR", str(tmp_path / "results"))
