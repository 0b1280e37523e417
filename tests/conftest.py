import pytest

from echlens import paths


@pytest.fixture
def small_path_budget(monkeypatch):
    """A path budget of 100: the n = 2 walk fits at kmax 8 (91 paths) and is
    refused at kmax 9 (135)."""
    monkeypatch.setattr(paths, "PATH_BUDGET", 100)
