import pytest

from echlens import paths


@pytest.fixture
def small_path_budget(monkeypatch):
    """A path budget of 100 over an empty enumeration cache: the n = 2
    enumeration fits at kmax 8 (91 paths) and is refused at kmax 9 (135)."""
    monkeypatch.setattr(paths, "PATH_BUDGET", 100)
    monkeypatch.setattr(paths, "_ENUM_CACHE", {})
