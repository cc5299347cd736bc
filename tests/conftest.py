import pytest

from nearfair.exactlp import _Tableau


@pytest.fixture
def phase_one_runs(monkeypatch):
    """(columns, rows) of each tableau that runs phase 1 during the test."""
    runs = []
    real = _Tableau.phase1

    def counted(self):
        runs.append((self.ncols, self.m))
        return real(self)

    monkeypatch.setattr(_Tableau, "phase1", counted)
    return runs
