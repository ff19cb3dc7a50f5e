"""Shared pytest set-up: one deterministic Hypothesis profile for the suite,
and the ``term_budget`` fixture.

Property tests draw the same examples on every run (``derandomize``), keep
no example database between runs and have no per-example deadline, so a
Tier-1 run is reproducible and its timing does not decide its outcome."""

import pytest
from hypothesis import settings

from fracmix import specfun
from fracref import clear_memos

settings.register_profile("fracmix", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("fracmix")


@pytest.fixture
def term_budget(monkeypatch):
    """Call it with a number of terms to lower the series term budget
    (``specfun._MAX_TERMS``) of the evaluator and of ``fracref.ml_ref``
    for the rest of the test.  The reference's value memo is emptied then
    and again at the end: a value's route can depend on the budget, and the
    memo does not key on it."""
    def lower(max_terms: int) -> None:
        monkeypatch.setattr(specfun, "_MAX_TERMS", max_terms)
        clear_memos()

    yield lower
    clear_memos()
