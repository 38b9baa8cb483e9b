"""Faults planted in kernel functions must be caught by the suites.

Each row plants one fault at the module attribute where its consumer
looks the function up, with the memos cleared so no value computed
before the plant can hide it, and requires a small suite run to report
failures.
"""

import pytest

from symvertex import vertexops
from symvertex.verifier import verify_clifford


def _sign_forced_positive(orig):
    def planted(n, mu):
        t = orig(n, mu)
        return None if t is None else (1, t[1])
    return planted


def _negative_terms_dropped(orig):
    def planted(n, mu):
        t = orig(n, mu)
        return None if t is None or t[0] < 0 else t
    return planted


def _extraction_off_by_one(orig):
    def planted(pi, dual, j, lam):
        return orig(pi, dual, j + 1, lam)
    return planted


def clifford_small():
    return verify_clifford(degree_bound=3, mode_range=(-2, 2))


# (row id, module, attribute, wrapper building the plant from the original,
#  suite run that must report failures)
FAULTS = [
    ("straighten-sign-positive", vertexops, "_straighten",
     _sign_forced_positive, clifford_small),
    ("straighten-drops-negative", vertexops, "_straighten",
     _negative_terms_dropped, clifford_small),
    ("mode-extraction-off-by-one", vertexops, "_vertex_coefficient",
     _extraction_off_by_one, clifford_small),
]


def _clear_memos():
    vertexops._mode_memo.clear()
    vertexops._stage_memo.clear()


@pytest.fixture
def cold_memos():
    _clear_memos()
    yield
    _clear_memos()


@pytest.mark.parametrize("module, attr, plant, run",
                         [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_planted_fault_is_caught(cold_memos, monkeypatch, module, attr,
                                 plant, run):
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    rep = run()
    assert rep.failures


def test_unplanted_runs_pass(cold_memos):
    for run in {row[4] for row in FAULTS}:
        assert not run().failures
