"""Fits and pool workers run numpy's OpenBLAS on one thread, and the caller
keeps its own count."""

import multiprocessing
import threading

import numpy as np
import pytest

from tmclust import _blas, em, selection, simulate
from tmclust.em import FitOptions, fit
from tmclust.errors import EmptyComponentError
from tmclust.parsimony import ScaleModel
from tmclust.selection import ScanGrid, scan

CONTROL = _blas._control()  # (get, set) of numpy's OpenBLAS thread count, or None
pytestmark = pytest.mark.skipif(
    CONTROL is None, reason="no thread control of numpy's OpenBLAS was found"
)

OPTIONS = FitOptions(max_iterations=3)


@pytest.fixture
def caller_count():
    """The caller runs OpenBLAS on 2 threads, so a count of 1 is the scope's."""
    get, set_ = CONTROL
    before = get()
    set_(2)
    if get() != 2:
        set_(before)
        pytest.skip("OpenBLAS does not run 2 threads here")
    yield 2
    set_(before)


@pytest.fixture
def seen(monkeypatch):
    """The thread counts that ``em.e_step`` sees, one per call."""
    counts = []
    inner = em.e_step

    def e_step(data, model):
        counts.append(CONTROL[0]())
        return inner(data, model)

    monkeypatch.setattr(em, "e_step", e_step)
    return counts


def test_fit_runs_on_one_thread_and_restores_the_count(rng, caller_count, seen):
    fit(rng.normal(size=(20, 3, 2)), 2, options=OPTIONS)
    assert seen and set(seen) == {1}
    assert CONTROL[0]() == caller_count


def test_failed_fit_restores_the_count(rng, caller_count, seen):
    z0 = np.column_stack([np.full(10, 1.0 - 1e-8), np.full(10, 1e-8)])
    with pytest.raises(EmptyComponentError):
        fit(rng.normal(size=(10, 2, 2)), 2, init_z=z0)
    assert CONTROL[0]() == caller_count


def test_concurrent_fits_restore_the_count_once(rng, caller_count, seen, monkeypatch):
    # both fits wait inside their scopes until the other has entered its own
    barrier = threading.Barrier(2, timeout=30)
    waited = set()
    inner = em.e_step

    def e_step(data, model):
        if threading.get_ident() not in waited:
            waited.add(threading.get_ident())
            barrier.wait()
        return inner(data, model)

    monkeypatch.setattr(em, "e_step", e_step)
    batches = [rng.normal(size=(20, 3, 2)) for _ in range(2)]
    errors = []

    def run(batch):
        try:
            fit(batch, 2, options=OPTIONS)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(b,)) for b in batches]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert not errors
    assert set(seen) == {1}
    assert CONTROL[0]() == caller_count


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="pool workers are not forked"
)
def test_scan_workers_inherit_one_thread(rng, caller_count, monkeypatch):
    # read in the worker before fit opens its own scope, so the count is the
    # one the worker inherited; a failed check shows as a failed cell
    inner = selection.fit

    def checked_fit(*args, **kwargs):
        count = CONTROL[0]()
        if count != 1:
            raise RuntimeError(f"worker runs OpenBLAS on {count} threads")
        return inner(*args, **kwargs)

    monkeypatch.setattr(selection, "fit", checked_fit)
    grid = ScanGrid(groups=(1, 2), spec_candidates=((ScaleModel.VVV,),) * 2, options=OPTIONS)
    result = scan(rng.normal(size=(30, 3, 2)), grid, threads=2)
    assert [row.error for row in result.rows] == [None, None]
    assert CONTROL[0]() == caller_count


def test_serial_study_draws_on_one_thread(caller_count, monkeypatch):
    # data generation runs outside fit, so its count is the study's scope's
    counts = []
    inner = simulate.sample

    def sample(*args, **kwargs):
        counts.append(CONTROL[0]())
        return inner(*args, **kwargs)

    monkeypatch.setattr(simulate, "sample", sample)
    cfg = simulate.SimConfig(n_obs=12, dims=(3, 2), n_groups=2, replicates=2, g_scan=(1, 2))
    report = simulate.run_study(cfg, options=OPTIONS, workers=1)
    assert len(report.records) == 2
    assert counts and set(counts) == {1}
    assert CONTROL[0]() == caller_count
