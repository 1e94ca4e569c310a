"""BIC values, scan grids, winner selection, and the CSV table."""

import csv

import numpy as np
import pytest

from tmclust.em import FitOptions
from tmclust.mlnd import MlndParams, sample
from tmclust.parsimony import ScaleModel
from tmclust.selection import (
    ScanGrid, ScanResult, ScanRow, _cell_seed, _prefer, bic, scan, write_bic_table,
)


def three_group_batch(rng, n=60, dims=(2, 2), gap=5.0):
    scales = tuple(np.eye(m) for m in dims)
    labels = np.repeat(np.arange(3), n // 3)
    batch = np.stack(
        [
            sample(MlndParams(mean=np.full(dims, gap * k), scales=scales), rng)
            for k in labels
        ]
    )
    return batch, labels


def test_bic_fixture():
    assert bic(-100.0, 10, 50) == pytest.approx(-239.12023005428146, rel=1e-15)


def test_bic_monotone_in_loglik_and_rho():
    assert bic(-90.0, 10, 50) > bic(-100.0, 10, 50)
    assert bic(-100.0, 5, 50) > bic(-100.0, 10, 50)
    assert bic(-100.0, 10, 1) == -200.0  # log(1) = 0


def test_bic_rejects_bad_input():
    with pytest.raises(ValueError):
        bic(np.nan, 10, 50)
    with pytest.raises(ValueError):
        bic(-1.0, 10, 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(groups=(), spec_candidates=((ScaleModel.VVV,),))
    with pytest.raises(ValueError):
        ScanGrid(groups=(0,), spec_candidates=((ScaleModel.VVV,),))
    with pytest.raises(ValueError):
        ScanGrid(groups=(1,), spec_candidates=((ScaleModel.VVV,), ()))
    # int() would truncate 2.5, read True as 1 and parse "3"
    for groups in ((2.5,), (True,), ("3",)):
        with pytest.raises(ValueError, match="groups must be a list of integers"):
            ScanGrid(groups=groups, spec_candidates=((ScaleModel.VVV,),))
    grid = ScanGrid(groups=np.array([2, 3]), spec_candidates=((ScaleModel.VVV,),))
    assert grid.groups == (2, 3) and all(type(g) is int for g in grid.groups)
    # a bare string is not a list of token lists, and a number is not a token
    for cands in (("VVV",), [[5]]):
        with pytest.raises(ValueError, match="spec_candidates must be a list of family-token"):
            ScanGrid(groups=(1,), spec_candidates=cands)
    grid = ScanGrid(groups=(1,), spec_candidates=[["VVV", " EEE"], ["MCD-VVI"]])
    assert grid.spec_candidates == (
        (ScaleModel.VVV, ScaleModel.GPCM_EEE), (ScaleModel.MCD_VVI,)
    )


@pytest.mark.parametrize("threads", [0, -3, 1.5, True])
def test_scan_rejects_a_bad_thread_count(threads):
    """0 and -3 would run serially, 1.5 and True as 1, without an error."""
    grid = ScanGrid(groups=(1,), spec_candidates=((ScaleModel.VVV,),) * 2)
    with pytest.raises(ValueError, match=f"^threads must be an integer >= 1, got {threads!r}$"):
        scan(np.zeros((4, 2, 2)), grid, threads=threads)


def test_write_bic_table_pins_every_cell_format(tmp_path):
    """Exact bytes: a converged row, an unconverged one with repairs, and a
    failed one, whose log-likelihood and BIC are empty."""
    vvv, eee, mcd = ScaleModel.VVV, ScaleModel.GPCM_EEE, ScaleModel.MCD_EVI
    rows = [
        ScanRow(g=2, specs=(vvv, eee), loglik=-101.25, rho=17, bic=-259.5,
                converged=True, n_singular_events=0),
        ScanRow(g=3, specs=(mcd, vvv), loglik=-0.1, rho=25, bic=1e-17,
                converged=False, n_singular_events=3),
        ScanRow(g=4, specs=(vvv, vvv), loglik=None, rho=33, bic=None,
                converged=False, n_singular_events=0, error="EmptyComponentError: x"),
    ]
    path = tmp_path / "table.csv"
    write_bic_table(ScanResult(rows=rows, best=rows[0]), path)
    assert path.read_bytes() == (
        b"G,spec_d1,spec_d2,loglik,rho,bic,converged,singular_events\r\n"
        b"2,VVV,EEE,-101.25,17,-259.5,true,0\r\n"
        b"3,MCD-EVI,VVV,-0.1,25,1e-17,false,3\r\n"
        b"4,VVV,VVV,,33,,false,0\r\n"
    )


def test_grid_cell_order():
    grid = ScanGrid(
        groups=(2, 3),
        spec_candidates=((ScaleModel.VVV, ScaleModel.GPCM_EEE), (ScaleModel.VVV,)),
    )
    cells = list(grid.cells())
    assert [g for g, _ in cells] == [2, 2, 3, 3]
    assert cells[0][1] == (ScaleModel.VVV, ScaleModel.VVV)
    assert cells[1][1] == (ScaleModel.GPCM_EEE, ScaleModel.VVV)


def test_scan_selects_true_group_count(rng):
    batch, _ = three_group_batch(rng)
    grid = ScanGrid(
        groups=(2, 3, 4),
        spec_candidates=((ScaleModel.VVV,), (ScaleModel.VVV,)),
        options=FitOptions(seed=1),
    )
    result = scan(batch, grid)
    assert result.best is not None
    assert result.best.g == 3
    assert len(result.rows) == 3


def test_scan_single_cell(rng):
    batch, _ = three_group_batch(rng, n=30)
    grid = ScanGrid(groups=(1,), spec_candidates=((ScaleModel.VVV,), (ScaleModel.VVV,)))
    result = scan(batch, grid)
    assert len(result.rows) == 1
    assert result.best is result.rows[0]
    assert result.rows[0].converged


def test_scan_isolates_failing_cells(rng):
    batch, _ = three_group_batch(rng, n=12)
    grid = ScanGrid(
        groups=(1, 50), spec_candidates=((ScaleModel.VVV,), (ScaleModel.VVV,))
    )
    result = scan(batch, grid)
    bad = result.rows[1]
    assert bad.error is not None
    assert bad.loglik is None and bad.bic is None
    assert bad.rho > 0  # parameter count is still known
    assert result.best is result.rows[0]


def test_scan_thread_count_does_not_change_results(rng):
    batch, _ = three_group_batch(rng)
    grid = ScanGrid(
        groups=(2, 3),
        spec_candidates=((ScaleModel.VVV, ScaleModel.GPCM_EEE), (ScaleModel.VVV,)),
        options=FitOptions(seed=3),
    )
    serial = scan(batch, grid, threads=1)
    pooled = scan(batch, grid, threads=2)
    for a, b in zip(serial.rows, pooled.rows):
        assert (a.g, a.specs, a.loglik, a.bic, a.converged, a.options) == (
            b.g, b.specs, b.loglik, b.bic, b.converged, b.options,
        )


def test_scan_rows_carry_their_cell_options(rng):
    batch, _ = three_group_batch(rng, n=30)
    grid = ScanGrid(
        groups=(1, 2, 40),  # G = 40 > N fails, and its row still names its options
        spec_candidates=((ScaleModel.VVV, ScaleModel.MCD_EVI), (ScaleModel.VVV,)),
        options=FitOptions(seed=(7, 1), max_iterations=20),
    )
    rows = scan(batch, grid).rows
    assert rows[-1].error is not None
    for row in rows:
        assert row.options.max_iterations == 20
        assert row.options.seed == _cell_seed((7, 1), row.g, row.specs)


def test_scan_keep_models(rng):
    batch, _ = three_group_batch(rng, n=30)
    grid = ScanGrid(groups=(3,), spec_candidates=((ScaleModel.VVV,), (ScaleModel.VVV,)))
    with_models = scan(batch, grid, keep_models=True)
    without = scan(batch, grid)
    assert with_models.rows[0].model is not None
    assert with_models.rows[0].report is not None
    assert without.rows[0].model is None


def _row(g, rho, value):
    return ScanRow(
        g=g, specs=(ScaleModel.VVV,), loglik=0.0, rho=rho, bic=value,
        converged=True, n_singular_events=0,
    )


def test_tie_breaking_prefers_fewer_params_then_fewer_groups():
    assert _prefer(_row(2, 10, -100.0), _row(3, 12, -100.0 - 5e-10)) is True
    assert _prefer(_row(2, 12, -100.0), _row(3, 10, -100.0)) is False
    assert _prefer(_row(2, 10, -100.0), _row(3, 10, -100.0)) is True
    # a real gap beats any tie rule
    assert _prefer(_row(5, 99, -99.0), _row(2, 10, -100.0)) is True


def test_write_bic_table_round_trips(rng, tmp_path):
    batch, _ = three_group_batch(rng, n=30)
    grid = ScanGrid(
        groups=(1, 2),
        spec_candidates=((ScaleModel.VVV,), (ScaleModel.GPCM_EEE,)),
        options=FitOptions(seed=2),
    )
    result = scan(batch, grid)
    path = tmp_path / "table.csv"
    write_bic_table(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {
        "G", "spec_d1", "spec_d2", "loglik", "rho", "bic", "converged", "singular_events",
    }
    for parsed, row in zip(rows, result.rows):
        assert int(parsed["G"]) == row.g
        assert parsed["spec_d2"] == "EEE"
        assert float(parsed["loglik"]) == row.loglik
        assert float(parsed["bic"]) == row.bic
