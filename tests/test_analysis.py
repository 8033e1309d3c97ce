"""Region queries, image sampling, and minimization over a region."""

import csv
import io
import math

import numpy as np
import pytest

from effapprox import analysis
from effapprox.analysis import (
    ImageSample,
    RegionQuery,
    containment_report,
    minimize_over,
    sample_image,
)
from effapprox.certificates import GeneratorSet, OrderTooLowError, SolverError
from effapprox.oracle import Grid
from effapprox.poly import Polynomial

from conftest import in_region_many


def csv_text(sample):
    buf = io.StringIO()
    sample.write_csv(buf)
    return buf.getvalue()


def unit_disk_gens():
    g = Polynomial.from_terms(2, [(1.0, (0, 0)), (-1.0, (2, 0)), (-1.0, (0, 2))])
    return GeneratorSet(2, [("disk", g)])


def test_minimize_linear_over_disk():
    x1 = Polynomial.variable(2, 0)
    res = minimize_over(x1, unit_disk_gens())
    assert res.order == 1
    assert res.bound == pytest.approx(-1.0, abs=1e-6)
    assert res.candidate == pytest.approx([-1.0, 0.0], abs=1e-4)
    assert res.candidate_feasible
    assert res.candidate_value == pytest.approx(-1.0, abs=1e-4)
    assert abs(res.gap) < 1e-4
    assert res.iterations > 0


def test_minimize_shifted_quadratic_on_box():
    # (x1 - 0.3)^2 + (x2 + 0.4)^2, interior minimum so the bound is exact
    obj = Polynomial.from_terms(
        2,
        [
            (1.0, (2, 0)),
            (-0.6, (1, 0)),
            (1.0, (0, 2)),
            (0.8, (0, 1)),
            (0.25, (0, 0)),
        ],
    )
    box = GeneratorSet(
        2,
        [
            ("b1", Polynomial.from_terms(2, [(1.0, (0, 0)), (-1.0, (2, 0))])),
            ("b2", Polynomial.from_terms(2, [(1.0, (0, 0)), (-1.0, (0, 2))])),
        ],
    )
    res = minimize_over(obj, box)
    assert res.bound == pytest.approx(0.0, abs=1e-6)
    assert res.candidate == pytest.approx([0.3, -0.4], abs=1e-5)
    assert res.candidate_feasible


def test_minimize_order_floor():
    x1 = Polynomial.variable(2, 0)
    quartic = x1**4
    with pytest.raises(OrderTooLowError, match="degree"):
        minimize_over(quartic, unit_disk_gens(), order=1)
    # at the floor itself it runs
    res = minimize_over(quartic, unit_disk_gens(), order=2)
    assert res.bound <= 1e-6


def test_minimize_empty_region():
    x = Polynomial.variable(1, 0)
    gens = GeneratorSet(
        1,
        [
            ("far", Polynomial.from_terms(1, [(1.0, (1,)), (-2.0, (0,))])),
            ("box", Polynomial.from_terms(1, [(1.0, (0,)), (-1.0, (2,))])),
        ],
    )
    with pytest.raises(SolverError, match="feasible set may be empty"):
        minimize_over(x, gens)


def test_minimize_rejects_unverified_certificate(monkeypatch):
    from effapprox import certificates

    real = certificates.verify_certificate

    def failing(target, certificate, what):
        certificate.blocks[0].matrix[0, 0] += 1.0  # sigma_0's constant entry
        return real(target, certificate, what)

    monkeypatch.setattr(certificates, "verify_certificate", failing)
    with pytest.raises(SolverError, match="minimization certificate failed verification"):
        minimize_over(Polynomial.variable(2, 0), unit_disk_gens())


@pytest.fixture(scope="module")
def toy_query(problems):
    # a hand-made threshold function is enough to exercise the query plumbing
    _, disk, _ = problems["disk"]
    psi = Polynomial.from_terms(
        2, [(1.0, (2, 0)), (1.0, (0, 2)), (-0.25, (0, 0))]
    )
    return RegionQuery(spec=disk, psi=psi, delta=0.0, order=2, mode="dense")


def test_in_region_scalar_matches_vector(toy_query):
    pts = np.array(
        [[0.0, 0.0], [0.4, 0.0], [0.6, 0.0], [0.9, 0.9], [-0.3, 0.3]]
    )
    many = in_region_many(toy_query, pts)
    assert many.tolist() == [True, True, False, False, True]
    for x, expected in zip(pts, many):
        assert in_region_many(toy_query, x[None, :]).tolist() == [expected]


def test_in_region_requires_feasibility(toy_query):
    # a point where psi <= delta but the constraint fails must stay out
    q = RegionQuery(
        spec=toy_query.spec,
        psi=Polynomial.from_terms(2, [(-1.0, (0, 0))]),
        delta=0.0,
        order=2,
        mode="dense",
    )
    assert in_region_many(q, [[0.9, 0.8], [0.1, 0.1]]).tolist() == [False, True]


def test_sample_image_csv_layout(toy_query, monkeypatch):
    grid = Grid.for_problem(toy_query.spec, 11)
    sample = sample_image(toy_query, grid)
    text = csv_text(sample)
    assert text.endswith("\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["x1", "x2", "f1", "f2", "f3", "in_omega", "in_A"]
    assert len(rows) == 1 + 121
    spec = toy_query.spec
    for cells in rows[1:]:
        x = np.array([float(cells[0]), float(cells[1])])
        f = np.array([float(c) for c in cells[2:5]])
        expect = spec.objective_values(x[None, :])[:, 0]
        assert np.allclose(f, expect, atol=1e-12)
        in_omega, in_a = cells[5] == "1", cells[6] == "1"
        assert cells[5] in ("0", "1") and cells[6] in ("0", "1")
        if in_a:
            assert in_omega
    # membership column agrees with the query evaluated directly
    flags = np.array([c[6] == "1" for c in rows[1:]])
    assert np.array_equal(flags, in_region_many(toy_query, grid.points))
    assert csv_text(sample) == text
    # rows are written in chunks; the chunk size never shows in the text
    monkeypatch.setattr(analysis, "CSV_CHUNK", 7)
    assert csv_text(sample) == text


def test_sample_image_volume(toy_query):
    grid = Grid.for_problem(toy_query.spec, 201)
    sample = sample_image(toy_query, grid)
    # the toy region is the disk of radius 1/2
    from effapprox.oracle import grid_volume

    assert grid_volume(sample.in_region, grid) == pytest.approx(
        math.pi / 4, abs=0.02
    )
    assert np.count_nonzero(sample.in_region) <= np.count_nonzero(
        sample.in_omega
    )


def test_containment_on_computed_region(psi_cache, grids, problems):
    run = psi_cache.get("disk", 2)
    _, disk, _ = problems["disk"]
    query = RegionQuery(
        spec=disk, psi=run.psi, delta=0.1, order=run.order, mode=run.mode
    )
    report = containment_report(query, grids.get("disk", 101))
    assert report.violations == 0
    assert 0 < report.region_count <= report.reference_count
    assert report.region_volume <= report.reference_volume + 1e-12
    assert 0.0 < report.ratio <= 1.0 + 1e-9
    assert report.slack >= 1e-6


def test_grid_for_another_problem_rejected(psi_cache, grids, problems):
    # the bicorn lattice has the disk's dimension, so only the check stops a
    # report counted against the wrong objectives
    run = psi_cache.get("disk", 2)
    _, disk, _ = problems["disk"]
    query = RegionQuery(
        spec=disk, psi=run.psi, delta=0.1, order=run.order, mode=run.mode
    )
    grid = grids.get("bicorn", 101)
    for query_fn in (containment_report, sample_image):
        with pytest.raises(ValueError, match="another problem"):
            query_fn(query, grid)


def test_image_sample_direct_construction():
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    sample = ImageSample(
        points=pts,
        values=vals,
        in_omega=np.array([True, False]),
        in_region=np.array([True, False]),
    )
    lines = csv_text(sample).splitlines()
    assert lines[1] == "0,0,1,2,1,1"
    assert lines[2] == "1,2,3,4,0,0"
