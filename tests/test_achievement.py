import numpy as np
import pytest

from effapprox import achievement, certificates
from effapprox.achievement import approximate_psi, assemble, box_moments, build_joint
from effapprox.analysis import RegionQuery
from effapprox.certificates import OrderTooLowError, compute_bounds
from effapprox.poly import Polynomial, monomials_up_to
from effapprox.problem import from_dict, omega_generators

from conftest import in_region_many


def test_box_moments_small_cases():
    table = dict(zip(monomials_up_to(2, 4), box_moments(monomials_up_to(2, 4))))
    assert table[(0, 0)] == 1.0
    assert table[(2, 0)] == pytest.approx(1.0 / 3.0, abs=0)
    assert table[(2, 2)] == pytest.approx(1.0 / 9.0, abs=0)
    assert table[(4, 0)] == pytest.approx(1.0 / 5.0, abs=0)
    assert table[(1, 0)] == 0.0
    assert table[(1, 2)] == 0.0
    assert table[(3, 1)] == 0.0


def test_joint_system_group_structure(problems):
    _, scaled, _ = problems["disk"]
    bounds = compute_bounds(scaled.objectives, omega_generators(scaled))
    joint = build_joint(scaled, bounds, "dense")
    assert joint.dim == 5  # (x1, x2, y1, y2, z)
    assert [label for label, _ in joint.generators] == [
        "h1_1", "h1_2", "h1_3", "h2_1", "h2_2", "h2_3", "h3_1", "h3_2", "h4_1"
    ]


def test_first_comparison_row_for_polynomial_objective(problems):
    # with q = 1 the cleared comparison collapses to p(x) - p(y) - z
    _, scaled, _ = problems["disk"]
    bounds = compute_bounds(scaled.objectives, omega_generators(scaled))
    joint = build_joint(scaled, bounds, "dense")
    h11 = dict(joint.generators)["h1_1"]
    expected = Polynomial(5, {(1, 0, 0, 0, 0): 1.0, (0, 0, 1, 0, 0): -1.0,
                             (0, 0, 0, 0, 1): -1.0})
    assert h11 == expected


def test_rational_comparison_row_cross_checked(problems):
    _, scaled, _ = problems["rational"]
    bounds = compute_bounds(scaled.objectives, omega_generators(scaled))
    joint = build_joint(scaled, bounds, "dense")
    h12 = dict(joint.generators)["h1_2"]
    # x4-type terms cancel between the two products but the z term does not
    assert h12.degree == 5
    p, q = scaled.objectives[1]
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = rng.uniform(-1, 1, size=5)
        x, y, z = u[:2], u[2:4], u[4]
        direct = p(x) * q(y) - p(y) * q(x) - z * q(x) * q(y)
        assert abs(h12(u) - direct) <= 1e-10 * (1 + abs(direct))


@pytest.mark.parametrize(
    "k, blocks, largest, rows", [(2, 23, 12, 118), (4, 163, 57, 1125)]
)
def test_sparse_layout_splits_blocks(problems, k, blocks, largest, rows):
    _, scaled, _ = problems["disk"]
    bounds = compute_bounds(scaled.objectives, omega_generators(scaled))
    sparse = build_joint(scaled, bounds, "sparse")
    dense = build_joint(scaled, bounds, "dense")
    labels = [label for label, _ in sparse.generators]
    assert labels == [label for label, _ in dense.generators]
    assert "h1_ball" not in labels
    system, coeff_basis = assemble(sparse, k)
    dims = system.problem.block_dims
    assert (len(dims), max(dims), system.problem.n_rows) == (blocks, largest, rows)
    # the target -z + sum_alpha c_alpha x^alpha needs every one of its rows
    target_support = {(0, 0, 0, 0, 1)} | {
        alpha + (0, 0, 0) for alpha in coeff_basis
    }
    assert target_support <= set(system.monomials)
    assert assemble(dense, k)[0].monomials == monomials_up_to(5, 2 * k)


def test_assemble_sizes_at_low_order(problems):
    _, scaled, _ = problems["disk"]
    bounds = compute_bounds(scaled.objectives, omega_generators(scaled))
    joint = build_joint(scaled, bounds, "dense")
    system, coeff_basis = assemble(joint, 2)
    assert len(coeff_basis) == 15  # degree-4 coefficients in 2 vars
    assert system.problem.n_rows == 126  # binomial(5 + 4, 4)
    assert system.problem.n_free == 15
    assert system.problem.obj_free == box_moments(coeff_basis).tolist()


def test_assemble_checks_memory_before_enumerating(problems, monkeypatch):
    # physical memory read as 64 bytes: the order-2 joint program in 5
    # variables, 126 rows, needs 64,008 bytes for its Schur matrix
    def never(*args):
        raise AssertionError("monomials enumerated")

    _, scaled, _ = problems["disk"]
    bounds = compute_bounds(scaled.objectives, omega_generators(scaled))
    joint = build_joint(scaled, bounds, "dense")
    monkeypatch.setattr(certificates, "_physical_memory", lambda: 64)
    monkeypatch.setattr(achievement, "monomials_up_to", never)
    with pytest.raises(ValueError, match="needs 126 rows.* 64008 bytes.* 64 bytes"):
        assemble(joint, 2)


def test_assemble_rejects_too_low_order(problems):
    _, scaled, _ = problems["rational"]
    bounds = compute_bounds(scaled.objectives, omega_generators(scaled))
    joint = build_joint(scaled, bounds, "dense")
    # the degree-5 comparison row needs 2k >= 5
    with pytest.raises(OrderTooLowError):
        assemble(joint, 2)
    assert assemble(joint, 3)[0].order == 3


def test_unit_box_required():
    spec = from_dict(
        {
            "n": 1,
            "objectives": [{"p": [[1.0, [1]]]}],
            "constraints": [],
            "box": [[0.0, 2.0]],
        }
    )
    with pytest.raises(ValueError, match="unit box|rescaled"):
        approximate_psi(spec, 2)


def test_low_order_run_on_disk(psi_cache):
    run = psi_cache.get("disk", 2)
    assert run.solver_status.value == "optimal"
    assert run.psi.dim == 2
    assert run.psi.degree <= 4
    # interior weakly efficient point: the true value is 0, the estimator
    # must stay above up to certificate tolerance
    assert run.psi(np.array([-0.5, -0.5])) >= -1e-5
    assert run.psi(np.array([0.0, 0.0])) >= -1e-5
    # the reported objective equals the box average of the coefficients
    table = dict(zip(monomials_up_to(2, 4), box_moments(monomials_up_to(2, 4))))
    acc = sum(c * table[a] for a, c in run.psi.sorted_terms())
    assert run.rho == pytest.approx(acc, abs=1e-9)


def test_low_order_rho_value_frozen(psi_cache):
    # pinned from an independent run of the same pipeline; guards against
    # silent assembly regressions
    run = psi_cache.get("disk", 2)
    assert run.rho == pytest.approx(0.2475, abs=5e-4)


def test_order3_disk_solve_pinned(psi_cache):
    # the 462-row order-3 program: iteration count and rho are pinned, so a
    # change to the Schur complement or the Newton direction that alters the
    # solver's path shows here
    run = psi_cache.get("disk", 3)
    assert run.iterations == 21
    assert run.rho == pytest.approx(0.2238263184, rel=1e-7)


def test_region_membership_flags(psi_cache, problems):
    run = psi_cache.get("disk", 2)
    _, scaled, _ = problems["disk"]
    query = RegionQuery(spec=scaled, psi=run.psi, delta=0.3, order=2, mode="dense")
    # (-0.9, -0.9) has psi_2 <= 0.3 but lies outside the disk
    pts = np.array([[-0.5, -0.5], [1.0, 1.0], [-0.9, -0.9]])
    assert run.psi.eval_many(pts[2:])[0] <= 0.3
    flags = in_region_many(query, pts)
    assert flags.dtype == bool
    assert flags.tolist() == [True, False, False]


def test_invalid_mode_rejected(problems):
    _, scaled, _ = problems["disk"]
    with pytest.raises(ValueError, match="mode"):
        approximate_psi(scaled, 2, "block")
