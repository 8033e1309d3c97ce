"""Command line behavior: payload shapes, coordinate mapping, exit codes."""

import csv
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effapprox import certificates, cli
from effapprox.achievement import approximate_psi
from effapprox.poly import Polynomial
from effapprox.problem import load, rescale

SHIFTED_DISK = {
    "n": 2,
    "objectives": [
        {"p": [[1.0, [1, 0]]]},
        {"p": [[1.0, [0, 1]]]},
        {
            "p": [
                [1.0, [2, 0]],
                [-2.0, [1, 0]],
                [1.0, [0, 2]],
                [2.0, [0, 1]],
                [2.0, [0, 0]],
            ]
        },
    ],
    "constraints": [
        [
            [-1.0, [0, 0]],
            [2.0, [1, 0]],
            [-2.0, [0, 1]],
            [-1.0, [2, 0]],
            [-1.0, [0, 2]],
        ]
    ],
    "box": [[0.0, 2.0], [-2.0, 0.0]],
}


def run_json(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_bounds_disk(problem_paths, capsys):
    payload = run_json(["bounds", str(problem_paths["disk"])], capsys)
    assert payload["command"] == "bounds"
    rows = payload["objectives"]
    assert len(rows) == 3
    expected = [(-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)]
    for row, (lo, hi) in zip(rows, expected):
        assert row["lower"] == pytest.approx(lo, abs=1e-6)
        assert row["upper"] == pytest.approx(hi, abs=1e-6)
        assert row["lower_verified"] and row["upper_verified"]
        assert row["order"] == 2
    assert [r["index"] for r in rows] == [1, 2, 3]


def test_approx_payload(problem_paths, psi_cache, tmp_path, capsys):
    out = tmp_path / "approx.json"
    code = cli.main(
        ["approx", str(problem_paths["disk"]), "--k", "2", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["command"] == "approx"
    assert payload["order"] == 2
    assert payload["mode"] == "dense"
    assert payload["solver"]["status"] == "optimal"
    assert payload["verification"]["passed"] is True
    assert payload["verification"]["max_mismatch"] < 1e-5
    assert payload["bounds"]["lower"] == pytest.approx([-1, -1, 0], abs=1e-6)
    assert payload["bounds"]["upper"] == pytest.approx([1, 1, 1], abs=1e-6)
    # the disk problem's box is already [-1,1]^2, so the emitted polynomial
    # must match the computed over-estimator exactly
    run = psi_cache.get("disk", 2)
    assert payload["rho"] == pytest.approx(run.rho, abs=1e-9)
    emitted = Polynomial.from_terms(2, payload["psi"])
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(64, 2))
    assert np.allclose(
        emitted.eval_many(pts), run.psi.eval_many(pts), atol=1e-9
    )


def test_approx_three_variables(problem_paths, problems, tmp_path):
    # n = 3: objectives x1, x2 and (x3 + x1 x2) / (2 + x1) on the unit ball
    out = tmp_path / "ball.json"
    code = cli.main(["approx", str(problem_paths["ball"]), "--k", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["solver"]["status"] == "optimal"
    assert payload["verification"]["passed"] is True
    assert 0 < payload["rho"] < 1
    # certified objective ranges contain the values at sampled feasible points
    spec = problems["ball"][0]
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(4000, 3))
    pts = pts[spec.feasibility_mask(pts)]
    values = spec.objective_values(pts)
    assert (np.array(payload["bounds"]["lower"]) <= values.min(axis=1) + 1e-9).all()
    assert (np.array(payload["bounds"]["upper"]) >= values.max(axis=1) - 1e-9).all()
    # psi_k over-estimates the achievement function psi, which is >= 0 on
    # the feasible set and at least 0.3 at the origin (y = (-0.5, -0.5, -0.7)
    # beats it by 0.5, 0.5 and 0.3); at the weakly efficient (-1, 0, 0),
    # where psi is 0, psi_2 is 0.036
    psi = Polynomial.from_terms(3, payload["psi"])
    assert psi.eval_many(pts).min() >= -1e-6
    at_efficient, at_origin = psi.eval_many(np.array([[-1.0, 0, 0], [0, 0, 0]]))
    assert at_efficient <= 0.1
    assert at_origin >= 0.3 - 1e-6


def test_approx_certificate_flag(problem_paths, tmp_path):
    out = tmp_path / "cert.json"
    code = cli.main(
        [
            "approx",
            str(problem_paths["disk"]),
            "--k",
            "2",
            "--certificate",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    blocks = payload["certificate"]
    assert blocks[0]["label"] == "sigma0"
    for blk in blocks:
        size = len(blk["basis"])
        assert len(blk["matrix"]) == size
        assert all(len(row) == size for row in blk["matrix"])


def test_check_payload(problem_paths, capsys):
    payload = run_json(
        [
            "check",
            str(problem_paths["disk"]),
            "--k",
            "2",
            "--delta",
            "0.1",
            "--grid",
            "81",
        ],
        capsys,
    )
    assert payload["command"] == "check"
    assert payload["violations"] == 0
    assert payload["grid"] == 81
    assert 0 < payload["region_count"] <= payload["reference_count"]
    assert 0 < payload["region_volume"] <= payload["reference_volume"] + 1e-12
    assert 0 < payload["ratio"] <= 1.0 + 1e-9
    assert payload["slack"] >= 1e-6


def test_check_three_variables(problem_paths, capsys):
    # the lattice queries on n = 3: 61^3 points, 18,230 of them in the
    # reference set of the oracle
    payload = run_json(["check", str(problem_paths["ball"]), "--k", "3",
                        "--delta", "0.1", "--grid", "61"], capsys)
    assert payload["violations"] == 0
    assert (payload["region_count"], payload["reference_count"]) == (13803, 18230)
    assert payload["ratio"] == pytest.approx(0.757, abs=5e-4)


def test_minimize_inline_and_file_objective(problem_paths, tmp_path, capsys):
    obj = "[[1.0, [1, 0]], [1.0, [0, 1]]]"
    argv = [
        "minimize",
        str(problem_paths["disk"]),
        "--k",
        "2",
        "--delta",
        "0.1",
        "--objective",
        obj,
    ]
    payload = run_json(argv, capsys)
    assert payload["command"] == "minimize"
    assert payload["candidate_feasible"] is True
    assert payload["bound"] <= payload["candidate_value"] + 1e-8
    # the region sits inside the unit disk, so min(x1 + x2) >= -sqrt(2)
    assert -1.4143 <= payload["bound"] <= -1.0
    assert len(payload["candidate"]) == 2

    obj_file = tmp_path / "objective.json"
    obj_file.write_text(obj)
    argv[-1] = str(obj_file)
    payload2 = run_json(argv, capsys)
    assert payload2 == payload


def test_sample_original_coordinates(tmp_path, capsys):
    problem_file = tmp_path / "shifted.json"
    problem_file.write_text(json.dumps(SHIFTED_DISK))
    out = tmp_path / "sample.csv"
    code = cli.main(
        [
            "sample",
            str(problem_file),
            "--k",
            "2",
            "--delta",
            "0.1",
            "--grid",
            "21",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["x1", "x2", "f1", "f2", "f3", "in_omega", "in_A"]
    assert len(rows) == 1 + 21 * 21

    spec = load(problem_file)
    scaled, amap = rescale(spec)
    run = approximate_psi(scaled, 2)
    g = spec.constraints[0]
    saw_region = False
    for cells in rows[1:]:
        x = np.array([float(cells[0]), float(cells[1])])
        assert 0.0 <= x[0] <= 2.0 and -2.0 <= x[1] <= 0.0
        f = [float(c) for c in cells[2:5]]
        assert f[0] == pytest.approx(x[0], abs=1e-12)
        assert f[1] == pytest.approx(x[1], abs=1e-12)
        assert f[2] == pytest.approx(
            (x[0] - 1) ** 2 + (x[1] + 1) ** 2, abs=1e-9
        )
        in_omega, in_a = cells[5] == "1", cells[6] == "1"
        if in_a:
            assert in_omega
            saw_region = True
        if in_omega:
            assert g(x) >= -1e-9
            xs = (x[None, :] - np.asarray(amap.center)) / np.asarray(amap.halfwidth)
            assert (run.psi.eval_many(xs)[0] <= 0.1) == in_a
    assert saw_region


def test_sample_deterministic(problem_paths, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli.main(
            [
                "sample",
                str(problem_paths["disk"]),
                "--k",
                "2",
                "--delta",
                "0.1",
                "--grid",
                "31",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sparse_certificate_deterministic(problem_paths, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        argv = ["approx", str(problem_paths["disk"]), "--k", "3", "--mode", "sparse"]
        assert cli.main(argv + ["--certificate", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    labels = [blk["label"] for blk in json.loads(outs[0])["certificate"]]
    assert labels[0] == "sigma0[0]" and len(labels) == 94


def test_missing_k_is_a_usage_error(problem_paths, capsys):
    code = cli.main(["approx", str(problem_paths["disk"])])
    assert code == cli.EXIT_FORMAT
    assert "requires --k" in capsys.readouterr().err


def test_malformed_problem_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["bounds", str(bad)]) == cli.EXIT_FORMAT

    unknown = tmp_path / "unknown.json"
    data = dict(SHIFTED_DISK)
    data["extra"] = 1
    unknown.write_text(json.dumps(data))
    assert cli.main(["bounds", str(unknown)]) == cli.EXIT_FORMAT
    assert "unknown" in capsys.readouterr().err


def test_missing_problem_file(problem_paths, tmp_path, capsys):
    assert cli.main(["bounds", str(tmp_path / "nope.json")]) == cli.EXIT_FORMAT
    # a directory where a file is expected, as problem and as objective
    assert cli.main(["bounds", str(tmp_path)]) == cli.EXIT_FORMAT
    minimize = ["minimize", str(problem_paths["disk"]), "--k", "2", "--delta", "0.1"]
    assert cli.main(minimize + ["--objective", str(tmp_path)]) == cli.EXIT_FORMAT
    # an output path in a missing directory
    out = tmp_path / "missing" / "bounds.json"
    code = cli.main(["bounds", str(problem_paths["disk"]), "--out", str(out)])
    assert code == cli.EXIT_FORMAT
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["check", "--k", "2", "--grid", "21", "--delta", "nan"],
        ["check", "--k", "2", "--grid", "21", "--delta", "inf"],
        ["bounds", "--tol", "nan"],
        ["bounds", "--tol", "-1"],
        ["bounds", "--tol", "0"],
    ],
)
def test_nonfinite_delta_and_tol_rejected(problem_paths, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main([flags[0], str(problem_paths["disk"]), *flags[1:]])
    assert exc.value.code == cli.EXIT_FORMAT


@pytest.mark.parametrize("flags, error", [
    (["check", "--k", "2", "--delta", "0.1", "--grid", "abc"],
     "argument --grid: invalid _grid value: 'abc'"),
    (["bounds", "--tol", "abc"], "argument --tol: invalid _tolerance value: 'abc'"),
    (["bounds", "--tol", "nan"], "argument --tol: expected a finite number, got 'nan'"),
    (["bounds", "--tol", "0"], "argument --tol: expected a positive number, got '0'"),
    (["bounds", "--k", "0"], "argument --k: expected an order of at least 1, got '0'"),
    (["bounds", "--k", "x"], "argument --k: invalid _order value: 'x'"),
])
def test_malformed_flag_messages(problem_paths, capsys, flags, error):
    with pytest.raises(SystemExit) as exc:
        cli.main([flags[0], str(problem_paths["disk"]), *flags[1:]])
    assert exc.value.code == cli.EXIT_FORMAT
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == f"effapprox {flags[0]}: error: {error}"


def test_grid_and_out_checked_before_solve(problem_paths, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("approximate_psi ran before the arguments were checked")

    monkeypatch.setattr(cli, "approximate_psi", never)
    monkeypatch.setattr(cli, "compute_bounds", never)
    disk = str(problem_paths["disk"])
    for grid in ("1", "0", "-3"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", disk, "--k", "2", "--delta", "0.1", "--grid", grid])
        assert exc.value.code == cli.EXIT_FORMAT
    # an order below 1 is a malformed flag, not a solver failure
    for command in ("approx", "bounds"):
        for k in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, disk, "--k", k])
            assert exc.value.code == cli.EXIT_FORMAT
    with pytest.raises(SystemExit) as exc:
        cli.main(["minimize", disk, "--k", "2", "--delta", "0.1",
                  "--objective", "[[1.0, [1, 0]]]", "--order", "0"])
    assert exc.value.code == cli.EXIT_FORMAT
    # a lattice above the size cap is refused before the solve
    for command in ("check", "sample"):
        argv = [command, disk, "--k", "2", "--delta", "0.1", "--grid", "100000"]
        assert cli.main(argv) == cli.EXIT_FORMAT
        assert "lattice" in capsys.readouterr().err
    out = tmp_path / "missing" / "psi.json"
    assert cli.main(["approx", disk, "--k", "3", "--out", str(out)]) == cli.EXIT_FORMAT
    assert "missing" in capsys.readouterr().err

    # an existing output file is neither created nor truncated before the solve
    def fail(*args, **kwargs):
        raise cli.SolverError("no solve")

    monkeypatch.setattr(cli, "approximate_psi", fail)
    kept = tmp_path / "psi.json"
    kept.write_text("keep")
    assert cli.main(["approx", disk, "--k", "3", "--out", str(kept)]) == cli.EXIT_SOLVER
    assert kept.read_text() == "keep"
    fresh = tmp_path / "fresh.json"
    assert cli.main(["approx", disk, "--k", "3", "--out", str(fresh)]) == cli.EXIT_SOLVER
    assert not fresh.exists()


def test_bad_objective_terms(problem_paths, monkeypatch, capsys):
    # a malformed objective must be rejected before the psi solve starts
    def never(*args, **kwargs):
        raise AssertionError("approximate_psi ran before --objective was checked")

    monkeypatch.setattr(cli, "approximate_psi", never)
    argv = [
        "minimize",
        str(problem_paths["disk"]),
        "--k",
        "2",
        "--delta",
        "0.1",
        "--objective",
    ]
    assert cli.main(argv + ["[[1"]) == cli.EXIT_FORMAT
    assert "invalid JSON" in capsys.readouterr().err
    assert cli.main(argv + ["[]"]) == cli.EXIT_FORMAT
    assert "nonempty" in capsys.readouterr().err
    assert cli.main(argv + ["[[NaN, [1, 0]]]"]) == cli.EXIT_FORMAT
    assert "finite" in capsys.readouterr().err


def test_empty_feasible_set_exit_code(tmp_path, capsys):
    data = dict(SHIFTED_DISK)
    # demand x1 >= 3, which the box forbids
    data["constraints"] = [[[1.0, [1, 0]], [-3.0, [0, 0]]]]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert cli.main(["bounds", str(path)]) == cli.EXIT_ASSUMPTION
    assert "no feasible point" in capsys.readouterr().err


def test_nonpositive_denominator_exit_code(tmp_path, capsys):
    data = json.loads(json.dumps(SHIFTED_DISK))
    data["objectives"][0]["q"] = [[1.0, [1, 0]]]  # q = x1, vanishes in the box
    path = tmp_path / "badq.json"
    path.write_text(json.dumps(data))
    assert cli.main(["bounds", str(path)]) == cli.EXIT_ASSUMPTION
    assert "denominator" in capsys.readouterr().err


def test_order_beyond_memory_exit_code(problem_paths, monkeypatch, capsys):
    # physical memory read as 64 bytes: the order-2 bound program, 15 rows,
    # needs 960 bytes for its Schur matrix, so the run exits 2 before it
    # enumerates a monomial
    def never(*args):
        raise AssertionError("monomials enumerated")

    monkeypatch.setattr(certificates, "_physical_memory", lambda: 64)
    monkeypatch.setattr(certificates, "monomials_up_to", never)
    argv = ["bounds", str(problem_paths["rational"]), "--k", "2"]
    assert cli.main(argv) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert "15 rows" in err and "960 bytes" in err and "the 64 bytes" in err


@pytest.mark.parametrize("command, flags, order", [
    ("bounds", [], "its default order"),
    ("bounds", ["--k", "3"], "order 3"),
    ("approx", ["--k", "2"], "order 2"),
])
def test_out_of_memory_exit_code(problem_paths, monkeypatch, capsys, command, flags, order):
    # a solve that runs out of memory exits 2 with a message, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(certificates, "solve_many", exhausted)
    monkeypatch.setattr(certificates, "solve", exhausted)
    assert cli.main([command, str(problem_paths["disk"]), *flags]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert err == f"error: {command} ran out of memory at {order}; try a lower --k\n"


def test_order_too_low_exit_code(problem_paths, psi_cache, monkeypatch, capsys):
    # the rational example needs k >= 3
    code = cli.main(["approx", str(problem_paths["rational"]), "--k", "2"])
    assert code == cli.EXIT_SOLVER
    assert "error" in capsys.readouterr().err
    # the degree-4 region generator needs order >= 2
    run = psi_cache.get("disk", 2)
    monkeypatch.setattr(cli, "approximate_psi", lambda *a, **kw: run)
    argv = ["minimize", str(problem_paths["disk"]), "--k", "2", "--delta", "0.1",
            "--objective", "[[1.0, [1, 0]]]", "--order", "1"]
    assert cli.main(argv) == cli.EXIT_SOLVER
    assert "degree" in capsys.readouterr().err


def _failing_verification(monkeypatch, module=None, shift=1.0):
    """Move sigma_0's constant Gram entry by ``shift`` before the real check
    sees the certificate, in ``module``'s name for it (default: every bound)."""
    real = certificates.verify_certificate

    def failing(target, certificate, what):
        certificate.blocks[0].matrix[0, 0] += shift
        return real(target, certificate, what)

    monkeypatch.setattr(module or certificates, "verify_certificate", failing)


def test_failed_verification_exit_code(problem_paths, monkeypatch, capsys):
    from effapprox import achievement

    # only the order-k certificate fails; the objective bounds still pass
    _failing_verification(monkeypatch, achievement)
    code = cli.main(["approx", str(problem_paths["disk"]), "--k", "2"])
    assert code == cli.EXIT_VERIFY
    assert "order-2 certificate failed verification" in capsys.readouterr().err


def test_failed_bound_verification_exit_code(problem_paths, monkeypatch, capsys):
    _failing_verification(monkeypatch)
    code = cli.main(["bounds", str(problem_paths["disk"])])
    assert code == cli.EXIT_VERIFY
    assert "failed verification" in capsys.readouterr().err


def test_non_finite_certificate_exit_code(problem_paths, monkeypatch, capsys):
    _failing_verification(monkeypatch, shift=np.nan)
    code = cli.main(["bounds", str(problem_paths["disk"])])
    assert code == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert "lower bound certificate failed verification (mismatch nan, " in err


def test_huge_box_exit_code(tmp_path, capsys):
    # rescaling x^3 onto [-1e300, 1e300] overflows: malformed input, not a
    # solver failure, and no RuntimeWarning
    doc = {"n": 1, "objectives": [{"p": [[1.0, [3]]]}, {"p": [[-1.0, [1]]]}],
           "box": [[-1e300, 1e300]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["bounds", str(path)])
    assert code == cli.EXIT_FORMAT
    assert capsys.readouterr().err == (
        "error: objective 0, numerator: coefficients are not finite on the box "
        "rescaled to [-1, 1]^n\n"
    )


def test_overflowing_objective_rejected_before_solve(tmp_path, monkeypatch, capsys):
    # the problem rescales to finite coefficients, but x1^4 on [-1e100, 1e100]
    # gives 1e400: malformed input, caught before the psi solve starts
    def never(*args, **kwargs):
        raise AssertionError("approximate_psi ran before --objective was rescaled")

    monkeypatch.setattr(cli, "approximate_psi", never)
    doc = {"n": 2, "objectives": [{"p": [[1.0, [1, 0]]]}, {"p": [[1.0, [0, 1]]]}],
           "constraints": [[[1e200, [0, 0]], [-1.0, [2, 0]], [-1.0, [0, 2]]]],
           "box": [[-1e100, 1e100], [-1e100, 1e100]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["minimize", str(path), "--k", "2", "--delta", "0.1",
                         "--objective", "[[1.0, [4, 0]]]"])
    assert code == cli.EXIT_FORMAT
    assert capsys.readouterr().err == (
        "error: objective: coefficients are not finite on the box rescaled to "
        "[-1, 1]^n\n"
    )


TINY_DISK = {"n": 2, "objectives": [{"p": [[1.0, [1, 0]]]}, {"p": [[1.0, [0, 1]]]}],
             "constraints": [[[1e-200, [0, 0]], [-1.0, [2, 0]], [-1.0, [0, 2]]]],
             "box": [[-1e-100, 1e-100], [-1e-100, 1e-100]]}
ZERO_HALFWIDTH = {"n": 1, "objectives": [{"p": [[1.0, [1]]]}, {"p": [[-1.0, [1]]]}],
                  "box": [[0.0, 5e-324]]}


@pytest.mark.parametrize("doc", [TINY_DISK, ZERO_HALFWIDTH], ids=["1e-100", "0"])
def test_tiny_box_psi_overflow_exit_code(tmp_path, capsys, doc):
    # the unit disk shrunk to radius 1e-100: psi_2's degree-4 coefficients
    # scale by 1/h^4 = 1e400 in the user's coordinates; a halfwidth that
    # rounds to 0 (5e-324 / 2) gives 1/h = inf.  Either run exits 2 with
    # nothing on stdout (no Infinity in the JSON) and no RuntimeWarning
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["approx", str(path), "--k", "2"])
    assert code == cli.EXIT_FORMAT
    assert capsys.readouterr() == (
        "", "error: psi: coefficients are not finite in the box's own coordinates\n")


def test_failed_minimize_verification_exit_code(
    problem_paths, psi_cache, monkeypatch, capsys
):
    run = psi_cache.get("disk", 2)
    monkeypatch.setattr(cli, "approximate_psi", lambda *a, **kw: run)
    _failing_verification(monkeypatch)
    code = cli.main(
        [
            "minimize",
            str(problem_paths["disk"]),
            "--k",
            "2",
            "--delta",
            "0.1",
            "--objective",
            "[[1.0, [1, 0]]]",
        ]
    )
    assert code == cli.EXIT_VERIFY
    assert "minimization certificate failed verification" in capsys.readouterr().err


def test_subprocess_entry(problem_paths, tmp_path):
    script = "from effapprox.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", script, "bounds", str(problem_paths["disk"])],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["command"] == "bounds"

    done = subprocess.run(
        [sys.executable, "-c", script, "approx", str(problem_paths["disk"])],
        capture_output=True,
        text=True,
    )
    assert done.returncode == cli.EXIT_FORMAT


@st.composite
def problem_documents(draw):
    """Problem JSON the parser accepts: n in {1, 2}, 1-3 objectives with an
    optional denominator, optional constraints, exponents up to 3, any finite
    coefficients and box ends."""
    n = draw(st.sampled_from([1, 2]))
    coeff = st.one_of(st.integers(-10**6, 10**6),
                      st.floats(allow_nan=False, allow_infinity=False))
    term = st.tuples(coeff, st.lists(st.integers(0, 3), min_size=n, max_size=n)).map(list)
    terms = st.lists(term, min_size=1, max_size=4)
    objective = st.fixed_dictionaries({"p": terms}, optional={"q": terms})
    data = {"n": n, "objectives": draw(st.lists(objective, min_size=1, max_size=3))}
    if draw(st.booleans()):
        data["constraints"] = draw(st.lists(terms, max_size=2))
    ends = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=2, unique=True).map(sorted)
    data["box"] = [draw(ends) for _ in range(n)]
    return data


@settings(max_examples=200, deadline=None)
@given(data=problem_documents())
# the solver's centering ratio once overflowed when cubed, a traceback
@example(data={"n": 1, "objectives": [{"p": [[0, [0]]]}],
               "constraints": [[[-3.030809496821203e130, [1]]]],
               "box": [[-4.4099443375972424e16, 0.0]]})
# a step length's -1/low overflowed, with a RuntimeWarning, for a subnormal low
@example(data={"n": 1, "objectives": [{"p": [[4.256204471196038e-105, [2]]]}],
               "box": [[0.0, 4.256204471196038e-105]]})
def test_accepted_problems_exit_with_a_code(data):
    # every problem the parser accepts ends in an exit code, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(data))
        load(path)
        assert cli.main(["bounds", str(path), "--out", str(Path(tmp) / "out.json")]) in (
            0, 2, 3, 4, 5)
