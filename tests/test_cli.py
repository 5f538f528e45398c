import numpy as np
import pytest

from krylov.cli import main
from krylov.storage import read_matrix_market


def run(args):
    return main(args)


def test_generate_poisson(tmp_path, capsys):
    out = tmp_path / "A.mtx"
    assert run(["generate", "--problem", "poisson", "--n", "10",
                "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=100" in text
    t = read_matrix_market(out.read_text())
    assert t.n == 100
    assert t.nnz <= 5 * 100
    rhs = tmp_path / "A_rhs.mtx"
    assert rhs.exists()


def test_generate_cavity_symmetric_kind(tmp_path):
    out = tmp_path / "C.mtx"
    assert run(["generate", "--problem", "cavity", "--n", "4", "--delta", "0.3",
                "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate real symmetric"


def test_generate_hilbert_warns_dense(tmp_path, capsys):
    out = tmp_path / "H.mtx"
    assert run(["generate", "--problem", "hilbert", "--n", "10",
                "--out", str(out)]) == 0
    assert "dense" in capsys.readouterr().err


def test_solve_cg_poisson(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code = run(["solve", "--problem", "poisson", "--n", "10", "--method", "cg",
                "--tol", "1e-6", "--tol-kind", "abs", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out.strip().split()
    assert summary[0] == "converged"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "iter,residual_norm"
    # one logged row per iteration plus the initial residual
    assert len(lines) - 2 == int(summary[1]) + 1


def test_solve_minres_indefinite(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = run(["solve", "--problem", "indefinite", "--n", "10",
                "--method", "minres", "--tol", "1e-12", "--tol-kind", "abs",
                "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[1]
    assert header == "iter,residual_norm,quasi_residual"


def test_solve_not_converged_exit_code(tmp_path, capsys):
    code = run(["solve", "--problem", "poisson", "--n", "10", "--method",
                "jacobi", "--tol", "1e-12", "--tol-kind", "abs",
                "--max-iter", "5", "--out", str(tmp_path / "j.csv")])
    assert code == 3


def test_solve_breakdown_exit_code(tmp_path, capsys):
    mtx = tmp_path / "S.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 1\n1 1 1.0\n")
    rhs = tmp_path / "b.mtx"
    rhs.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 1 2\n1 1 1.0\n2 1 1.0\n")
    code = run(["solve", "--matrix", str(mtx), "--rhs", str(rhs),
                "--method", "gmres", "--tol", "1e-8",
                "--out", str(tmp_path / "g.csv")])
    assert code == 4


def test_solve_singular_diagonal_block_exit_code(tmp_path, capsys):
    mtx = tmp_path / "B.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "4 4 8\n1 1 1.0\n1 2 2.0\n2 1 2.0\n2 2 4.0\n"
                   "3 3 3.0\n3 4 1.0\n4 3 1.0\n4 4 3.0\n")
    code = run(["solve", "--matrix", str(mtx), "--method", "block-jacobi",
                "--block-size", "2", "--out", str(tmp_path / "b.csv")])
    assert code == 2
    assert "singular diagonal block 0" in capsys.readouterr().err


def test_solve_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "poisson", "--n", "4",
             "--method", "not-a-method", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_solve_gmres_restart_spelling(tmp_path, capsys):
    code = run(["solve", "--problem", "random", "--n", "30", "--density", "0.2",
                "--method", "gmres,restart=5", "--tol", "1e-8",
                "--tol-kind", "rel_to_b", "--out", str(tmp_path / "g.csv")])
    assert code == 0


def test_solve_bicgstab_history_columns(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["solve", "--problem", "random", "--n", "25", "--density", "0.2",
                "--method", "bicgstab", "--tol", "1e-9", "--tol-kind",
                "rel_to_b", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "iter,residual_norm,half_step"
    assert any(row.split(",")[2] == "1" for row in lines[2:])


def test_solve_chebyshev_requires_interval(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "poisson", "--n", "4", "--method",
             "chebyshev", "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2


def test_solve_precond_variants(tmp_path, capsys):
    for precond in ("jacobi", "ic", "mic", "block", "poly:5"):
        code = run(["solve", "--problem", "poisson", "--n", "6",
                    "--method", "cg", "--precond", precond,
                    "--tol", "1e-8", "--tol-kind", "abs",
                    "--out", str(tmp_path / f"{precond.replace(':', '_')}.csv")])
        assert code == 0, precond


def test_csv_determinism(tmp_path):
    args = ["solve", "--problem", "random", "--n", "30", "--density", "0.15",
            "--seed", "5", "--method", "bicgstab", "--tol", "1e-9",
            "--tol-kind", "rel_to_b"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(p1)]) == 0
    assert run(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "s1.mtx", tmp_path / "s2.mtx"
    assert run(["generate", "--problem", "random", "--n", "12",
                "--density", "0.3", "--seed", "1", "--out", str(out1)]) == 0
    monkeypatch.setenv("KRYLOV_SEED", "1")
    assert run(["generate", "--problem", "random", "--n", "12",
                "--density", "0.3", "--seed", "99", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_spectrum_methods_rows(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--problem", "poisson", "--n", "6",
                "--methods", "jacobi,gauss-seidel", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "method,rho"
    rows = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[2:]}
    assert rows["jacobi"] == pytest.approx(np.cos(np.pi / 7.0), abs=0.01)
    assert rows["gauss-seidel"] == pytest.approx(np.cos(np.pi / 7.0) ** 2, abs=0.01)


def test_spectrum_block_jacobi_row(tmp_path):
    out = tmp_path / "bj.csv"
    assert run(["spectrum", "--problem", "poisson", "--n", "10",
                "--methods", "block-jacobi", "--out", str(out)]) == 0
    rho = float(out.read_text().splitlines()[2].split(",")[1])
    assert rho == pytest.approx(0.92, abs=0.01)


def test_spectrum_ssor_sweep(tmp_path):
    out = tmp_path / "ss.csv"
    assert run(["spectrum", "--problem", "poisson", "--n", "4", "--sweep", "ssor",
                "--omega-min", "0.9", "--omega-max", "1.1", "--omega-step", "0.2",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "omega,rho"
    assert 0.0 < float(lines[2].split(",")[1]) < 1.0


def test_spectrum_sweep_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["spectrum", "--problem", "poisson", "--n", "4", "--sweep", "sor",
                "--omega-min", "0.5", "--omega-max", "0.8", "--omega-step", "0.1",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "omega,rho"
    assert len(lines) == 2 + 4


def test_spectrum_rejects_bad_bounds(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--problem", "poisson", "--n", "4", "--sweep", "sor",
             "--omega-min", "0.5", "--omega-max", "2.5"])
    assert exc.value.code == 2


def test_precond_compare_orders_methods(tmp_path):
    out = tmp_path / "pc.csv"
    assert run(["precond-compare", "--n-list", "10", "--methods", "cg,ic,mic",
                "--tol", "1e-6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,method,iterations"
    counts = {ln.split(",")[1]: int(ln.split(",")[2]) for ln in lines[2:]}
    assert counts["mic"] < counts["ic"] < counts["cg"]


def test_eigs_estimates(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["eigs", "--problem", "poisson", "--n", "20", "--iters", "25",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    values = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[2:]}
    assert values["lambda_min"] == pytest.approx(4.4682e-2, abs=2e-3)
    assert values["lambda_max"] == pytest.approx(7.8636, abs=2e-2)


def test_matrix_file_round_trip_through_solver(tmp_path, capsys):
    mtx = tmp_path / "A.mtx"
    assert run(["generate", "--problem", "poisson", "--n", "5",
                "--out", str(mtx)]) == 0
    capsys.readouterr()
    code = run(["solve", "--matrix", str(mtx), "--rhs",
                str(tmp_path / "A_rhs.mtx"), "--method", "cg", "--band", "5",
                "--precond", "ic", "--tol", "1e-8", "--tol-kind", "abs",
                "--out", str(tmp_path / "h.csv")])
    assert code == 0


def _rhs_file(tmp_path, body):
    path = tmp_path / "r.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
    return path


@pytest.mark.parametrize("body", [
    "4 1 1\n0 1 2.0\n",          # index 0 (the file is 1-based)
    "4 1 1\n5 1 2.0\n",          # index past n
    "4 1 3\n1 1 2.0\n",          # fewer entries than announced
], ids=["index-zero", "index-past-n", "missing-entries"])
def test_solve_rejects_bad_rhs_file(tmp_path, capsys, body):
    mtx = tmp_path / "A.mtx"
    assert run(["generate", "--problem", "poisson", "--n", "2", "--out", str(mtx)]) == 0
    code = run(["solve", "--matrix", str(mtx), "--rhs", str(_rhs_file(tmp_path, body)),
                "--method", "cg", "--out", str(tmp_path / "h.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--method", "gmres,restart=0"],
    ["--method", "sor"],                                   # no --omega
    ["--method", "block-jacobi", "--block-size", "3"],     # 3 does not divide 16
], ids=["gmres-restart-0", "sor-without-omega", "block-size-not-dividing"])
def test_solve_usage_value_error_exit_code(tmp_path, capsys, extra):
    code = run(["solve", "--problem", "poisson", "--n", "4", *extra,
                "--out", str(tmp_path / "u.csv")])
    assert code == 2


def test_solve_ic_pivot_breakdown_exit_code(tmp_path, capsys):
    # the indefinite Kronecker sum has the IC pattern but meets a
    # nonpositive pivot while being factored
    code = run(["solve", "--problem", "indefinite", "--n", "6", "--method", "cg",
                "--precond", "ic", "--out", str(tmp_path / "i.csv")])
    assert code == 4
    assert "ic-pivot" in capsys.readouterr().err


def test_missing_matrix_file_exit_code(tmp_path, capsys):
    code = run(["solve", "--matrix", str(tmp_path / "absent.mtx"), "--method", "cg",
                "--out", str(tmp_path / "h.csv")])
    assert code == 2
    assert "absent.mtx" in capsys.readouterr().err


def test_eigs_clamps_iterations_to_the_size(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["eigs", "--problem", "poisson", "--n", "3", "--iters", "50",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# command=eigs problem=poisson(N=3) iters=50"
    lam = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[2:]}
    exact = 4.0 * np.sin(np.pi * np.array([1, 3]) / 8.0) ** 2  # extremes of the N=3 Laplacian
    assert lam["lambda_min"] == pytest.approx(2 * exact[0], abs=1e-8)
    assert lam["lambda_max"] == pytest.approx(2 * exact[1], abs=1e-8)
