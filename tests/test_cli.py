import pathlib
import re
import shlex

import numpy as np
import pytest

from krylov import cli, stationary, storage
from krylov.cli import main
from krylov.precond import apply_ic_solve, mic_pentadiagonal, pcg
from krylov.problems import cavity_laplace, indefinite_kron, poisson_test, random_sparse
from krylov.storage import DiagCompressed, build, read_matrix_market, to_triplets


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


def test_generate_cavity_prints_dominant_rows(tmp_path, capsys):
    assert run(["generate", "--problem", "cavity", "--n", "20", "--delta", "0.3",
                "--out", str(tmp_path / "C.mtx")]) == 0
    assert "diag_dominant_rows=True" in capsys.readouterr().out.splitlines()


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


def _overflowing_files(tmp_path):
    mtx = tmp_path / "O.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "4 4 6\n1 1 1e-200\n2 2 1e-200\n3 3 1e-200\n4 4 1e-200\n"
                   "3 1 1e200\n4 2 1e200\n")
    rhs = tmp_path / "b.mtx"
    rhs.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "4 1 4\n1 1 1.0\n2 1 1.0\n3 1 1.0\n4 1 1.0\n")
    return ["--matrix", str(mtx), "--rhs", str(rhs), "--out", str(tmp_path / "o.csv")]


def test_solve_overflowing_block_sweep_exit_code(tmp_path, capsys):
    code = run(["solve", *_overflowing_files(tmp_path), "--method", "block-gs",
                "--block-size", "2"])
    assert code == 4
    assert capsys.readouterr().out.split()[-4:-2] == ["breakdown(non-finite)", "1"]


def test_solve_overflowing_chebyshev_exit_code(tmp_path, capsys):
    code = run(["solve", *_overflowing_files(tmp_path), "--method", "chebyshev",
                "--base", "gauss-seidel", "--alpha", "-0.9", "--beta", "0.9"])
    assert code == 4
    out, err = capsys.readouterr()
    assert out.split()[-4:-2] == ["breakdown(non-finite)", "1"]
    # the matrix is not symmetric: that warning, and no floating-point one
    assert err == "warning: method chebyshev assumes a symmetric matrix\n"


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


def test_ic_band_is_that_of_the_outermost_entry(tmp_path):
    # cavity(N) is a five-point N x N grid: the outermost entries sit N off the diagonal
    out = tmp_path / "m.csv"
    assert run(["solve", "--problem", "cavity", "--n", "6", "--method", "cg",
                "--precond", "mic", "--out", str(out)]) == 0
    inst = cavity_laplace(6, 0.3)
    factors = mic_pentadiagonal(inst.a, 6)
    want = pcg(inst.a, inst.b, lambda r: apply_ic_solve(factors, r), tol=1e-6,
               tol_kind="rel_to_r0").history
    assert [float(row.split(",")[1]) for row in out.read_text().splitlines()[2:]] == want


@pytest.mark.parametrize("problem,method,warns", [
    (["poisson", "--n", "6"], "cg", False),
    (["random", "--n", "30", "--density", "0.2"], "minres", True),
    (["random", "--n", "30", "--density", "0.2"], "bicgstab", False),
])
def test_symmetric_methods_warn_on_a_nonsymmetric_matrix(tmp_path, capsys, problem, method,
                                                         warns):
    run(["solve", "--problem", *problem, "--method", method, "--max-iter", "3",
         "--out", str(tmp_path / "w.csv")])
    assert ("assumes a symmetric matrix" in capsys.readouterr().err) == warns


def test_csv_determinism(tmp_path):
    args = ["solve", "--problem", "random", "--n", "30", "--density", "0.15",
            "--seed", "5", "--method", "bicgstab", "--tol", "1e-9",
            "--tol-kind", "rel_to_b"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(p1)]) == 0
    assert run(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("problem", [["--problem", "poisson"],
                                     ["--problem", "random", "--density", "0.3", "--seed", "7"]],
                         ids=["poisson", "random"])
def test_seed_comes_from_the_command_line_only(tmp_path, monkeypatch, problem):
    args = ["generate", *problem, "--n", "12"]
    out1, out2 = tmp_path / "s1.mtx", tmp_path / "s2.mtx"
    assert run(args + ["--out", str(out1)]) == 0
    monkeypatch.setenv("KRYLOV_SEED", "abc")
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def test_spectrum_methods_take_ssor(tmp_path):
    out = tmp_path / "js.csv"
    assert run(["spectrum", "--problem", "poisson", "--n", "10", "--methods", "jacobi,ssor",
                "--omega", "1.2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["method", "jacobi", "ssor"]
    assert 0.0 < float(lines[3].split(",")[1]) < float(lines[2].split(",")[1]) < 1.0


def test_chebyshev_on_an_ssor_base_converges(tmp_path, capsys):
    # SSOR's iteration matrix has its spectrum in [0, rho), rho(N=10, omega=1) < 0.86
    code = run(["solve", "--problem", "poisson", "--n", "10", "--method", "chebyshev",
                "--base", "ssor", "--omega", "1.0", "--alpha", "0", "--beta", "0.86",
                "--out", str(tmp_path / "c.csv")])
    assert code == 0
    assert capsys.readouterr().out.startswith("converged ")


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


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
def test_spectrum_rejects_a_step_that_is_not_positive_and_finite(tmp_path, monkeypatch, step):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started")
    monkeypatch.setattr(stationary, "iteration_matrix_applier", no_work)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--problem", "poisson", "--n", "4", "--sweep", "sor",
             "--omega-step", step, "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()


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
                str(tmp_path / "A_rhs.mtx"), "--method", "cg",
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
    ["--method", "gmres,foo=3"],                           # restart is gmres's one option
    ["--method", "cg,restart=5"],                          # only gmres takes an option
    ["--method", "sor"],                                   # no --omega
    ["--method", "block-jacobi", "--block-size", "3"],     # 3 does not divide 16
    # --precond reaches cg and the nonsymmetric Krylov methods only
    ["--method", "jacobi", "--precond", "jacobi"],
    ["--method", "sor", "--omega", "1.2", "--precond", "mic"],
    ["--method", "chebyshev", "--alpha", "-0.9", "--beta", "0.9", "--precond", "block"],
    ["--method", "minres", "--precond", "jacobi"],
    ["--method", "cg-basic", "--precond", "ic"],
    ["--method", "gmres", "--precond", "poly:5"],          # poly:m reaches cg only
    ["--method", "bicgstab", "--precond", "poly:3"],
], ids=["gmres-restart-0", "gmres-unknown-option", "cg-with-option", "sor-without-omega",
        "block-size-not-dividing", "precond-jacobi-on-jacobi", "precond-mic-on-sor",
        "precond-block-on-chebyshev", "precond-on-minres", "precond-on-cg-basic",
        "poly-on-gmres", "poly-on-bicgstab"])
def test_solve_usage_value_error_exit_code(tmp_path, capsys, extra):
    code = run(["solve", "--problem", "poisson", "--n", "4", *extra,
                "--out", str(tmp_path / "u.csv")])
    assert code == 2
    if "--precond" in extra:
        method = extra[extra.index("--method") + 1]
        assert f"method {method} does not apply --precond" in capsys.readouterr().err


@pytest.mark.parametrize("extra,message", [
    (["--max-iter", "-1"], "max_iter must be nonnegative, got -1"),
    (["--tol", "-1"], "tol must be nonnegative, got -1.0"),
    (["--tol", "nan"], "tol must be nonnegative, got nan"),
], ids=["max-iter", "negative-tol", "nan-tol"])
@pytest.mark.parametrize("method", ["cg", "gmres", "jacobi"])
def test_solve_rejects_a_bad_cap_or_tolerance(tmp_path, capsys, extra, message, method):
    out = tmp_path / "u.csv"
    code = run(["solve", "--problem", "poisson", "--n", "4", "--method", method, *extra,
                "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()


def test_precond_is_not_built_for_a_method_that_does_not_apply_it(tmp_path, capsys):
    # random's pattern is not pentadiagonal: building IC would fail with that error
    code = run(["solve", "--problem", "random", "--n", "50", "--method", "jacobi",
                "--precond", "ic", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: method jacobi does not apply --precond ic\n"


@pytest.mark.parametrize("problem", [["hilbert", "--n", "8"], ["random", "--n", "50"]],
                         ids=["hilbert", "random"])
@pytest.mark.parametrize("precond", ["ic", "mic"])
def test_ic_rejects_a_matrix_off_the_pentadiagonal_pattern(tmp_path, capsys, problem, precond):
    # the band offset is read from the outermost entry; the other entries
    # must then lie on the five diagonals it allows
    code = run(["solve", "--problem", *problem, "--method", "cg",
                "--precond", precond, "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "pentadiagonal" in capsys.readouterr().err


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


def readme_commands():
    """The ``krylov ...`` lines of README's sh blocks, in order, continuations joined."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("krylov ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == 0, argv


def _diag(n, offsets, columns):
    vals = np.zeros((n, len(offsets)))
    for r, col in enumerate(columns):
        vals[:, r] = col
    return DiagCompressed(n, len(offsets), vals, np.array(offsets))


_N = 36
_OPERANDS = {
    "poisson": poisson_test(6).a,
    "cavity": cavity_laplace(9, 0.3).a,
    "cavity-narrow": cavity_laplace(10, 0.15).a,
    "indefinite": indefinite_kron(5).a,
    "random": random_sparse(40, 0.1, seed=3).a,
    "poisson-row": build(to_triplets(poisson_test(6).a), "row"),
    # stored all-zero outermost diagonals, one of -0.0: the band is 6
    "zero-outer": _diag(_N, [-35, -6, -1, 0, 1, 6, 35], [0.0, -1.0, -1.0, 4.0, -1.0, -1.0, -0.0]),
    "one-sided": _diag(_N, [-1, 0, 2], [-1.0, 4.0, 0.5]),
    "one-entry-off": _diag(_N, [-1, 0, 1], [-1.0, 4.0, np.where(np.arange(_N) == 7, -2.0, -1.0)]),
    "main-only": _diag(_N, [0, 3], [2.0, 0.0]),
    "zero": _diag(_N, [-2, 0], [0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(_OPERANDS))
def test_band_and_symmetry_of_an_operand_match_its_triplets(name, monkeypatch):
    a = _OPERANDS[name]
    t = to_triplets(a)
    band = max(1, int(np.max(np.abs(t.cols - t.rows), initial=0)))
    symmetric = stationary._is_symmetric(t.coalesced())
    built = []
    monkeypatch.setattr(storage, "to_triplets", lambda op: built.append(op) or to_triplets(op))
    assert (cli._band(a), cli._symmetric(a)) == (band, symmetric)
    assert bool(built) != isinstance(a, DiagCompressed)  # a diag operand is read in place
    assert (name in ("random", "one-sided", "one-entry-off")) != symmetric


def test_a_diag_operand_with_a_non_finite_entry_raises_as_its_triplets_do():
    a = _diag(_N, [-1, 0, 1], [-1.0, np.where(np.arange(_N) == 3, np.nan, 4.0), -1.0])
    for f in (cli._band, cli._symmetric, to_triplets):
        with pytest.raises(ValueError, match="non-finite triplet value"):
            f(a)
