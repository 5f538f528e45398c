"""MINRES on a symmetric indefinite system.

CG needs positive definiteness; when the spectrum straddles zero its
implicit LU of the tridiagonal projection can fail even though the matrix
is nonsingular.  MINRES minimizes the residual instead and only needs
symmetry.  The test matrix is a Kronecker sum whose eigenvalues fill both
half-axes; the right-hand side makes the exact solution the ones vector.
"""

import numpy as np

import krylov as K

inst = K.indefinite_kron(10)
dense = K.to_dense(inst.a)
ev = np.linalg.eigvalsh(dense)
print(f"n = {inst.n}, eigenvalues in [{ev.min():.3f}, {ev.max():.3f}], "
      f"{int((ev < 0).sum())} negative")

# the solver records only |g_i|; the true residual is the caller's to compute
true = []
rep = K.minres(inst.a, inst.b, tol=1e-12, tol_kind="abs", max_iter=100,
               callback=lambda e: true.append(np.linalg.norm(inst.b - inst.a.matvec(e["x"]))))
true.insert(0, rep.history[0])
err = np.abs(rep.x - inst.x_true).max()
print(f"MINRES: {rep.status} in {rep.iterations} iterations, "
      f"||r|| = {rep.final_residual:.2e}, max |x - x*| = {err:.2e}")

print("\nresidual norms |g_i| delivered by the rotation cascade vs recomputed:")
for i in range(0, rep.iterations + 1, 4):
    print(f"  i={i:>2}:  |g| = {rep.history[i]:.3e}   true = {true[i]:.3e}")

rep_deep = K.minres(inst.a, inst.b, tol=0.0, tol_kind="abs", max_iter=60)
floor = next(i for i, g in enumerate(rep_deep.history) if g <= 1e-15)
print(f"\ndriven to machine precision the run needs {floor} iterations;")
print("the stretch beyond the first sharp drop is the finite-arithmetic")
print("ghost-eigenvalue regime typical of Lanczos without reorthogonalization.")
