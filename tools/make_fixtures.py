"""Generate the bundled FCIDUMP fixtures from scratch.

Minimal restricted-Hartree-Fock pipeline over contracted Cartesian
Gaussians (s and p shells only), using the McMurchie-Davidson scheme for
one- and two-electron integrals.  Molecular-orbital integrals are dumped
in FCIDUMP format with the full-CI reference energy recorded in a
comment.  This script is a development tool, not part of the package;
its output ships in src/fermiqc/fixtures/.

Sanity targets (literature values, Hartree):
  H2/STO-3G  @ 0.7414 A: FCI ~ -1.13727
  H2/6-31G   @ 0.7414 A: FCI ~ -1.15162
  LiH/STO-3G @ 1.5949 A: FCI ~ -7.88237
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import hyp1f1

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fermiqc.fermion import IntegralSet, build_hamiltonian, write_fcidump
from fermiqc.mappings import MappingScheme, map_operator
from fermiqc.simulator import operator_matrix

ANGSTROM = 1.8897259886

STO3G_H = [("s", [3.42525091, 0.62391373, 0.16885540],
            [0.15432897, 0.53532814, 0.44463454])]
STO3G_LI = [
    ("s", [16.1195750, 2.9362007, 0.7946505],
     [0.15432897, 0.53532814, 0.44463454]),
    ("s", [0.6362897, 0.1478601, 0.0480887],
     [-0.09996723, 0.39951283, 0.70011547]),
    ("p", [0.6362897, 0.1478601, 0.0480887],
     [0.15591627, 0.60768372, 0.39195739]),
]
G631_H = [
    ("s", [18.7311370, 2.8253937, 0.6401217],
     [0.03349460, 0.23472695, 0.81375733]),
    ("s", [0.1612778], [1.0]),
]


@dataclass
class Primitive:
    exp: float
    coeff: float


@dataclass
class BasisFunction:
    center: np.ndarray
    lmn: tuple[int, int, int]
    prims: list[Primitive]


def _prim_norm(a: float, lmn) -> float:
    l, m, n = lmn

    def dfact(k):
        return 1 if k <= 0 else math.prod(range(k, 0, -2))

    num = (2 * a / math.pi) ** 0.75 * (4 * a) ** ((l + m + n) / 2)
    den = math.sqrt(dfact(2 * l - 1) * dfact(2 * m - 1) * dfact(2 * n - 1))
    return num / den


def build_basis(atoms: list[tuple[str, np.ndarray, list]]) -> list[BasisFunction]:
    funcs = []
    for _, center, shells in atoms:
        for kind, exps, coeffs in shells:
            lmns = [(0, 0, 0)] if kind == "s" else [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            for lmn in lmns:
                prims = [Primitive(a, c * _prim_norm(a, lmn))
                         for a, c in zip(exps, coeffs)]
                funcs.append(BasisFunction(np.asarray(center, float), lmn, prims))
    # Normalize each contracted function.
    for f in funcs:
        s = _contracted_overlap(f, f)
        for p in f.prims:
            p.coeff /= math.sqrt(s)
    return funcs


def E(i, j, t, Q, a, b):
    """Hermite expansion coefficient for a 1D Gaussian product."""
    p = a + b
    q = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return math.exp(-q * Q * Q)
    if j == 0:
        return (E(i - 1, j, t - 1, Q, a, b) / (2 * p)
                - q * Q / a * E(i - 1, j, t, Q, a, b)
                + (t + 1) * E(i - 1, j, t + 1, Q, a, b))
    return (E(i, j - 1, t - 1, Q, a, b) / (2 * p)
            + q * Q / b * E(i, j - 1, t, Q, a, b)
            + (t + 1) * E(i, j - 1, t + 1, Q, a, b))


def _prim_overlap(a, lmn1, A, b, lmn2, B):
    p = a + b
    s = 1.0
    for d in range(3):
        s *= E(lmn1[d], lmn2[d], 0, A[d] - B[d], a, b)
    return s * (math.pi / p) ** 1.5


def _contracted_overlap(f1: BasisFunction, f2: BasisFunction) -> float:
    return sum(p1.coeff * p2.coeff
               * _prim_overlap(p1.exp, f1.lmn, f1.center, p2.exp, f2.lmn, f2.center)
               for p1 in f1.prims for p2 in f2.prims)


def _prim_kinetic(a, lmn1, A, b, lmn2, B):
    l2, m2, n2 = lmn2

    def ov(lmn):
        return _prim_overlap(a, lmn1, A, b, lmn, B)

    term0 = b * (2 * (l2 + m2 + n2) + 3) * ov(lmn2)
    term1 = -2 * b * b * (ov((l2 + 2, m2, n2)) + ov((l2, m2 + 2, n2))
                          + ov((l2, m2, n2 + 2)))
    term2 = -0.5 * (l2 * (l2 - 1) * ov((l2 - 2, m2, n2))
                    + m2 * (m2 - 1) * ov((l2, m2 - 2, n2))
                    + n2 * (n2 - 1) * ov((l2, m2, n2 - 2)))
    return term0 + term1 + term2


def boys(n, x):
    return hyp1f1(n + 0.5, n + 1.5, -x) / (2 * n + 1)


def R(t, u, v, n, p, PC):
    """Hermite Coulomb auxiliary integral."""
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t == u == v == 0:
        return (-2 * p) ** n * boys(n, p * float(PC @ PC))
    if t > 0:
        return (t - 1) * R(t - 2, u, v, n + 1, p, PC) + PC[0] * R(t - 1, u, v, n + 1, p, PC)
    if u > 0:
        return (u - 1) * R(t, u - 2, v, n + 1, p, PC) + PC[1] * R(t, u - 1, v, n + 1, p, PC)
    return (v - 1) * R(t, u, v - 2, n + 1, p, PC) + PC[2] * R(t, u, v - 1, n + 1, p, PC)


def _prim_nuclear(a, lmn1, A, b, lmn2, B, C):
    p = a + b
    P = (a * A + b * B) / p
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                coef = (E(lmn1[0], lmn2[0], t, A[0] - B[0], a, b)
                        * E(lmn1[1], lmn2[1], u, A[1] - B[1], a, b)
                        * E(lmn1[2], lmn2[2], v, A[2] - B[2], a, b))
                if coef:
                    val += coef * R(t, u, v, 0, p, P - C)
    return 2 * math.pi / p * val


def _prim_eri(a, la, A, b, lb, B, c, lc, C, d, ld, D):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    P = (a * A + b * B) / p
    Q = (c * C + d * D) / q
    val = 0.0
    for t in range(la[0] + lb[0] + 1):
        for u in range(la[1] + lb[1] + 1):
            for v in range(la[2] + lb[2] + 1):
                c1 = (E(la[0], lb[0], t, A[0] - B[0], a, b)
                      * E(la[1], lb[1], u, A[1] - B[1], a, b)
                      * E(la[2], lb[2], v, A[2] - B[2], a, b))
                if not c1:
                    continue
                for tau in range(lc[0] + ld[0] + 1):
                    for nu in range(lc[1] + ld[1] + 1):
                        for phi in range(lc[2] + ld[2] + 1):
                            c2 = (E(lc[0], ld[0], tau, C[0] - D[0], c, d)
                                  * E(lc[1], ld[1], nu, C[1] - D[1], c, d)
                                  * E(lc[2], ld[2], phi, C[2] - D[2], c, d))
                            if not c2:
                                continue
                            val += (c1 * c2 * (-1) ** (tau + nu + phi)
                                    * R(t + tau, u + nu, v + phi, 0, alpha, P - Q))
    return val * 2 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))


def integrals(funcs, charges, centers):
    n = len(funcs)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for i, fi in enumerate(funcs):
        for j, fj in enumerate(funcs):
            if j > i:
                continue
            s = t = v = 0.0
            for p1 in fi.prims:
                for p2 in fj.prims:
                    cc = p1.coeff * p2.coeff
                    s += cc * _prim_overlap(p1.exp, fi.lmn, fi.center, p2.exp, fj.lmn, fj.center)
                    t += cc * _prim_kinetic(p1.exp, fi.lmn, fi.center, p2.exp, fj.lmn, fj.center)
                    for Z, C in zip(charges, centers):
                        v -= Z * cc * _prim_nuclear(p1.exp, fi.lmn, fi.center,
                                                    p2.exp, fj.lmn, fj.center, C)
            S[i, j] = S[j, i] = s
            T[i, j] = T[j, i] = t
            V[i, j] = V[j, i] = v
    eri = np.zeros((n, n, n, n))
    done = {}
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    val = 0.0
                    for p1 in funcs[i].prims:
                        for p2 in funcs[j].prims:
                            for p3 in funcs[k].prims:
                                for p4 in funcs[l].prims:
                                    val += (p1.coeff * p2.coeff * p3.coeff * p4.coeff
                                            * _prim_eri(p1.exp, funcs[i].lmn, funcs[i].center,
                                                        p2.exp, funcs[j].lmn, funcs[j].center,
                                                        p3.exp, funcs[k].lmn, funcs[k].center,
                                                        p4.exp, funcs[l].lmn, funcs[l].center))
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k, l), (l, k)):
                            eri[a, b, c, d] = eri[c, d, a, b] = val
    return S, T, V, eri


def rhf(S, Hcore, eri, n_elec, max_iter=200, tol=1e-12):
    n = S.shape[0]
    evals, evecs = np.linalg.eigh(S)
    X = evecs @ np.diag(evals ** -0.5) @ evecs.T
    D = np.zeros((n, n))
    nocc = n_elec // 2
    E_old = 0.0
    for _ in range(max_iter):
        J = np.einsum("pqrs,rs->pq", eri, D)
        K = np.einsum("prqs,rs->pq", eri, D)
        F = Hcore + 2 * J - K
        Fp = X.T @ F @ X
        _, Cp = np.linalg.eigh(Fp)
        C = X @ Cp
        D = C[:, :nocc] @ C[:, :nocc].T
        E = np.sum(D * (Hcore + F))
        if abs(E - E_old) < tol:
            break
        E_old = E
    return E, C


def fci_energy(ints: IntegralSet) -> tuple[float, float]:
    """(global Fock-space minimum, minimum in the n_electron sector)."""
    ham = build_hamiltonian(ints)
    m = operator_matrix(map_operator(ham, MappingScheme.JORDAN_WIGNER))
    dense = m.toarray().real
    vals = np.linalg.eigvalsh(dense)
    dim = m.shape[0]
    sector = [s for s in range(dim) if bin(s).count("1") == ints.n_electrons]
    sub = dense[np.ix_(sector, sector)]
    return float(vals[0]), float(np.linalg.eigvalsh(sub)[0])


def make(name, atoms, charges, n_elec, out_dir):
    centers = [np.asarray(c, float) for _, c, _ in atoms]
    funcs = build_basis(atoms)
    S, T, V, eri = integrals(funcs, charges, centers)
    e_nuc = 0.0
    for i in range(len(charges)):
        for j in range(i):
            e_nuc += charges[i] * charges[j] / np.linalg.norm(centers[i] - centers[j])
    E_el, C = rhf(S, T + V, eri, n_elec)
    print(f"{name}: RHF total = {E_el + e_nuc:.8f}")
    h_mo = C.T @ (T + V) @ C
    eri_mo = np.einsum("pi,qj,rk,sl,pqrs->ijkl", C, C, C, C, eri, optimize=True)
    ints = IntegralSet(len(funcs), n_elec, h_mo, eri_mo, core_energy=e_nuc)
    ints.validate()
    e_global, e_sector = fci_energy(ints)
    print(f"{name}: FCI (sector) = {e_sector:.8f}  FCI (global) = {e_global:.8f}")
    if abs(e_global - e_sector) > 1e-9:
        raise RuntimeError(f"{name}: Fock-space minimum leaves the physical sector")
    text = write_fcidump(ints, comments=[
        f"{name} molecular-orbital integrals (Hartree)",
        f"fci_energy = {e_sector:.12f}",
    ])
    path = Path(out_dir) / f"{name}.fcidump"
    path.write_text(text)
    print(f"wrote {path}")


def main():
    out = Path(__file__).resolve().parents[1] / "src" / "fermiqc" / "fixtures"
    r_h2 = 0.7414 * ANGSTROM
    r_lih = 1.5949 * ANGSTROM
    make("h2_sto3g",
         [("H", [0, 0, 0], STO3G_H), ("H", [0, 0, r_h2], STO3G_H)],
         [1.0, 1.0], 2, out)
    make("h2_631g",
         [("H", [0, 0, 0], G631_H), ("H", [0, 0, r_h2], G631_H)],
         [1.0, 1.0], 2, out)
    make("lih_sto3g",
         [("Li", [0, 0, 0], STO3G_LI), ("H", [0, 0, r_lih], STO3G_H)],
         [3.0, 1.0], 4, out)


if __name__ == "__main__":
    main()
