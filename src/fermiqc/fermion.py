"""Second-quantized Hamiltonians: FCIDUMP I/O and the spin-orbital operator.

Conventions fixed here (they matter for every downstream comparison):
- spin-orbital index = 2*spatial + spin, spin 0 = alpha, 1 = beta;
- two-electron integrals are chemists' (pq|rs) with 8-fold symmetry;
- occupation-number basis states index the Fock space with bit j of the
  basis index holding the occupation of mode j.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

SYMMETRY_TOL = 1e-10


@dataclass
class IntegralSet:
    """One- and two-electron integrals over spatial orbitals, in Hartree."""

    n_spatial: int
    n_electrons: int
    one_body: np.ndarray          # (n, n), symmetric
    two_body: np.ndarray          # (n, n, n, n) chemists' (pq|rs), 8-fold symmetric
    core_energy: float = 0.0
    ms2: int = 0

    def validate(self, tol: float = SYMMETRY_TOL) -> None:
        h, g = self.one_body, self.two_body
        if np.max(np.abs(h - h.T)) > tol:
            raise ValueError("one-body integrals are not symmetric")
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            if np.max(np.abs(g - g.transpose(perm))) > tol:
                raise ValueError("two-body integrals lack 8-fold symmetry")


class FermionOperator:
    """Sum of ladder-operator products, held as arrays (see ``arrays``);
    nothing edits them after construction.  A product's factors are
    (mode, dagger) pairs, the rightmost acting first.  A product flagged
    "plus its adjoint" stands for itself plus its Hermitian conjugate; only
    products a+...a+ a...a with as many creators as annihilators carry the
    flag."""

    def __init__(self, n_modes: int, constant: float, arrays: tuple):
        modes = arrays[2]
        bad = modes[(modes < 0) | (modes >= n_modes)]
        if len(bad):
            raise ValueError(f"mode {bad[0]} outside register of size {n_modes}")
        self.n_modes, self.constant, self._arrays = n_modes, constant, arrays

    @classmethod
    def from_products(cls, n_modes: int, products: list[tuple],
                      constant: float = 0.0) -> "FermionOperator":
        """The operator of (coefficient, ((mode, dagger), ...)) pairs, in
        order, none flagged "plus its adjoint"."""
        factors = [f for _, f in products]
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(factors)), np.int64)
        return cls(n_modes, constant, (np.array([c for c, _ in products], dtype=complex),
                                       np.fromiter(map(len, factors), np.int64, len(factors)),
                                       flat[0::2], flat[1::2].astype(bool),
                                       np.zeros(len(factors), dtype=bool)))

    @property
    def products(self) -> tuple[tuple[complex, tuple[tuple[int, bool], ...]], ...]:
        """The whole operator as (coefficient, factors) pairs, built from the
        arrays on each call.  A flagged product is followed by its adjoint:
        the conjugate coefficient and the two halves of its factors swapped,
        daggers flipped (a+_k a+_l a_i a_j for a+_i a+_j a_k a_l)."""
        coeffs, lengths, modes, dagger, adjoint = self._arrays
        shared = [(m, d) for m in range(self.n_modes) for d in (False, True)]
        flipped = [(m, not d) for m, d in shared]
        codes = (2 * modes + dagger).tolist()  # index into shared
        out, start = [], 0
        for c, k, adj in zip(coeffs.tolist(), lengths.tolist(), adjoint.tolist()):
            f, start = codes[start:start + k], start + k
            out.append((c, tuple(map(shared.__getitem__, f))))
            if adj:
                swapped = f[k // 2:] + f[:k // 2]
                out.append((c.conjugate(), tuple(map(flipped.__getitem__, swapped))))
        return tuple(out)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(coefficients, factor counts, modes, dagger flags, "plus its
        adjoint" flags): one coefficient, count and flag per stored product,
        then one mode and dagger flag per factor of all products in order."""
        return self._arrays


_HEADER_RE = re.compile(r"&FCI(.*)", re.IGNORECASE | re.DOTALL)
_END_RE = re.compile(r"&END|(?<!\S)/", re.IGNORECASE)
_KEY_RE = re.compile(r"(\w+)\s*=\s*([-\d,\s]+?)(?=(?:\w+\s*=)|$)")


def _unique_quartets(n: int):
    """One (p, q, r, s) per 8-fold symmetry class of (pq|rs), in FCIDUMP order."""
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                for s in range((q if r == p else r) + 1):
                    yield p, q, r, s


def _fill_8fold(g: np.ndarray, p: int, q: int, r: int, s: int, v: float) -> None:
    """Set the eight symmetric images of (pq|rs) to v."""
    for a, b in ((p, q), (q, p)):
        for c, d in ((r, s), (s, r)):
            g[a, b, c, d] = g[c, d, a, b] = v


def _header_int(keys: dict[str, str], key: str) -> int:
    if key not in keys:
        raise ValueError(f"header missing {key}")
    value = keys[key].split(",")[0]
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def fcidump_header(lines: list[str]) -> tuple[int, int, int, int]:
    """NORB, NELEC and MS2 of the &FCI header of FCIDUMP text's lines, and
    the index of the first line after it.  The header ends at ``&END`` or
    a ``/`` that starts a word; its errors name its first line that is
    neither blank nor a comment.  No integral array is made, so a caller
    can check NORB against a limit first."""
    start = next((i for i, line in enumerate(lines)
                  if line.strip() and not line.lstrip().startswith("#")), 0)
    try:
        for end in range(start, len(lines)):
            if not lines[end].lstrip().startswith("#") and _END_RE.search(lines[end]):
                break
        else:
            raise ValueError("missing &END terminator in header")
        m = _HEADER_RE.search(" ".join(line for line in lines[start:end + 1]
                                       if not line.lstrip().startswith("#")))
        if m is None:
            raise ValueError("missing &FCI header")
        keys = {"MS2": "0"}
        for key, val in _KEY_RE.findall(_END_RE.split(m.group(1))[0]):
            keys[key.upper()] = val
        norb, nelec, ms2 = (_header_int(keys, key) for key in ("NORB", "NELEC", "MS2"))
        if norb < 1:
            raise ValueError(f"NORB must be at least 1, got {norb}")
    except ValueError as exc:
        raise ValueError(f"line {start + 1}: {exc}") from None
    return norb, nelec, ms2, end + 1


def parse_fcidump(text: str) -> IntegralSet:
    """Read FCIDUMP text into an :class:`IntegralSet`; errors name the line.

    Stored unique elements are expanded to the full symmetric arrays.
    """
    lines = text.splitlines()
    norb, nelec, ms2, body_start = fcidump_header(lines)
    h = np.zeros((norb, norb))
    g = np.zeros((norb, norb, norb, norb))
    core = 0.0

    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        fields = line.split()
        if not fields or line.lstrip().startswith("#"):
            continue
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 'value i j k l', got {line!r}")
        try:
            val = float(fields[0])
            i, j, k, l = (int(f) for f in fields[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: unparsable row {line!r}") from None
        if not abs(val) < np.inf:  # also false for nan
            raise ValueError(f"line {lineno}: value {fields[0]!r} is not finite")
        if i == j == k == l == 0:
            core = val
            continue
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise ValueError(f"line {lineno}: orbital index {idx} out of range 1..{norb}")
        if k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ValueError(f"line {lineno}: bad one-body indices in {line!r}")
            h[i - 1, j - 1] = h[j - 1, i - 1] = val
        else:
            if 0 in (i, j, k, l):
                raise ValueError(f"line {lineno}: bad two-body indices in {line!r}")
            _fill_8fold(g, i - 1, j - 1, k - 1, l - 1, val)

    return IntegralSet(norb, nelec, h, g, core, ms2)


def write_fcidump(ints: IntegralSet, comments: list[str] | None = None) -> str:
    """Serialize unique integral elements in FCIDUMP format.

    Leading ``#`` comment lines are non-standard but accepted by our reader;
    fixture files use them to record their reference FCI energy.
    """
    n = ints.n_spatial
    buf = [f"# {c}" for c in comments or []]
    buf.append(f"&FCI NORB={n},NELEC={ints.n_electrons},MS2={ints.ms2},")
    buf.append(" ORBSYM=" + "1," * n)
    buf.append(" ISYM=1,")
    buf.append("&END")
    for p, q, r, s in _unique_quartets(n):
        v = ints.two_body[p, q, r, s]
        if v != 0.0:
            buf.append(f"{v: .16e} {p+1:3d} {q+1:3d} {r+1:3d} {s+1:3d}")
    for p in range(n):
        for q in range(p + 1):
            v = ints.one_body[p, q]
            if v != 0.0:
                buf.append(f"{v: .16e} {p+1:3d} {q+1:3d}   0   0")
    buf.append(f"{ints.core_energy: .16e}   0   0   0   0")
    return "\n".join(buf) + "\n"


def build_hamiltonian(ints: IntegralSet) -> FermionOperator:
    """Spin-orbital Hamiltonian over 2*n_spatial modes, built as arrays.

    One-body: sum_pq h_pq a+_{p,s} a_{q,s}, per nonzero h_pq with p <= q in
    row-major order, then per spin.  Two-body: each normal-ordered excitation
    a+_i a+_j a_k a_l (i > j, k > l, pairs in ``np.tril_indices`` order,
    (i, j) no later than (k, l)) once, with coefficient
    (il|jk)[s_i=s_l][s_j=s_k] - (ik|jl)[s_i=s_k][s_j=s_l] from chemists'
    integrals at the spatial indices; zeros are left out.  The integrals'
    symmetry makes the operator Hermitian, so the product of p > q, or of
    (i, j) later than (k, l), is the adjoint of one kept here: a product
    with p != q or (i, j) != (k, l) is flagged "plus its adjoint" in its
    place, and a self-adjoint one is not.
    """
    h, g = ints.one_body, ints.two_body
    spin, nz = np.arange(2), np.nonzero(np.triu(h))
    one = np.stack([2 * a[:, None] + spin for a in nz], -1).reshape(-1, 2)  # (a+_i, a_l)
    pairs = np.stack(np.tril_indices(2 * ints.n_spatial, -1))  # (i, j), i > j
    (i, j), (si, sj) = np.divmod(pairs[:, :, None], 2)  # spatial index, spin down the rows
    (k, l), (sk, sl) = np.divmod(pairs, 2)  # and along the columns
    coeff = (np.where((si == sl) & (sj == sk), g[i, l, j, k], 0.0)
             - np.where((si == sk) & (sj == sl), g[i, k, j, l], 0.0))
    row, col = np.nonzero(np.triu(coeff))
    two = np.concatenate((pairs[:, row], pairs[:, col])).T  # (a+_i, a+_j, a_k, a_l)
    return FermionOperator(2 * ints.n_spatial, ints.core_energy, (
        np.concatenate((np.repeat(h[nz], 2), coeff[row, col])),
        np.repeat([2, 4], (len(one), len(two))),
        np.concatenate((one.ravel(), two.ravel())),
        np.concatenate((np.tile([True, False], len(one)),
                        np.tile([True, True, False, False], len(two)))),
        np.concatenate((np.repeat(nz[0] != nz[1], 2), row != col))))


def synthetic_integrals(n_spatial: int, seed: int, density: float = 1.0) -> IntegralSet:
    """Random symmetric integrals, deterministic in (n_spatial, seed, density).

    Unique elements are drawn uniformly from [-1, 1]; a fraction
    ``density`` of them is kept nonzero.  The header is half filling:
    NELEC = n_spatial, with MS2 = n_spatial % 2 so that an odd count names a
    sector.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    n = n_spatial
    h = np.zeros((n, n))
    for p in range(n):
        for q in range(p + 1):
            if rng.random() < density:
                h[p, q] = h[q, p] = rng.uniform(-1.0, 1.0)
    g = np.zeros((n, n, n, n))
    for p, q, r, s in _unique_quartets(n):
        if rng.random() < density:
            _fill_8fold(g, p, q, r, s, rng.uniform(-1.0, 1.0))
    return IntegralSet(n, n, h, g, core_energy=rng.uniform(-1.0, 1.0), ms2=n % 2)


class ResourceLimitError(RuntimeError):
    """Dense or sparse construction requested beyond the qubit limit."""
