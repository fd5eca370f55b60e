"""Second-quantized Hamiltonians: FCIDUMP I/O and the spin-orbital operator.

Conventions fixed here (they matter for every downstream comparison):
- spin-orbital index = 2*spatial + spin, spin 0 = alpha, 1 = beta;
- two-electron integrals are chemists' (pq|rs) with 8-fold symmetry;
- occupation-number basis states index the Fock space with bit j of the
  basis index holding the occupation of mode j.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-10


class FcidumpError(ValueError):
    """Malformed FCIDUMP input; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass
class IntegralSet:
    """One- and two-electron integrals over spatial orbitals, in Hartree."""

    n_spatial: int
    n_electrons: int
    one_body: np.ndarray          # (n, n), symmetric
    two_body: np.ndarray          # (n, n, n, n) chemists' (pq|rs), 8-fold symmetric
    core_energy: float = 0.0
    ms2: int = 0
    core_energy_missing: bool = False

    def validate(self, tol: float = SYMMETRY_TOL) -> None:
        h, g = self.one_body, self.two_body
        if np.max(np.abs(h - h.T)) > tol:
            raise ValueError("one-body integrals are not symmetric")
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            if np.max(np.abs(g - g.transpose(perm))) > tol:
                raise ValueError("two-body integrals lack 8-fold symmetry")


@dataclass
class FermionOperator:
    """Sum of ladder-operator products: (coeff, ((mode, dagger), ...))."""

    n_modes: int
    products: list[tuple[complex, tuple[tuple[int, bool], ...]]] = field(default_factory=list)
    constant: float = 0.0

    def add(self, coeff: complex, factors: tuple[tuple[int, bool], ...]) -> None:
        for mode, _ in factors:
            if not 0 <= mode < self.n_modes:
                raise ValueError(f"mode {mode} outside register of size {self.n_modes}")
        self.products.append((coeff, factors))


_HEADER_RE = re.compile(r"&FCI(.*)", re.IGNORECASE | re.DOTALL)
_KEY_RE = re.compile(r"(\w+)\s*=\s*([-\d,\s]+?)(?=(?:\w+\s*=)|$)")


def parse_fcidump(source) -> IntegralSet:
    """Read an FCIDUMP stream or string into an :class:`IntegralSet`.

    Stored unique elements are expanded to the full symmetric arrays.
    """
    if isinstance(source, bytes):
        text = source.decode()
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        text = data.decode() if isinstance(data, bytes) else data

    lines = text.splitlines()
    header_buf = []
    body_start = None
    for i, line in enumerate(lines):
        if line.lstrip().startswith("#"):
            continue
        header_buf.append(line)
        if "&END" in line.upper() or line.strip() == "/":
            body_start = i + 1
            break
    if body_start is None:
        raise FcidumpError("missing &END terminator in header", 1)

    header = " ".join(header_buf)
    m = _HEADER_RE.search(header)
    if m is None:
        raise FcidumpError("missing &FCI header", 1)
    content = re.split(r"&END|(?<=\s)/", m.group(1), flags=re.IGNORECASE)[0]
    keys = {}
    for key, val in _KEY_RE.findall(content):
        keys[key.upper()] = val
    try:
        norb = int(keys["NORB"].split(",")[0])
        nelec = int(keys["NELEC"].split(",")[0])
    except KeyError as exc:
        raise FcidumpError(f"header missing {exc.args[0]}", 1) from None
    ms2 = int(keys.get("MS2", "0").split(",")[0])

    h = np.zeros((norb, norb))
    g = np.zeros((norb, norb, norb, norb))
    core = 0.0
    saw_core = False

    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        fields = line.split()
        if not fields or line.lstrip().startswith("#"):
            continue
        if len(fields) != 5:
            raise FcidumpError(f"expected 'value i j k l', got {line!r}", lineno)
        try:
            val = float(fields[0])
            i, j, k, l = (int(f) for f in fields[1:])
        except ValueError:
            raise FcidumpError(f"unparsable row {line!r}", lineno) from None
        if i == j == k == l == 0:
            core = val
            saw_core = True
            continue
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise FcidumpError(f"orbital index {idx} out of range 1..{norb}", lineno)
        if k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"bad one-body indices in {line!r}", lineno)
            h[i - 1, j - 1] = h[j - 1, i - 1] = val
        else:
            if 0 in (i, j, k, l):
                raise FcidumpError(f"bad two-body indices in {line!r}", lineno)
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    g[a, b, c, d] = g[c, d, a, b] = val

    return IntegralSet(norb, nelec, h, g, core, ms2, core_energy_missing=not saw_core)


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
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                smax = q if r == p else r
                for s in range(smax + 1):
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
    """Spin-orbital Hamiltonian over 2*n_spatial modes.

    One-body: sum_pq h_pq a+_{p,s} a_{q,s}.  Two-body, from chemists'
    (pq|rs): 1/2 sum (pq|rs) a+_{p,s} a+_{r,t} a_{s_orb:=s,t} a_{q,s}.
    """
    n = ints.n_spatial
    op = FermionOperator(2 * n, constant=ints.core_energy)
    # Shared factor tuples; nonzero() walks the arrays in row-major order,
    # the order of the nested index loops, and every mode is in range.
    cre = [(m, True) for m in range(2 * n)]
    ann = [(m, False) for m in range(2 * n)]
    products = op.products
    h = ints.one_body
    for p, q in zip(*(a.tolist() for a in np.nonzero(h))):
        v = h[p, q]
        for spin in (0, 1):
            products.append((v, (cre[2 * p + spin], ann[2 * q + spin])))
    g = ints.two_body
    nz = np.nonzero(g)
    for p, q, r, s, v in zip(*(a.tolist() for a in nz), g[nz]):
        half = 0.5 * v
        for s1 in (0, 1):
            i, l = 2 * p + s1, 2 * q + s1
            for s2 in (0, 1):
                j, k = 2 * r + s2, 2 * s + s2
                if i != j and k != l:
                    products.append((half, (cre[i], cre[j], ann[k], ann[l])))
    return op


def synthetic_integrals(n_spatial: int, seed: int, density: float = 1.0) -> IntegralSet:
    """Random symmetric integrals, deterministic in (n_spatial, seed, density).

    Unique elements are drawn uniformly from [-1, 1]; a fraction
    ``density`` of them is kept nonzero.
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
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                smax = q if r == p else r
                for s in range(smax + 1):
                    if rng.random() < density:
                        v = rng.uniform(-1.0, 1.0)
                        for a, b in ((p, q), (q, p)):
                            for c, d in ((r, s), (s, r)):
                                g[a, b, c, d] = g[c, d, a, b] = v
    return IntegralSet(n, n, h, g, core_energy=rng.uniform(-1.0, 1.0))


class ResourceLimitError(RuntimeError):
    """Dense or sparse construction requested beyond the qubit limit."""
