"""Fermion-to-qubit mappings: Jordan-Wigner and Bravyi-Kitaev.

The Bravyi-Kitaev encoding is the binary-tree (Fenwick) scheme: qubit i
stores the mod-2 sum of a contiguous block of orbital occupations ending
at orbital i, with block length lowbit(i+1).  Update/parity/flip sets are
computed in closed form from that tree, and the X masks of the ladder
images give the basis permutation; the tests check both against the
dense transformation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .fermion import FermionOperator, ResourceLimitError
from .pauli import DEFAULT_TOL, I_POWERS, QubitOperator


class MappingScheme(str, Enum):
    JORDAN_WIGNER = "jw"
    BRAVYI_KITAEV = "bk"


@dataclass(frozen=True)
class BKIndexSets:
    """Update/parity/flip/remainder qubit sets for one orbital index."""

    update: frozenset[int]
    parity: frozenset[int]
    flip: frozenset[int]

    @property
    def remainder(self) -> frozenset[int]:
        return self.parity - self.flip


def _lowbit(m: int) -> int:
    return m & -m


def bk_index_sets(i: int, n: int) -> BKIndexSets:
    """Update, parity and flip sets of orbital/qubit index i on n qubits."""
    if not 0 <= i < n:
        raise IndexError(f"orbital index {i} outside [0, {n})")
    # Update set: ancestors of tree node i+1 that fit in the register.
    update = set()
    m = i + 1
    while True:
        m = m + _lowbit(m)
        if m > n:
            break
        update.add(m - 1)
    # Parity set: prefix decomposition of orbitals [0, i).
    parity = set()
    m = i
    while m > 0:
        parity.add(m - 1)
        m -= _lowbit(m)
    # Flip set: children of node i+1 (empty for even i).
    flip = set()
    lb = _lowbit(i + 1)
    t = 1
    while t < lb:
        flip.add(i - t)
        t <<= 1
    return BKIndexSets(frozenset(update), frozenset(parity), frozenset(flip))


def _mask(indices) -> int:
    m = 0
    for q in indices:
        m |= 1 << q
    return m


@lru_cache(maxsize=None)
def _ladder_images(n: int, scheme: MappingScheme):
    """Per-mode ladder-operator images in X^x Z^z normal form.

    Returns imgs[mode] = (x, z_sym, z_anti): the symmetric entry is
    (1/2) X^x Z^z_sym; the antisymmetric entry is +/-(1/2) X^x Z^z_anti
    with + for creation, - for annihilation.
    """
    imgs = []
    for i in range(n):
        bit = 1 << i
        if scheme is MappingScheme.JORDAN_WIGNER:
            low = bit - 1
            imgs.append((bit, low, low | bit))
        else:
            sets = bk_index_sets(i, n)
            x = _mask(sets.update) | bit
            rho = sets.parity if i % 2 == 0 else sets.remainder
            imgs.append((x, _mask(sets.parity), _mask(rho) | bit))
    return tuple(imgs)


MAP_MODE_LIMIT = 64  # X and Z masks are uint64 arrays
_CHUNK = 16384  # entries expanded at once, in whole X-mask groups


def check_map_limit(n_modes: int) -> None:
    """Raise ResourceLimitError if ``n_modes`` exceeds MAP_MODE_LIMIT."""
    if n_modes > MAP_MODE_LIMIT:
        raise ResourceLimitError(f"{n_modes} modes exceeds the {MAP_MODE_LIMIT}-mode map limit")


def map_operator(op: FermionOperator, scheme: MappingScheme) -> QubitOperator:
    """Transform a FermionOperator into a simplified QubitOperator.

    Each ladder product expands left to right, every factor doubling its
    entries c X^x Z^z; all entries of one product share its X mask.  A
    product flagged "plus its adjoint" is expanded once: since
    (X^x Z^z)^dagger = (-1)^popcount(x & z) X^x Z^z, each of its entries
    carries c + (-1)^popcount(x & z) conj(c), its pair's sum.  Products are
    expanded in X-mask groups, whole groups in chunks of about _CHUNK
    entries, so equal (x, z) keys meet inside one chunk.  Each key is summed
    in product order and the terms keep the order of their first entries, as
    a left-to-right dictionary pass would.
    """
    scheme = MappingScheme(scheme)
    n = op.n_modes
    check_map_limit(n)
    coeffs, lengths, modes, dagger, adjoint = op.arrays()
    if not len(coeffs):
        return QubitOperator(n, constant=op.constant)
    imgs = np.array(_ladder_images(n, scheme), dtype=np.uint64).reshape(n, 3)
    modes = modes.astype(np.uint8)
    starts = np.cumsum(lengths) - lengths
    prefix = np.concatenate(([np.uint64(0)], np.bitwise_xor.accumulate(imgs[modes, 0])))
    xmask = prefix[starts + lengths] ^ prefix[starts]
    sizes = np.left_shift(1, lengths)
    first_entry = np.cumsum(sizes) - sizes  # index of each product's first entry

    order = np.argsort(xmask, kind="stable")
    new_group = np.concatenate(([True], np.diff(xmask[order]) != 0))
    gstart = np.append(np.flatnonzero(new_group), len(order))
    offset = np.concatenate(([0], np.cumsum(sizes[order])))  # entry offsets, sorted order
    parts, g = [], 0
    while g < len(gstart) - 1:  # a chunk of groups g..h-1; a large group goes alone
        h = np.searchsorted(offset[gstart], offset[gstart[g]] + _CHUNK, side="right") - 1
        h = max(h, g + 1)
        a, b = gstart[g], gstart[h]
        parts.append(_expand_chunk(imgs, coeffs, starts, modes, dagger, adjoint, xmask,
                                   first_entry, order[a:b], offset[a:b + 1] - offset[a]))
        g = h
    x, z, coeff, first = (np.concatenate(c) for c in zip(*parts))
    by_first = np.argsort(first)
    x, z, coeff = x[by_first], z[by_first], coeff[by_first]
    ident = (x == 0) & (z == 0)
    constant = complex(op.constant)
    if ident.any():
        constant += complex(coeff[ident][0])
    keep = ~ident
    # The keys are distinct; `+ 0.0`, as in parse_terms, turns -0.0 parts into +0.0.
    return QubitOperator(n, constant=constant, arrays=(x[keep], z[keep], coeff[keep] + 0.0))


def _expand_chunk(imgs, coeffs, starts, modes, dagger, adjoint, xmask, first_entry,
                  prods, loc):
    """(x, z, coefficient, first entry index) of one chunk's terms, the
    identity included, each term's coefficient the sum of its entries in
    product order; a folded product's entry holds its pair's sum.

    ``prods`` are the chunk's products by X mask, each group in product
    order, and ``loc`` holds their entry offsets in the chunk."""
    size = np.diff(loc)
    c_all = np.empty(loc[-1], dtype=complex)
    z_all = np.empty(loc[-1], dtype=np.uint64)
    for count in np.unique(size).tolist():  # 2^k entries from k factors
        sel = np.flatnonzero(size == count)
        p = prods[sel]
        c, z = coeffs[p][:, None], np.zeros((len(p), 1), dtype=np.uint64)
        for j in range(count.bit_length() - 1):
            fx, z_sym, z_anti = imgs[modes[starts[p] + j]].T
            odd = (np.bitwise_count(z & fx[:, None]) & 1).astype(bool)
            # (0.5 * sign) * c and (half * sign) * c, half = -0.5 for an annihilator
            c = np.stack((c * np.where(odd, -0.5, 0.5),
                          c * np.where(odd == dagger[starts[p] + j, None], -0.5, 0.5)), -1)
            z = np.stack((z ^ z_sym[:, None], z ^ z_anti[:, None]), -1)
            c, z = c.reshape(len(p), -1), z.reshape(len(p), -1)
        fold = adjoint[p]  # c X^x Z^z plus its adjoint, (-1)^popcount(x & z) conj(c) X^x Z^z
        c[fold] += np.where(np.bitwise_count(xmask[p[fold], None] & z[fold]) & 1,
                            -1, 1) * c[fold].conj()
        at = (loc[sel][:, None] + np.arange(count)).ravel()
        c_all[at], z_all[at] = c.ravel(), z.ravel()
    # The entries sit in (group, product) order, so a stable sort by z alone
    # leaves each (group, z) key contiguous, its entries in product order.
    o = np.argsort(z_all, kind="stable")
    zs, xs = z_all[o], np.repeat(xmask[prods], size)[o]
    new = np.concatenate(([True], (np.diff(zs) != 0) | (np.diff(xs) != 0)))
    sums = np.zeros(np.count_nonzero(new), dtype=complex)
    np.add.at(sums, np.cumsum(new) - 1, c_all[o])  # entry order within each key
    x, z = xs[new], zs[new]
    coeff = sums * I_POWERS[-np.bitwise_count(x & z) & 3]  # X^x Z^z = (-i)^{#Y} P
    first = (np.repeat(first_entry[prods] - loc[:-1], size) + np.arange(loc[-1]))[o[new]]
    keep = (np.abs(coeff) > DEFAULT_TOL) | (x == 0) & (z == 0)
    return x[keep], z[keep], coeff[keep], first[keep]


def basis_permutation(n: int, scheme: MappingScheme) -> np.ndarray:
    """perm[s] = basis index of the image of occupation-basis state s.

    Bit j of an index is mode/qubit j.  Occupying mode j flips the qubits
    of its ladder images' X mask, so the relabeling is GF(2)-linear in
    those masks: the identity for Jordan-Wigner, the Fenwick-tree update
    sets for Bravyi-Kitaev.
    """
    perm = np.zeros(1 << n, dtype=np.int64)
    for j, (x, _, _) in enumerate(_ladder_images(n, MappingScheme(scheme))):
        perm[1 << j:2 << j] = perm[:1 << j] ^ x
    return perm
