"""Algebraic point-model of a locally golden product space form.

The model fixes an inner-product space with a constant golden structure
and evaluates the closed-form curvature tensor

    R(X,Y)Z = A {g(Y,Z)X - g(X,Z)Y + g(phiY,Z)phiX - g(phiX,Z)phiY}
            + B {g(phiY,Z)X - g(phiX,Z)Y + g(Y,Z)phiX - g(X,Z)phiY}

with A = -((1-psi) c_p - psi c_q) / (2 sqrt5) and
B = -((1-psi) c_p + psi c_q) / 4, together with its Ricci contraction and
the derivation action R.S.  Every statement about these tensors is
pointwise multilinear algebra, so one exact evaluation on a basis decides it.

**The certificate.**  In a g-orthonormal eigenframe of phi (phi e_i = phi_i e_i,
phi_i = psi on p of them, 1 - psi on the other n - p)

    g(R(e_i, e_j)e_k, e_l) = kappa_ij (d_jk d_il - d_ik d_jl),
    kappa_ij = A (1 + phi_i phi_j) + B (phi_i + phi_j),

so kappa takes three values, kappa_pp, kappa_qq and kappa_pq = B (as
psi (1 - psi) = -1).  c_p and c_q are binary floats, hence exact rationals, and
:func:`curvature_certificate` computes every check over Q(sqrt5) from
``(n, p, c_p, c_q)`` alone.  Each check is multilinear in at most four
vectors, so it vanishes if and only if it vanishes on every basis tuple, and
its largest basis value (the largest entry, for a vector-valued check) is its
norm from the l1 norms of its arguments to the max norm: it bounds the check
on any tuple by that value times the product of the arguments' l1 norms, and
is attained.  Written in the frame, a basis value is a sum of products of
Kronecker deltas among the indices, eigenvalues phi_i and the constants
kappa, the Ricci values S(e_a, e_b) = d_ab s_a and beta.  It therefore
depends only on which eigenspace each index lies in and which indices are
equal: its *class*.  A class is realized by some tuple exactly when it has at
most p distinct psi-indices and at most n - p distinct (1 - psi)-indices, and
one representative per realized class decides the check (94 classes of
4-tuples once p, n - p >= 4, so the exact work does not grow with n).  A
vector-valued check on (X, Y, Z) is read as the scalar g(V(X, Y, Z), W) on
4-tuples, which has its entries as basis values.

Each basis value is an integer combination of *atoms* (kappa, the s_a and
beta, and their products for R.S) with coefficients ``a + b psi``, which do not
depend on the model.  They are computed once, with numpy integer arrays, when
the module loads.  A certificate holds the atoms as integer pairs over one
denominator, evaluates the distinct nonzero combinations its (n, p) realizes as
integer dot products, and makes one :class:`~goldenslant.quadrat.QuadRat` per
check result.  The Ricci frame sum is the exact sum
s_a = sum_b (count_b - [a = b]) kappa_ab over the eigenspaces b, compared with
the closed form alpha + beta phi_a.

The certificate also carries the exact A, B and the Ricci coefficients alpha and
beta of ``S(Y, Z) = alpha g(Y, Z) + beta g(phi Y, Z)``; the report reads their floats.

**The oracle.**  The certificate is built from ``(n, p, c_p, c_q)``, with p the
structure's :attr:`~goldenslant.structures.GoldenStructure.eigenspace_dims`; the
structure itself enters through :func:`ambient_oracle`.  It works in the metric's
Euclidean model ``y = W x`` (``g = W^T W``), where g is the dot product and phi the
symmetric ``phi_hat = W phi W^-1``, so rounding does not grow with the conditioning of
g.  R is a polynomial of degree 2 in phi, and a symmetric golden Phi with the certified
spectrum has the certified tensor, so one number ``e >= |phi_hat - Phi|_2`` bounds
the gap between R of ``phi_hat`` and the certified tensor on every triple at once.
``e`` comes from the skew part of ``phi_hat`` and the distance of its symmetric
part's sorted eigenvalues from the sorted certified spectrum, so a wrong p fails it.

The commutation of R(X,Y) with phi and its corollaries are genuinely open
probes here: for B != 0 this tensor does NOT commute with phi (which is
exactly what makes the R.S derivation action nonvanishing), so those
checks report conformance findings instead of assuming the claims.
Covariant-derivative statements are certified structurally: every
coefficient in R and S is a point-independent constant, so nabla R and
nabla S vanish identically and both sides of their phi-identities are 0.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

import numpy as np

from .quadrat import ONE_MINUS_PSI, PSI, QuadRat, from_integers, sign

# The covariant-derivative statements, certified structurally (see above).
NABLA_STATEMENTS = (
    "curvature coefficients A, B are constants and phi, g are constant,"
    " so nabla R = 0 and (nabla R)(X,Y)phiZ = phi (nabla R)(X,Y)Z holds as 0 = 0",
    "Ricci coefficients are constants, so nabla S = 0 and"
    " (nabla S)(phiX, Y) = (nabla S)(X, phiY) holds as 0 = 0",
)


# -- the exact certificate -------------------------------------------------------


class CurvatureCertificate(NamedTuple):
    """The exact coefficients of R and S, and the largest basis value of every
    curvature-suite check, as QuadRat."""

    coefficients: dict[str, QuadRat]  # A, B, alpha and beta, by their report keys
    kappa: dict[str, QuadRat]  # pp, pq, qq: the tensor in the eigenframe
    identities: dict[str, QuadRat]  # hard checks: Ricci agreement, Bianchi, symmetries
    ricci_phi: dict[str, dict[str, QuadRat]]  # path (framesum, closed) -> phi-identities
    commutation: dict[str, QuadRat]
    rs_corollary: QuadRat
    rs_phi_propositions: dict[str, QuadRat]
    rs_closed_form_gap: QuadRat
    non_semi_symmetry_probe: QuadRat


def _class_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One basis 4-tuple per class, with the number of psi- and (1 - psi)-indices it uses.

    Indices 0-3 stand for psi-eigenvectors and 4-7 for (1 - psi)-ones; each
    eigenspace's new indices enter in increasing order, so two tuples of one
    class never both appear.
    """
    rows = [()]
    for _ in range(4):
        grown = []
        for row in rows:
            used = sorted(set(row))
            new_p = sum(i < 4 for i in used)
            grown += [row + (i,) for i in (*used, new_p, 4 + len(used) - new_p)]
        rows = grown
    idx = np.array(rows)
    return idx, np.where(idx < 4, idx + 1, 0).max(axis=1), np.where(idx < 4, 0, idx - 3).max(axis=1)


_CLASSES, _P_USED, _Q_USED = _class_table()
# Numbers a + b psi of Z[psi] are integer pairs (a, b) on a last axis: 1, psi and 1 - psi.
_ONE = np.array([1, 0])
_PHI = np.array([[0, 1], [1, -1]])


def _mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(a + b psi)(c + d psi) = (ac + bd) + (ad + bc + bd) psi, as psi^2 = psi + 1."""
    a, b, c, d = u[..., 0], u[..., 1], v[..., 0], v[..., 1]
    return np.stack([a * c + b * d, a * d + b * c + b * d], axis=-1)


def _atom(index: np.ndarray, coeff: np.ndarray, count: int) -> np.ndarray:
    """Per class, the integer ``coeff`` on atom ``index`` of ``count`` atoms."""
    out = np.zeros((len(index), count), dtype=np.int64)
    out[np.arange(len(index)), index] = coeff
    return out


def _times(rows: np.ndarray, factor: np.ndarray = _ONE) -> np.ndarray:
    """Integer rows of atom coefficients times a Z[psi] factor, one per class or one for all."""
    return rows[..., None] * factor[..., None, :]


def _basis_values() -> dict[str, np.ndarray]:
    """Every check on every class representative (X, Y, Z, W) = (e_x, e_y, e_z, e_w).

    A value is a row of Z[psi] coefficients of the check's atoms: kappa_pp,
    kappa_pq, kappa_qq for R; s_psi, s_(1-psi) for S (the frame sum's, then the
    closed form's, for their agreement); and, for R.S with the closed-form S,
    kappa_k s_psi, kappa_k s_(1-psi) and kappa_k beta at index 3 k, 3 k + 1, 3 k + 2.
    """
    idx = _CLASSES
    q = (idx >= 4).astype(np.int64)  # 1 on the (1 - psi)-eigenspace
    px, py, pz, pw = _PHI[q.T]  # phi_x, phi_y, phi_z, phi_w
    pxy, pzw = _mul(px, py), _mul(pz, pw)

    def sigma(i, j, k, l):
        """g(R(e_i, e_j)e_k, e_l) / kappa_ij = d_jk d_il - d_ik d_jl, by slot."""
        col = idx.T
        return (((col[j] == col[k]) & (col[i] == col[l])).astype(np.int64)
                - ((col[i] == col[k]) & (col[j] == col[l])))

    def r(i, j, k, l):
        return _atom(q[:, i] + q[:, j], sigma(i, j, k, l), 3)

    r0 = r(0, 1, 2, 3)  # g(R(X,Y)Z, W)
    s_xy = _atom(q[:, 0], idx[:, 0] == idx[:, 1], 2)  # S(X, Y) = d_xy s_x
    s_yx = _atom(q[:, 1], idx[:, 0] == idx[:, 1], 2)
    kind = 3 * (q[:, 0] + q[:, 1])
    # (R(X,Y).S)(Z,W) = -S(R(X,Y)Z, W) - S(Z, R(X,Y)W) = -kappa_xy (sigma_xyzw s_w + sigma_xywz s_z)
    rs = -_atom(kind + q[:, 3], sigma(0, 1, 2, 3), 9) - _atom(kind + q[:, 2], sigma(0, 1, 3, 2), 9)
    claimed = _atom(kind + 2, -2 * sigma(0, 1, 3, 2), 9)  # times phi_z: -2 beta g(R(X,Y)W, phi Z)
    return {
        "ricci_framesum_vs_closed": _times(np.concatenate([s_xy, -s_xy], axis=1)),
        "bianchi": _times(r0 + r(1, 2, 0, 3) + r(2, 0, 1, 3)),
        "pair_symmetry": _times(r0 - r(2, 3, 0, 1)),
        "antisymmetry": _times(r0 + r(1, 0, 2, 3)),
        "phi_sq_left": _times(s_xy, _mul(px, px) - px - _ONE),
        "phi_sq_right": _times(s_xy, _mul(py, py) - py - _ONE),
        "phi_both": _times(s_xy, pxy - px - _ONE),
        "phi_swap": _times(s_xy, px) - _times(s_yx, py),
        # g(R(X,Y)phiZ - phi R(X,Y)Z, W), which is also g(R(X,Y)phiZ, W) - g(R(X,Y)Z, phi W)
        "phi_argument": _times(r0, pz - pw),
        "first_slots": _times(r0, px - py),
        "both_slots": _times(r0, pxy - px - _ONE),
        "form_both_phi": _times(r0, pzw - pw - _ONE),
        "rs_corollary": _times(rs, _mul(px, pz)),
        "arguments": _times(rs, pxy - px - _ONE),
        "values": _times(rs, pzw - pz - _ONE),
        "rs_closed_form_gap": _times(rs) - _times(claimed, pz),
        "non_semi_symmetry_probe": _times(rs),
    }


def _distinct(values: np.ndarray) -> dict[tuple, set]:
    """The distinct nonzero rows up to sign, each with the (psi, 1 - psi) index counts of
    the classes that give it.  r and -r have one |value|, so the row kept is the one whose
    first nonzero entry is positive."""
    flat = values.reshape(len(values), -1)
    nonzero = flat.any(axis=1)
    flat = flat[nonzero]
    flat *= np.sign(flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)])[:, None]
    rows: dict[tuple, set] = {}
    for row, used in zip(map(tuple, flat.tolist()),
                         zip(_P_USED[nonzero].tolist(), _Q_USED[nonzero].tolist())):
        rows.setdefault(row, set()).add(used)
    return rows


# The certificate's structure, independent of the model: each check's distinct basis values.
_ROWS = {check: _distinct(values) for check, values in _basis_values().items()}


def _terms(rows: dict[str, dict[tuple, set]]) -> dict[str, list]:
    """Per check, each row of ``rows`` as the (psi, 1 - psi) eigenspace dimensions, capped
    at 4, that realize it, and its terms ``(m, 2a + b, b)``: the nonzero coefficients
    ``a + b psi = (2a + b + b sqrt5)/2`` of the atoms m."""
    return {check: [({(p, q) for p in range(5) for q in range(5)
                      if any(used_p <= p and used_q <= q for used_p, used_q in uses)},
                     [(m, 2 * a + b, b) for m, (a, b) in enumerate(zip(row[::2], row[1::2]))
                      if a or b]) for row, uses in check_rows.items()]
            for check, check_rows in rows.items()}


_TERMS = _terms(_ROWS)  # the table the certificate reads


def _product(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(u0 + u1 sqrt5)(v0 + v1 sqrt5) as the integer pair of its two parts."""
    return u[0] * v[0] + 5 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _worst(checks: tuple[str, ...], atoms: list[tuple[int, int]], den: int, p: int,
           q: int) -> dict[str, QuadRat]:
    """Per check, max |sum_m (a_m + b_m psi) atom_m| over its rows that p psi- and q
    (1 - psi)-eigenvectors realize (0 if none is nonzero), exactly: with the atoms m given
    as ``(P_m, Q_m)`` over ``den``, a row is ``(X + Y sqrt5)/(2 den)`` with the integer dot
    products ``X = sum (2a + b) P + 5 b Q`` and ``Y = sum (2a + b) Q + b P``."""
    out, dims = {}, (min(p, 4), min(q, 4))
    for check in checks:
        best_x = best_y = 0
        for realized, terms in _TERMS[check]:
            if dims in realized:
                x = y = 0
                for m, c, e in terms:
                    big_p, big_q = atoms[m]
                    x += c * big_p + 5 * e * big_q
                    y += c * big_q + e * big_p
                if sign(x, y) < 0:
                    x, y = -x, -y
                if sign(x - best_x, y - best_y) > 0:
                    best_x, best_y = x, y
        out[check] = from_integers(best_x, best_y, 2 * den)
    return out


def curvature_certificate(n: int, p: int, c_p: float, c_q: float) -> CurvatureCertificate:
    """Every check of the curvature suite evaluated exactly on one basis tuple per class.

    With ``c_p = P/L`` and ``c_q = Q/L``, every atom of degree one in (c_p, c_q) is an integer
    pair (x, y) meaning ``(x + y sqrt5)/D`` over ``D = 320 L``, and an R.S atom is one over
    D^2: A = (5 (c_p + c_q) - (c_p - c_q) sqrt5)/20, B = ((c_p - c_q) sqrt5 - (c_p + c_q))/8,
    kappa_pp, kappa_pq, kappa_qq = c_p, B, c_q (as 1 + psi^2 = 2 + psi), and with
    2 tr phi = n + (2p - n) sqrt5 and 2 phi_a = 1 +- sqrt5 the Ricci coefficients and the
    closed form, whose halvings are exact.
    """
    (big_p, den_p), (big_q, den_q) = c_p.as_integer_ratio(), c_q.as_integer_ratio()
    den = 320 * lcm(den_p, den_q)
    big_p, big_q = big_p * (den // den_p), big_q * (den // den_q)
    a = ((big_p + big_q) // 4, (big_q - big_p) // 20)
    b = (-(big_p + big_q) // 8, (big_p - big_q) // 8)
    kappa = [(big_p, 0), b, (big_q, 0)]
    alpha = tuple((n - 2) * x + y // 2 for x, y in zip(a, _product(b, (n, 2 * p - n))))
    beta = tuple(x // 2 + (n - 2) * y for x, y in zip(_product(a, (n - 2, 2 * p - n)), b))
    closed = [tuple(x + y // 2 for x, y in zip(alpha, _product(beta, (1, root))))
              for root in (1, -1)]
    # The frame sum sum_i g(R(e_i, e_a)e_a, e_i) = sum_b (count_b - [a = b]) kappa_ab.
    counts = (p, n - p)
    framesum = [tuple((counts[0] - (la == 0)) * x + (counts[1] - (la == 1)) * y
                      for x, y in zip(kappa[la], kappa[la + 1])) for la in (0, 1)]

    def worst(checks, atoms, atoms_den=den):
        return _worst(checks, atoms, atoms_den, p, n - p)

    commutation = worst(("phi_argument", "first_slots", "both_slots", "form_both_phi"), kappa)
    rs = worst(("rs_corollary", "arguments", "values", "rs_closed_form_gap",
                "non_semi_symmetry_probe"),
               [_product(k, s) for k in kappa for s in (*closed, beta)], den * den)
    ricci_phi = ("phi_sq_left", "phi_sq_right", "phi_both", "phi_swap")
    return CurvatureCertificate(
        coefficients={key: from_integers(*v, den) for key, v in zip(
            ("coeff_a", "coeff_b", "ricci_g_coeff", "ricci_phi_coeff"), (a, b, alpha, beta))},
        kappa={key: from_integers(*k, den) for key, k in zip(("pp", "pq", "qq"), kappa)},
        identities={**worst(("ricci_framesum_vs_closed",), framesum + closed),
                    **worst(("bianchi", "pair_symmetry", "antisymmetry"), kappa)},
        ricci_phi={"framesum": worst(ricci_phi, framesum), "closed": worst(ricci_phi, closed)},
        commutation={**commutation, "form_swap": commutation["phi_argument"]},
        rs_phi_propositions={check: rs.pop(check) for check in ("arguments", "values")},
        **rs,  # rs_corollary, rs_closed_form_gap and non_semi_symmetry_probe
    )


def ambient_oracle(phi: np.ndarray, p: int, cert: CurvatureCertificate) -> float:
    """A bound, relative to ``|X| |Y| |Z| max|kappa|``, on the gap between R of ``phi_hat``
    and the certified tensor, over every triple (X, Y, Z).

    ``phi_hat = Phi + E`` with Phi symmetric, of the certified spectrum: n - p values
    1 - psi, then p values psi, in ascending order ``r``, on the eigenvectors of the
    symmetric part of ``phi_hat`` (ascending eigenvalues ``mu``).  So
    ``e = |phi_hat - phi_hat^T|_F / 2 + max |mu - r| >= |E|_2``, and as R is
    quadratic in phi with ``|Phi|_2 = psi``, the gap is at most
    ``|X| |Y| |Z| (2 |A| (2 psi e + e^2) + 4 |B| e)``.  A flat model gives 0, and a
    non-finite ``phi_hat`` NaN, which fails it.
    """
    kappa = max(abs(float(v)) for v in cert.kappa.values())
    if kappa == 0.0:
        return 0.0
    a, b = (abs(float(cert.coefficients[key])) / kappa for key in ("coeff_a", "coeff_b"))
    n, psi = len(phi), float(PSI)
    r = np.repeat([float(ONE_MINUS_PSI), psi], [n - p, p])
    with np.errstate(invalid="ignore", over="ignore"):
        mu = np.linalg.eigvalsh((phi + phi.T) / 2.0)
        e = float(np.linalg.norm(phi - phi.T) / 2.0 + np.abs(mu - r).max())
    return 2.0 * a * (2.0 * psi * e + e * e) + 4.0 * b * e
