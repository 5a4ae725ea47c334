"""Symplectic reflection inputs: the paper's own family, with known answers.

Each input is a finite group Gamma in Sp(V) with the form omega, and psi
comes from the ``symplectic_reflection`` builder with one class factor
drawn per conjugacy class (``GroupData.conj_classes``) from a seed:

* Z/m in SL2, generated by diag(zeta_m, zeta_m^-1), for m = 3, 4, 5, 6;
* Q8, the binary dihedral group of order 8 in SL2(Q(i));
* S3 on h + h*, the Cherednik input of ``test_s3_cherednik_report``.

Etingof–Ginzburg (Invent. Math. 147, 2002, Thm 1.3): H_{t,c} has the PBW
property whenever c is constant on conjugacy classes, and gr H = S(V)#Gamma.
So every check passes and the oracle's candidate gr dimensions are
|Gamma| * C(n + dimV - 1, dimV - 1).  ``non_equivariant`` perturbs an
input so that psi is not Gamma-equivariant; by the paper's Theorem 4.4 it
must fail ``equivariance`` and ``theorem44``, and the oracle must fail.
"""

import copy
import random

from nkoszul.jsonio import parse_context
from test_s3_cherednik_report import S3_CHEREDNIK

OMEGA_2 = [["0", "1"], ["-1", "0"]]

# class factors: rationals for every field, and two elements of Q(zeta)
# beside them when the conductor is above one
RATIONAL_FACTORS = ["1", "-1", "2", "1/2", "-3/2"]
CYCLOTOMIC_FACTORS = ["zeta", "2 - zeta"]


def _sl2_input(conductor: int, generators: list) -> dict:
    return {
        "context": {"conductor": conductor, "dimV": 2, "group_generators": generators},
        "presentation": {
            "builder": "h_psi",
            "p": 2,
            "psi_builder": {"builder": "symplectic_reflection", "omega": OMEGA_2},
        },
    }


def cyclic_sl2(m: int) -> dict:
    """Z/m in SL2(Q(zeta_m)), generated by diag(zeta, zeta^(m-1))."""
    return _sl2_input(m, [["zeta", "0", "0", f"zeta^{m - 1}"]])


def binary_dihedral_q8() -> dict:
    """Q8 in SL2(Q(i)), generated by diag(i, -i) and [[0, 1], [-1, 0]]."""
    return _sl2_input(4, [["zeta", "0", "0", "zeta^3"], ["0", "1", "-1", "0"]])


def with_class_factors(data: dict, seed: str) -> dict:
    """The input with one class factor per conjugacy class, drawn from ``seed``."""
    context = data["context"]
    group = parse_context(context).group
    pool = RATIONAL_FACTORS + (CYCLOTOMIC_FACTORS if context["conductor"] > 1 else [])
    rng = random.Random(seed)
    factors = [None] * group.order
    for cls in group.conj_classes:
        factor = rng.choice(pool)
        for g in cls:
            factors[g] = factor
    out = copy.deepcopy(data)
    out["presentation"]["psi_builder"]["m"] = factors
    return out


def family_inputs(seed: int = 0) -> list:
    """(name, input, D) for every input: D = 5, and D = 4 for S3."""
    cases = [(f"z{m}", cyclic_sl2(m), 5) for m in (3, 4, 5, 6)]
    cases += [("q8", binary_dihedral_q8(), 5), ("s3", S3_CHEREDNIK, 4)]
    return [(name, with_class_factors(data, f"{seed}:{name}"), D) for name, data, D in cases]


def non_equivariant(data: dict) -> dict:
    """psi = omega on the identity plus a value on one element g of a
    two-element conjugacy class {g, h g h^-1}, and nothing on the other."""
    group = parse_context(data["context"]).group
    g = next(cls for cls in group.conj_classes if len(cls) == 2)[0]
    omega = data["presentation"]["psi_builder"]["omega"]
    on_identity = {
        f"[{i + 1},{j + 1}]": x
        for i, row in enumerate(omega)
        for j, x in enumerate(row)
        if i < j and x != "0"
    }
    out = copy.deepcopy(data)
    psi = {"p": 2, "psi": [{"g": 0, "values": on_identity}, {"g": g, "values": {"[1,2]": "1"}}]}
    out["presentation"] = {"builder": "h_psi", "p": 2, "psi": psi}
    return out
