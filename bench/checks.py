"""Output checks for the benchmark workloads.

Each check compares a job's output summary (built by job.py) with an
expectation written down here, from the mathematics or from a pinned
table, and returns the list of problems it found (empty when the output is
right).  Nothing here imports htwist.  Each check has a negative control:
a corruption of a correct output that the check must reject.
"""

from __future__ import annotations

import copy

# ---------------------------------------------------------------------
# normality: abelian_normality(id, Λx⊗Λy) at N=6, verified through 5.
# ---------------------------------------------------------------------

ARROW_CHECKS = {
    "alpha-chain", "mu-chain", "nu-chain", "beta-chain",
    "alpha-algebra-map", "beta-coalgebra-map", "mu-module-map", "nu-comodule-map",
    "j-square", "d-square", "p-square",
    "alpha-quasi-iso", "mu-quasi-iso", "nu-quasi-iso", "beta-quasi-iso",
}
ARROW0 = "arrow0:counit-ladder"
ARROW1 = "arrow1:rigid-projection"
# The honest state of acceptance criteria 6 and 8: the strict projection
# arrow fails exactly these two conditions.
ARROW1_FAILING = {"nu-comodule-map", "p-square"}
# dim of the N-slot of θ in degrees 0..6
THETA_N_DIMS = [1, 2, 9, 34, 137, 551, 2227]


def check_normality(out) -> list:
    problems = []
    arrows = out["arrows"]
    if set(arrows) != {ARROW0, ARROW1}:
        return [f"arrows {sorted(arrows)}"]
    for label, arrow in arrows.items():
        if set(arrow["checks"]) != ARROW_CHECKS:
            problems.append(f"{label}: checks {sorted(arrow['checks'])}")
        failing = {k for k, ok in arrow["checks"].items() if not ok}
        want = ARROW1_FAILING if label == ARROW1 else set()
        if failing != want:
            problems.append(f"{label}: failing {sorted(failing)}, expected {sorted(want)}")
        if arrow["ok"] != (not want):
            problems.append(f"{label}: ok={arrow['ok']}")
    if out["verified"] is not False:
        problems.append(f"verified={out['verified']}")
    if out["theta_N_dims"] != THETA_N_DIMS:
        problems.append(f"theta N-slot dims {out['theta_N_dims']}")
    return problems


def corrupt_normality(out):
    """A verifier that dropped one of the two failing checks."""
    out["arrows"][ARROW1]["checks"]["p-square"] = True
    return out


# ---------------------------------------------------------------------
# constructions: criterion 1 on the corpus at N=9.
# ---------------------------------------------------------------------

# item -> (dims of Bar/Cobar in degrees 0..9, dims of the twisted tensor)
CONSTRUCTION_DIMS = {
    "bar0": ([1, 0, 1, 0, 1, 0, 1, 0, 1, 0], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
    "bar1": ([1, 0, 0, 1, 0, 1, 1, 0, 2, 1], [1, 0, 1, 1, 1, 2, 1, 2, 3, 2]),
    "bar2": ([1, 0, 2, 1, 4, 4, 9, 12, 22, 33], [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]),
    "bar3": ([1, 0, 0, 1, 1, 0, 1, 2, 1, 1], [1, 0, 1, 2, 1, 1, 3, 3, 2, 4]),
    "bar4": ([1, 0, 1, 1, 3, 3, 6, 9, 16, 24], [1, 1, 2, 4, 6, 9, 15, 25, 40, 64]),
    "bar5": ([1, 0, 2, 1, 4, 4, 9, 12, 22, 33], [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]),
    "cobar0": ([1, 1, 1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 2, 2, 2, 2, 2, 2, 2, 2]),
    "cobar1": ([1, 0, 1, 0, 1, 0, 1, 0, 1, 0], [1, 0, 1, 1, 1, 1, 1, 1, 1, 1]),
    "cobar2": ([1, 1, 1, 2, 3, 4, 6, 9, 13, 19], [1, 1, 2, 3, 5, 7, 10, 15, 22, 32]),
    "cobar3": ([1, 2, 5, 13, 34, 88, 228, 591, 1532, 3971],
               [1, 2, 7, 18, 47, 122, 316, 819, 2123, 5503]),
}
CONSTRUCTION_FLAGS = ("d_squared_zero", "maurer_cartan", "twisted_d_squared_zero")


def check_constructions(out) -> list:
    items = {it["item"]: it for it in out["items"]}
    if set(items) != set(CONSTRUCTION_DIMS):
        return [f"items {sorted(items)}"]
    problems = []
    for name, (dims, twisted) in CONSTRUCTION_DIMS.items():
        it = items[name]
        problems += [f"{name}: {flag} false" for flag in CONSTRUCTION_FLAGS if it[flag] is not True]
        if (it["dims"], it["twisted_dims"]) != (dims, twisted):
            problems.append(f"{name}: dims {it['dims']} / {it['twisted_dims']}")
    return problems


def corrupt_constructions(out):
    """One Maurer-Cartan check reported false."""
    out["items"][0]["maurer_cartan"] = False
    return out


# ---------------------------------------------------------------------
# zhomology: H(W̄C5; Z) and the shuffled universal bundle of C4.
# ---------------------------------------------------------------------

def _homology(*groups):
    """{degree: {"rank", "torsion"}} from (rank, torsion) per degree."""
    return {str(n): {"rank": r, "torsion": list(t)} for n, (r, t) in enumerate(groups)}


Z, ZERO, Z5 = (1, []), (0, []), (0, [5])
WBAR_C5 = _homology(Z, Z5, ZERO, Z5)
CONTRACTIBLE = _homology(Z, ZERO, ZERO, ZERO)


def check_zhomology(out) -> list:
    problems = []
    a, b = out["wbar_homology"], out["shuffled_homology"]
    if a["exit"] != 0 or b["exit"] != 0:
        problems.append(f"exit codes {a['exit']}, {b['exit']}")
    if a["results"].get("wbar-homology") != WBAR_C5:
        problems.append(f"H(W̄C5) = {a['results'].get('wbar-homology')}")
    if a["results"].get("universal-bundle-homology") != CONTRACTIBLE:
        problems.append(f"H(W̄C5 ×ν C5) = {a['results'].get('universal-bundle-homology')}")
    if a["results"].get("universal-bundle-acyclic") is not True:
        problems.append("universal bundle of C5 not reported acyclic")
    if b["results"].get("homology") != CONTRACTIBLE:
        problems.append(f"H(shuffled W̄C4 ×ν C4) = {b['results'].get('homology')}")
    return problems


def corrupt_zhomology(out):
    """A flipped torsion entry: H_3(W̄C5) reported as 0."""
    out["wbar_homology"]["results"]["wbar-homology"]["3"]["torsion"] = []
    return out


# ---------------------------------------------------------------------
# simplicial: tcp and wbar of the constant group C5 through level 5.
# ---------------------------------------------------------------------

WBAR_LEVELS = {str(n): 5 ** n for n in range(6)}


def check_simplicial(out) -> list:
    problems = []
    t, w = out["tcp"], out["wbar"]
    if t["exit"] != 0 or w["exit"] != 0:
        problems.append(f"exit codes {t['exit']}, {w['exit']}")
    if t["results"].get("simplicial-identities") is not True:
        problems.append("tcp: simplicial identities fail")
    for key in ("simplicial-identities", "couniversal-twisting-function"):
        if w["results"].get(key) is not True:
            problems.append(f"wbar: {key} fails")
    if w["results"].get("levels") != WBAR_LEVELS:
        problems.append(f"wbar levels {w['results'].get('levels')}")
    return problems


def corrupt_simplicial(out):
    """One simplex missing from the top level of W̄C5."""
    out["wbar"]["results"]["levels"]["5"] -= 1
    return out


CHECKS = {
    "normality": (check_normality, corrupt_normality),
    "constructions": (check_constructions, corrupt_constructions),
    "zhomology": (check_zhomology, corrupt_zhomology),
    "simplicial": (check_simplicial, corrupt_simplicial),
}


def check(workload: str, out) -> list:
    return CHECKS[workload][0](out)


def control_rejected(workload: str, out) -> bool:
    """True when the check rejects the corrupted copy of a correct output."""
    check_fn, corrupt = CHECKS[workload]
    return bool(check_fn(corrupt(copy.deepcopy(out))))
