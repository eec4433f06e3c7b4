"""Deterministic JSON schemas for complexes, (co)algebras, cochains,
bundles and simplicial data.

Complex format:
  {"ring": "Z"|"Q"|"Fp:<p>", "truncation": N,
   "basis": {"<deg>": [names...]},
   "d": [{"degree": n, "from": name, "to": name, "coeff": "c"}, ...]}

(Co)algebra formats extend it with "mu"/"delta" entry lists, "unit"/"coaug".
A chain map (the "map" of `htwist borel` and `htwist np`) is a list of
entries in the shape of "d" entries.
Coefficients serialize as strings so Q entries stay exact.  All listings
are degree-major in basis order, so equal objects serialize identically.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .complexes import ChainComplex, ChainMap, GradedBasis
from .hopf import ChainAlgebra, ChainCoalgebra
from .rings import Ring


class InputError(Exception):
    """Malformed input data (the CLI exits with code 2)."""


def _coeff_str(v) -> str:
    return str(v)


def _coeff_parse(ring: Ring, s: str):
    """A coefficient string ("3", "-1/2") as a ring element; a malformed or
    (over Z and F_p) non-integral coefficient is an input error."""
    try:
        return ring.of(Fraction(s))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"coefficient {s!r} over {ring.tag()}: {exc}") from exc


def complex_to_dict(X: ChainComplex) -> dict:
    basis = {str(n): list(X.basis.names(n)) for n in sorted(X.basis.by_degree)}
    d_entries = []
    for n in sorted(X.basis.by_degree):
        m = X.dmat(n)
        for src_idx, src in enumerate(X.basis.names(n)):
            for dst_idx, dst in enumerate(X.basis.names(n - 1) if n >= 1 else []):
                v = m[dst_idx, src_idx]
                if not X.ring.is_zero(v):
                    d_entries.append(
                        {"degree": n, "from": src, "to": dst, "coeff": _coeff_str(v)}
                    )
    return {
        "ring": X.ring.tag(),
        "truncation": X.truncation,
        "basis": basis,
        "d": d_entries,
    }


def complex_from_dict(data: dict) -> ChainComplex:
    ring = Ring.from_tag(data["ring"])
    basis = GradedBasis(int(data["truncation"]))
    for deg in sorted(data["basis"], key=int):
        for name in data["basis"][deg]:
            basis.add(int(deg), name)
    X = ChainComplex(ring, basis)
    for e in data.get("d", []):
        try:
            X.set_d_entry(int(e["degree"]), e["from"], e["to"], _coeff_parse(ring, e["coeff"]))
        except KeyError as exc:
            raise InputError(f"d entry {e}: unknown basis element or missing field {exc}") from exc
    return X


def chain_map_from_dict(entries: list, X: ChainComplex, Y: ChainComplex) -> ChainMap:
    """The map X -> Y with the given entries, each {"degree": n, "from": x,
    "to": y, "coeff": "c"}; an unknown element or a missing field is an
    input error."""
    f = ChainMap(X, Y)
    for e in entries:
        try:
            f.set_entry(int(e["degree"]), e["from"], e["to"], _coeff_parse(X.ring, e["coeff"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"map entry {e}: unknown basis element or malformed entry "
                             f"({exc})") from exc
    return f


def algebra_to_dict(A: ChainAlgebra, max_degree: int | None = None) -> dict:
    out = complex_to_dict(A.complex)
    out["unit"] = A.unit
    N = A.truncation if max_degree is None else min(max_degree, A.truncation)
    mu = []
    for p in range(1, N + 1):
        for a in A.basis(p):
            for q in range(1, N + 1 - p):
                for b in A.basis(q):
                    prod = A.product(p, a, q, b)
                    if prod:
                        mu.append({
                            "a": [p, a], "b": [q, b],
                            "result": [[r, _coeff_str(v)] for r, v in sorted(prod.items())],
                        })
    out["mu"] = mu
    return out


def algebra_from_dict(data: dict) -> ChainAlgebra:
    X = complex_from_dict(data)
    A = ChainAlgebra(X, data["unit"])
    for entry in data.get("mu", []):
        (p, a), (q, b) = entry["a"], entry["b"]
        combo = {r: _coeff_parse(X.ring, c) for r, c in entry["result"]}
        A.set_product(int(p), a, int(q), b, combo)
    return A


def coalgebra_to_dict(C: ChainCoalgebra) -> dict:
    out = complex_to_dict(C.complex)
    out["coaug"] = C.coaug
    delta = []
    for n in range(1, C.truncation + 1):
        for c in C.basis(n):
            red = C.reduced_coproduct(n, c)
            if red:
                delta.append({
                    "c": [n, c],
                    "reduced": [
                        [[d1, n1], [d2, n2], _coeff_str(v)]
                        for (d1, n1), (d2, n2), v in red
                    ],
                })
    out["delta"] = delta
    return out


def coalgebra_from_dict(data: dict) -> ChainCoalgebra:
    X = complex_from_dict(data)
    C = ChainCoalgebra(X, data["coaug"])
    for entry in data.get("delta", []):
        n, c = entry["c"]
        terms = [
            ((int(d1), n1), (int(d2), n2), _coeff_parse(X.ring, v))
            for (d1, n1), (d2, n2), v in entry["reduced"]
        ]
        C.set_coproduct_reduced(int(n), c, terms)
    return C


def cochain_values_from_dict(values: list, C: ChainCoalgebra, A: ChainAlgebra) -> list:
    """Cochain entries as (n, c, {a: coeff}), with c a basis element of C in
    degree n and every a a basis element of A in degree n - 1."""
    out = []
    for e in values:
        try:
            n, c = e["from"]
            n = int(n)
            combo = {a: _coeff_parse(A.ring, v) for a, v in e["to"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"cochain value {e}: malformed entry ({exc})") from exc
        if c not in C.basis(n):
            raise InputError(f"cochain value {e}: {c!r} is not a source element of degree {n}")
        for a in combo:
            if a not in A.basis(n - 1):
                raise InputError(f"cochain value {e}: {a!r} is not a target element "
                                 f"of degree {n - 1}")
        out.append((n, c, combo))
    return out


def homology_to_dict(H) -> dict:
    return {
        str(n): {"rank": H.by_degree[n][0], "torsion": H.by_degree[n][1]}
        for n in sorted(H.by_degree)
    }


def dump(data: dict, path: str | None):
    text = json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
