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
from .rings import Ring


class InputError(Exception):
    """Malformed input data (the CLI exits with code 2)."""


def required(data, key: str):
    """data[key]; a missing key (or data that is not an object) is an input
    error naming the key."""
    try:
        return data[key]
    except (KeyError, TypeError):
        raise InputError(f"input has no {key!r}") from None


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
        m, below = X.dmat(n), X.basis.names(n - 1)
        for j, src in enumerate(X.basis.names(n)):
            for i, v in sorted(m.column(j).items()):
                d_entries.append({"degree": n, "from": src, "to": below[i], "coeff": _coeff_str(v)})
    return {
        "ring": X.ring.tag(),
        "truncation": X.truncation,
        "basis": basis,
        "d": d_entries,
    }


def complex_from_dict(data: dict) -> ChainComplex:
    """The complex a complex file describes; a malformed ring, truncation or
    basis (a degree that lists anything but a list of names included), or a
    d entry that is malformed or names an unknown element, is an input
    error."""
    ring_tag, truncation, degrees = (required(data, k) for k in ("ring", "truncation", "basis"))
    try:
        ring = Ring.from_tag(ring_tag)
        basis = GradedBasis(int(truncation))
        for deg in sorted(degrees, key=int):
            names = degrees[deg]
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise InputError(f"basis degree {deg}: {names!r} is not a list of names")
            for name in names:
                basis.add(int(deg), name)
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"ring, truncation or basis: {exc}") from exc
    X = ChainComplex(ring, basis)
    for e in data.get("d", []):
        try:
            X.set_d_entry(int(e["degree"]), e["from"], e["to"], _coeff_parse(ring, e["coeff"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"d entry {e}: unknown basis element or malformed entry "
                             f"({exc})") from exc
    return X


def _degree_0_element(data, key: str, X: ChainComplex) -> str:
    """data[key], which must be a basis element of X in degree 0."""
    name = required(data, key)
    if name not in X.basis.names(0):
        raise InputError(f"{key} {name!r} is not a basis element of degree 0")
    return name


def _combination(ring: Ring, terms, what: str, entry) -> dict:
    """{name: coeff} from [[name, "c"], ...]; a name given twice is an input
    error, not a sum or an overwrite."""
    combo = {}
    for name, c in terms:
        if name in combo:
            raise InputError(f"{what} {entry}: {name!r} is repeated")
        combo[name] = _coeff_parse(ring, c)
    return combo


def _check_names(entry, what: str, elements, X: ChainComplex):
    """Each (degree, name) in ``elements`` must be a basis element of X."""
    for n, name in elements:
        if name not in X.basis.names(n):
            raise InputError(f"{what} {entry}: {name!r} is not a basis element of degree {n}")


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
    from .fixtures import table_product
    from .hopf import ChainAlgebra

    X = complex_from_dict(data)
    unit, table = _degree_0_element(data, "unit", X), {}
    for entry in data.get("mu", []):
        try:
            (p, a), (q, b) = entry["a"], entry["b"]
            p, q = int(p), int(q)
            combo = _combination(X.ring, entry["result"], "mu entry", entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"mu entry {entry}: malformed entry ({exc})") from exc
        if p == 0 or q == 0:
            # ChainAlgebra.product answers degree-0 factors by the unit rule
            raise InputError(f"mu entry {entry}: a factor of degree 0 is not read from mu")
        _check_names(entry, "mu entry", [(p, a), (q, b), *((p + q, r) for r in combo)], X)
        if ((p, a), (q, b)) in table:
            raise InputError(f"mu entry {entry}: the product {a!r}·{b!r} is repeated")
        table[(p, a), (q, b)] = combo
    return ChainAlgebra(X, unit, table_product(X, table))


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
    from .fixtures import table_coproduct
    from .hopf import ChainCoalgebra

    X = complex_from_dict(data)
    coaug, table = _degree_0_element(data, "coaug", X), {}
    for entry in data.get("delta", []):
        try:
            n, c = entry["c"]
            n = int(n)
            terms = [((int(d1), n1), (int(d2), n2), _coeff_parse(X.ring, v))
                     for (d1, n1), (d2, n2), v in entry["reduced"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"delta entry {entry}: malformed entry ({exc})") from exc
        _check_names(entry, "delta entry", [(n, c), *(k for t in terms for k in t[:2])], X)
        if (n, c) in table:
            raise InputError(f"delta entry {entry}: the coproduct of {c!r} is repeated")
        table[n, c] = terms
    return ChainCoalgebra(X, coaug, table_coproduct(X, coaug, table))


def cochain_values_from_dict(values: list, C: ChainCoalgebra, A: ChainAlgebra) -> list:
    """Cochain entries as (n, c, {a: coeff}), with c a basis element of C in
    degree n, given once, and every a a basis element of A in degree n - 1."""
    out, seen = [], set()
    for e in values:
        try:
            n, c = e["from"]
            n = int(n)
            combo = _combination(A.ring, e["to"], "cochain value", e)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"cochain value {e}: malformed entry ({exc})") from exc
        _check_names(e, "cochain value", [(n, c)], C.complex)
        _check_names(e, "cochain value", [(n - 1, a) for a in combo], A.complex)
        if (n, c) in seen:
            raise InputError(f"cochain value {e}: the value on {c!r} is repeated")
        seen.add((n, c))
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
