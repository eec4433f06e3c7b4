"""Command-line front end: load JSON fixtures, run constructions and
verifications, emit deterministic reports.

Exit codes: 0 pass/success, 1 verification failure (witness in the report),
2 input error.  All randomness is seeded and the seed is printed in the
report header.  `--json` switches to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import DEFAULT_SAMPLES, DEFAULT_SEED, NotConnected, NotOneConnected, NotReduced, io_json
from .complexes import TruncationTooLow, homology, verify_differential
from .io_json import InputError, required
from .rings import Ring


def _at_least(low: int):
    """An argparse type that takes a decimal integer >= low."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, not {text!r}")
        return int(text)

    return parse


def _load_json(path: str) -> dict:
    try:
        data = io_json.load(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: the top level is a JSON {type(data).__name__}, not an object")
    return data


def _emit(report: dict, args) -> None:
    if args.json:
        text = json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True)
    else:
        lines = [f"htwist {report['command']} (through={report['truncation']}, seed={report['seed']})"]
        for key, val in report["results"].items():
            lines.append(f"  {key}: {val}")
        for w in report.get("witnesses", []):
            lines.append(f"  witness: {w}")
        text = "\n".join(lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text)


def _require_through(args, lowest: int, why: str) -> None:
    """An input error when --through is below lowest, the least value the
    command can run at; why says what the command needs it for."""
    if args.through < lowest:
        raise InputError(f"{args.command} {why}, so --through must be >= {lowest}")


def _homology_top(args) -> int:
    """--through - 1, the last degree a command reports homology in; an
    input error when that is below 0."""
    _require_through(args, 1, "computes homology through --through - 1")
    return args.through - 1


def _report(command: str, args, results: dict, witnesses=None, payload=None) -> dict:
    rep = {
        "command": command,
        "inputs": [getattr(args, "input", None)],
        "truncation": args.through,
        "seed": args.seed,
        "results": results,
        "witnesses": witnesses or [],
    }
    if payload is not None:
        rep["payload"] = payload
    return rep


def _simplicial_from_spec(data: dict, N: int):
    from .simplicial import (
        ComplexSimplicialSet,
        boundary_delta2,
        cyclic_constant_group,
        minimal_circle,
        point_space,
    )

    kind = data.get("kind")
    if kind == "S1min":
        return minimal_circle(N)
    if kind == "point":
        return point_space(N)
    if kind == "boundary-delta2":
        return boundary_delta2(N)
    if kind == "constant-cyclic":
        order = required(data, "order")
        if not str(order).isdigit() or int(order) < 1:
            raise InputError(f"constant-cyclic order {order!r} is not a positive integer")
        return cyclic_constant_group(int(order), N)
    if kind == "complex":
        return ComplexSimplicialSet(N, _complex_simplices(data), name=data.get("name", "complex"))
    raise InputError(f"unknown simplicial kind {kind!r}")


def _complex_simplices(data: dict) -> list[tuple]:
    """The simplices of a `complex` spec: vertex lists, at least one of them
    nonempty, with vertices all integers or all strings so that they sort."""
    simplices = required(data, "simplices")
    if not isinstance(simplices, list) or not all(isinstance(s, list) for s in simplices):
        raise InputError("complex 'simplices' is not a list of vertex lists")
    kinds = {type(v).__name__ for s in simplices for v in s}
    if not kinds:
        raise InputError("complex 'simplices' has no nonempty simplex")
    if kinds not in ({"int"}, {"str"}):
        raise InputError(f"complex vertices must be all integers or all strings, not {sorted(kinds)}")
    return [tuple(s) for s in simplices]


def _ring(tag: str) -> Ring:
    try:
        return Ring.from_tag(tag)
    except ValueError as exc:
        raise InputError(f"--ring: {exc}") from None


def _check_ring(args, **inputs) -> None:
    """An input error unless the named inputs of a file share one ring and
    --ring, when given, names that ring."""
    (first, X), *rest = inputs.items()
    for name, Y in rest:
        if Y.ring != X.ring:
            raise InputError(f"the {first} is over {X.ring.tag()} but the {name} over {Y.ring.tag()}")
    if args.ring is not None and _ring(args.ring) != X.ring:
        raise InputError(f"--ring {args.ring}, but the {first} is over {X.ring.tag()}")


def _check_connected(command: str, source, target) -> None:
    """Refuse, as ``cobar`` and ``bar`` do (exit 2), a source coalgebra that
    is not 1-connected or a target algebra that is not connected."""
    if not source.is_one_connected():
        raise NotOneConnected(f"{command} needs a 1-connected source coalgebra, "
                              f"degrees 0/1 = {source.basis(0)}/{source.basis(1)}")
    if not target.is_connected():
        raise NotConnected(f"{command} needs a connected target algebra, degree 0 = {target.basis(0)}")


def _check_algebra_map(command: str, f, source, target) -> None:
    """Refuse (exit 2) a source or target algebra that is not connected, as
    ``bar`` does, and then a map f that is not a chain algebra map: the
    Borel quotient and the Nomura-Puppe sequence are defined only for
    those, and the quotient of a map that does not commute with d is no
    complex."""
    from .barcobar import is_algebra_map

    for side, A in (("source", source), ("target", target)):
        if not A.is_connected():
            raise NotConnected(f"{command} needs a connected {side} algebra, degree 0 = {A.basis(0)}")
    if not is_algebra_map(f, source, target):
        raise InputError(f"{command} needs an algebra map, and the map does not send the unit "
                         "to the unit and products to products")
    ok, degree = f.is_chain_map()
    if not ok:
        raise InputError(f"{command} needs a chain map, and the map does not commute with d "
                         f"in degree {degree}")


def _group_from_spec(data: dict, N: int):
    """The simplicial group a spec describes; a spec of a bare set is an input error."""
    from .simplicial import SimplicialGroup

    G = _simplicial_from_spec(data, N)
    if not isinstance(G, SimplicialGroup):
        raise InputError(f"simplicial kind {data.get('kind')!r} is not a simplicial group")
    return G


def cmd_homology(args):
    X = io_json.complex_from_dict(_load_json(args.input))
    _check_ring(args, complex=X)
    ok, wit = verify_differential(X)
    if not ok:
        return _report("homology", args, {"d-squared-zero": False}, [wit]), 1
    through = max(0, min(args.through, X.truncation - 1))
    rep = _report("homology", args, {"homology": io_json.homology_to_dict(homology(X, through))})
    rep["truncation"] = through  # the degree actually computed
    return rep, 0


def cmd_bar(args):
    from .barcobar import bar
    from .hopf import verify_algebra

    A = io_json.algebra_from_dict(_load_json(args.input))
    _check_ring(args, algebra=A)
    oka, wa = verify_algebra(A)
    if not oka:
        return _report("bar", args, {"input-algebra": False}, wa[:3]), 1
    B = bar(A, args.through)
    okd, wd = verify_differential(B.complex)
    rep = _report("bar", args, {"d-squared-zero": okd},
                  [wd] if wd else [], payload=io_json.coalgebra_to_dict(B))
    return rep, 0 if okd else 1


def cmd_cobar(args):
    from .barcobar import cobar
    from .hopf import verify_coalgebra

    C = io_json.coalgebra_from_dict(_load_json(args.input))
    _check_ring(args, coalgebra=C)
    okc, wc = verify_coalgebra(C)
    if not okc:
        return _report("cobar", args, {"input-coalgebra": False}, wc[:3]), 1
    O = cobar(C, args.through)
    okd, wd = verify_differential(O.complex)
    rep = _report("cobar", args, {"d-squared-zero": okd},
                  [wd] if wd else [], payload=io_json.algebra_to_dict(O, args.through))
    return rep, 0 if okd else 1


def cmd_check_twisting(args):
    from .twisting import TwistingCochain, verify_twisting_cochain

    data = _load_json(args.input)
    C = io_json.coalgebra_from_dict(required(data, "source"))
    A = io_json.algebra_from_dict(required(data, "target"))
    _check_ring(args, source=C, target=A)
    _check_connected("check-twisting", C, A)
    t = TwistingCochain(C, A)
    values = required(required(data, "cochain"), "values")
    for n, c, combo in io_json.cochain_values_from_dict(values, C, A):
        t.set_value(n, c, combo)
    ok, wit = verify_twisting_cochain(t, args.through)
    # coefficients go out as strings ("2", "-1/2"), as in every payload: Q values
    # are ints or Fractions, and _emit would pass an int through as a JSON number
    witnesses = [
        {k: {a: io_json._coeff_str(c) for a, c in v.items()} if k in ("lhs", "rhs") else v
         for k, v in w.items()}
        for w in wit[:3]
    ]
    return _report("check-twisting", args, {"maurer-cartan": ok}, witnesses), 0 if ok else 1


def cmd_borel(args):
    from .bundles import borel_quotient

    top = _homology_top(args)
    data = _load_json(args.input)
    A = io_json.algebra_from_dict(required(data, "source"))
    A2 = io_json.algebra_from_dict(required(data, "target"))
    _check_ring(args, source=A, target=A2)
    f = io_json.chain_map_from_dict(required(data, "map"), A.complex, A2.complex)
    _check_algebra_map("borel", f, A, A2)
    q = borel_quotient(f, A, A2, args.through)
    okd, wd = verify_differential(q.bundle.total)
    H = homology(q.bundle.total, top)
    rep = _report("borel", args,
                  {"d-squared-zero": okd, "homology": io_json.homology_to_dict(H)},
                  [wd] if wd else [])
    return rep, 0 if okd else 1


def cmd_np(args):
    from .bundles import nomura_puppe

    top = _homology_top(args)
    data = _load_json(args.input)
    A = io_json.algebra_from_dict(required(data, "source"))
    A2 = io_json.algebra_from_dict(required(data, "target"))
    _check_ring(args, source=A, target=A2)
    f = io_json.chain_map_from_dict(required(data, "map"), A.complex, A2.complex)
    _check_algebra_map("np", f, A, A2)
    np_ = nomura_puppe(f, A, A2, args.through)
    ok, rep = np_.verify(top)
    return _report("np", args, {"nomura-puppe": rep}), 0 if ok else 1


def cmd_check_axioms(args):
    from .bundles import check_thc_axioms
    from .fixtures import (
        acyclic_extension_inclusion,
        coacyclic_collapse,
        exterior,
        sphere_coalgebra,
        truncated_polynomial,
        dual_truncated_polynomial,
    )
    from .rings import QQ

    _require_through(args, 3, "builds k[x]/(x^3) through --through + 1, with x^2 in degree 4")
    N = args.through
    A1 = exterior(QQ, N + 1)
    A2 = truncated_polynomial(QQ, N + 1)
    C1 = sphere_coalgebra(QQ, N + 1, 2)
    C2 = dual_truncated_polynomial(QQ, N + 1)
    f1, AE1 = acyclic_extension_inclusion(A1, N + 1)
    g1, CF1 = coacyclic_collapse(C1, N + 1)
    fixtures = {
        "algebras": [A1, A2],
        "coalgebras": [C1, C2],
        "algebra_quasi_isos": [(f1, A1, AE1)],
        "coalgebra_quasi_isos": [(g1, CF1, C1)],
    }
    ok, rep = check_thc_axioms(fixtures, N)
    return _report("check-axioms", args, {"ok": ok, "detail": _stringify(rep)}), 0 if ok else 1


def _stringify(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj if isinstance(obj, (bool, int, str)) else str(obj)


def cmd_check_normal_pair(args):
    from .complexes import ChainMap
    from .fixtures import exterior, truncated_polynomial
    from .normality import (
        abelian_normality,
        chcx_identity_certificate,
        chcx_unit_certificate,
        verify_normal_pair,
    )
    from .rings import QQ

    data = _load_json(args.input)
    builder = data.get("builder")
    N = args.through + 1
    if builder == "abelian-identity-exterior":
        A = exterior(QQ, N + 2)
        cert = abelian_normality(ChainMap.identity(A.complex), A, A, N)
    elif builder == "abelian-identity-poly":
        _require_through(args, 1, "builds k[x]/(x^3) through --through + 3, with x^2 in degree 4")
        A = truncated_polynomial(QQ, N + 2)
        cert = abelian_normality(ChainMap.identity(A.complex), A, A, N)
    elif builder == "chcx-unit":
        cert = chcx_unit_certificate(exterior(QQ, N + 2), N)
    elif builder == "chcx-identity":
        cert = chcx_identity_certificate(exterior(QQ, N + 2), N)
    else:
        raise InputError(f"unknown certificate builder {builder!r}")
    ok, reports = verify_normal_pair(cert, args.through)
    results = {
        "pair": f"({cert.f_label}, {cert.g_label})",
        "verified": ok,
        "arrows": {k: v["ok"] for k, v in reports.items()},
        "notes": cert.notes,
    }
    witnesses = [
        {k: _stringify({kk: vv for kk, vv in v["detail"].items() if vv is not True})}
        for k, v in reports.items() if not v["ok"]
    ]
    return _report("check-normal-pair", args, results, witnesses), 0 if ok else 1


def cmd_loopgroup(args):
    from .simplicial import kan_loop_group, loop_group_pi0, universal_twisting_function, verify_twisting_function

    X = _simplicial_from_spec(_load_json(args.input), args.through + 2)
    G = kan_loop_group(X, args.through + 1)
    tau = universal_twisting_function(G)
    ok, wit = verify_twisting_function(tau, args.through, samples=args.samples, seed=args.seed)
    rank, torsion = loop_group_pi0(G)
    results = {
        "generators-level-0": len(G.generators(0)),
        "pi0": {"rank": rank, "torsion": torsion},
        "universal-twisting-function": ok,
    }
    return _report("loopgroup", args, results, [wit] if wit else []), 0 if ok else 1


def cmd_wbar(args):
    from .simplicial import (
        classifying_space,
        couniversal_twisting_function,
        verify_simplicial_identities,
        verify_twisting_function,
    )

    G = _group_from_spec(_load_json(args.input), args.through + 1)
    W = classifying_space(G, args.through)
    ok1, w1 = verify_simplicial_identities(W, args.through, samples=args.samples, seed=args.seed)
    nu = couniversal_twisting_function(W)
    ok2, w2 = verify_twisting_function(nu, args.through - 1, samples=args.samples, seed=args.seed)
    # level n is G_0 × ... × G_{n-1}: its size is a product, with no listing
    sizes = [1]
    for k in range(args.through):
        level = G.elements(k)
        sizes.append(None if sizes[-1] is None or level is None else sizes[-1] * len(level))
    results = {
        "levels": {str(n): "symbolic" if size is None else size for n, size in enumerate(sizes)},
        "simplicial-identities": ok1,
        "couniversal-twisting-function": ok2,
    }
    ok = ok1 and ok2
    return _report("wbar", args, results, [w for w in (w1, w2) if w]), 0 if ok else 1


def cmd_tcp(args):
    from .simplicial import universal_bundle, verify_simplicial_identities

    G = _group_from_spec(_load_json(args.input), args.through + 2)
    tcp, W, nu = universal_bundle(G, args.through)
    ok, wit = verify_simplicial_identities(tcp, args.through, samples=args.samples, seed=args.seed)
    return _report("tcp", args, {"simplicial-identities": ok}, [wit] if wit else []), 0 if ok else 1


def cmd_chains(args):
    from .chains import normalized_chains

    top = _homology_top(args)
    X = _simplicial_from_spec(_load_json(args.input), args.through)
    ring = _ring(args.ring)
    C = normalized_chains(X, ring, args.through)
    okd, wd = verify_differential(C.complex)
    H = homology(C.complex, top)
    results = {
        "d-squared-zero": okd,
        "one-connected": C.is_one_connected(),
        "homology": io_json.homology_to_dict(H),
    }
    return _report("chains", args, results, [wd] if wd else [],
                   payload=io_json.coalgebra_to_dict(C)), 0 if okd else 1


def cmd_wbar_homology(args):
    from .chains import acyclicity_of_universal_bundle, normalized_chains
    from .simplicial import classifying_space

    top = _homology_top(args)
    G = _group_from_spec(_load_json(args.input), args.through + 2)
    ring = _ring(args.ring)
    W = classifying_space(G, args.through + 1)
    CW = normalized_chains(W, ring, args.through + 1)
    H = homology(CW.complex, top)
    acyc, HU = acyclicity_of_universal_bundle(G, ring, args.through)
    results = {
        "wbar-homology": io_json.homology_to_dict(H),
        "universal-bundle-acyclic": acyc,
        "universal-bundle-homology": io_json.homology_to_dict(HU),
    }
    return _report("wbar-homology", args, results), 0 if acyc else 1


# name: (function, help, the options it takes besides --through, --seed, --json
# and --out)
COMMANDS = {
    "homology": (cmd_homology, "homology of a complex JSON through --through", ("input", "--ring")),
    "bar": (cmd_bar, "bar construction of an algebra JSON", ("input", "--ring")),
    "cobar": (cmd_cobar, "cobar construction of a coalgebra JSON", ("input", "--ring")),
    "check-twisting": (cmd_check_twisting, "Maurer-Cartan check of a cochain JSON", ("input", "--ring")),
    "borel": (cmd_borel, "Borel quotient of an algebra map JSON", ("input", "--ring")),
    "np": (cmd_np, "Nomura-Puppe sequence verification", ("input", "--ring")),
    "check-axioms": (cmd_check_axioms, "twisted-homotopical-category conditions on the standing fixtures",
                     ()),
    "check-normal-pair": (cmd_check_normal_pair, "verify a normal-pair certificate description", ("input",)),
    "loopgroup": (cmd_loopgroup, "Kan loop group of a reduced simplicial set", ("input", "--samples")),
    "wbar": (cmd_wbar, "classifying space of a simplicial group", ("input", "--samples")),
    "tcp": (cmd_tcp, "universal twisted cartesian product identities", ("input", "--samples")),
    "chains": (cmd_chains, "normalized chains of a finite simplicial set", ("input", "--ring")),
    "wbar-homology": (cmd_wbar_homology, "homology of the classifying space and universal bundle",
                      ("input", "--ring")),
}

# the commands that read an algebraic file: it names the ring, which --ring
# defaults to and must match
FILE_RING = {"homology", "bar", "cobar", "check-twisting", "borel", "np"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="htwist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, reads) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if "input" in reads:
            p.add_argument("input", help="input JSON file")
        p.add_argument("--through", type=_at_least(0), default=6, help="truncation degree (default 6)")
        if name in FILE_RING:
            p.add_argument("--ring", help="Z | Q | Fp:<p>; must be the input's ring (default: the input's ring)")
        elif "--ring" in reads:
            p.add_argument("--ring", default="Z", help="Z | Q | Fp:<p> (default Z)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampler seed")
        if "--samples" in reads:
            p.add_argument("--samples", type=_at_least(1), default=DEFAULT_SAMPLES,
                           help="sample count for symbolic levels")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        report, code = args.fn(args)
        _emit(report, args)
    except (InputError, FileNotFoundError, TruncationTooLow, NotReduced, NotConnected,
            NotOneConnected) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
