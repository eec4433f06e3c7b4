"""One benchmark job in a fresh interpreter: set up, run once, report.

    python3 bench/job.py --workload NAME --seed N --workdir DIR --mode MODE

MODE is ``plain`` (timed only), ``spans`` (every layer traced, see
tracing.py), ``profile`` (one cProfile pass for the rings layer) or
``setup`` (set up, then stop).  The
last line of standard output is a JSON object with the set-up end time on
the system-wide monotonic clock, the job's wall time, the process's peak
resident set and a summary of the job's outputs.  The summary is checked
by the parent (checks.py), which does not import htwist.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_htwist():
    """Import htwist from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import htwist

    if Path(htwist.__file__).resolve().parent != SRC / "htwist":
        raise SystemExit(f"htwist imported from {htwist.__file__}, not {SRC}")


def run_cli(argv):
    """htwist's CLI in this process; returns (exit code, parsed JSON report)."""
    from htwist import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


# ---------------------------------------------------------------------
# Workloads: setup(seed, workdir) -> inputs; job(inputs) -> output summary.
# Jobs reach htwist through module attributes, so traced runs see the
# wrapped functions.
# ---------------------------------------------------------------------

def setup_normality(seed, workdir):
    from htwist import fixtures, rings

    return fixtures.exterior_pair(rings.QQ, 7)


def job_normality(A):
    from htwist import complexes, normality

    cert = normality.abelian_normality(complexes.ChainMap.identity(A.complex), A, A, 6)
    ok, reports = normality.verify_normal_pair(cert, 5)
    return {
        "verified": ok,
        "arrows": {label: {"ok": r["ok"],
                           "checks": {k: v is True for k, v in r["detail"].items()}}
                   for label, r in reports.items()},
        "theta_N_dims": [cert.theta.N.basis.dim(n) for n in range(cert.theta.N.truncation + 1)],
    }


CONSTRUCTIONS_N = 9


def setup_constructions(seed, workdir):
    from htwist import fixtures, rings

    N = CONSTRUCTIONS_N
    return fixtures.algebra_corpus(rings.QQ, N), fixtures.coalgebra_corpus(rings.QQ, N)


def job_constructions(corpora):
    from htwist import barcobar, complexes, twisting

    algebras, coalgebras = corpora
    N = CONSTRUCTIONS_N
    out = []

    def record(kind, idx, X, t, T):
        dims = lambda Y: [Y.basis.dim(n) for n in range(N + 1)]
        out.append({
            "item": f"{kind}{idx}",
            "d_squared_zero": complexes.verify_differential(X.complex)[0],
            "maurer_cartan": twisting.verify_twisting_cochain(t)[0],
            "twisted_d_squared_zero": complexes.verify_differential(T.complex)[0],
            "dims": dims(X.complex),
            "twisted_dims": dims(T.complex),
        })

    for idx, A in enumerate(algebras):
        B = barcobar.bar(A, N)
        t = twisting.couniversal_cochain(B, A)
        T = twisting.twisted_tensor(twisting.self_comodule_right(B), twisting.self_module_left(A),
                                    t, "comodule-first", N, verify=False)
        record("bar", idx, B, t, T)
    for idx, C in enumerate(coalgebras):
        O = barcobar.cobar(C, N)
        t = twisting.universal_cochain(C, O)
        T = twisting.twisted_tensor(twisting.self_comodule_right(C), twisting.self_module_left(O),
                                    t, "comodule-first", N, verify=False)
        record("cobar", idx, O, t, T)
    return {"items": out}


def setup_zhomology(seed, workdir):
    """(a) the C5 spec; (b) the chains of W̄C4 ×_ν C4 at N=4, with the basis
    order in each degree shuffled by the seed.  The shuffle is kept at C4
    and N=4: the minimal-pivot SNF is so sensitive to order that shuffled
    C4 at N=5, or C5 at N=4, runs for minutes."""
    from htwist import chains, io_json, rings, simplicial

    spec = workdir / "c5.json"
    spec.write_text(json.dumps({"kind": "constant-cyclic", "order": 5}))
    tcp, _, _ = simplicial.universal_bundle(simplicial.cyclic_constant_group(4, 6), 4)
    data = io_json.complex_to_dict(chains.normalized_chains(tcp, rings.ZZ, 4).complex)
    rng = random.Random(seed)
    for names in data["basis"].values():
        rng.shuffle(names)
    pos = {(int(deg), name): i for deg, names in data["basis"].items()
           for i, name in enumerate(names)}
    # entry order as complex_to_dict writes it for the shuffled basis
    data["d"].sort(key=lambda e: (e["degree"], pos[(e["degree"], e["from"])],
                                  pos[(e["degree"] - 1, e["to"])]))
    shuffled = workdir / f"wbar_c4_tcp_seed{seed}.json"
    shuffled.write_text(json.dumps(data))
    return str(spec), str(shuffled)


def job_zhomology(paths):
    spec, shuffled = paths
    code_a, rep_a = run_cli(["wbar-homology", spec, "--through", "4", "--ring", "Z", "--json"])
    code_b, rep_b = run_cli(["homology", shuffled, "--through", "3", "--ring", "Z", "--json"])
    return {"wbar_homology": {"exit": code_a, "results": rep_a["results"]},
            "shuffled_homology": {"exit": code_b, "results": rep_b["results"]}}


def setup_simplicial(seed, workdir):
    spec = workdir / "c5.json"
    spec.write_text(json.dumps({"kind": "constant-cyclic", "order": 5}))
    from htwist import cli  # noqa: F401  (import cost belongs to set-up)

    return str(spec)


def job_simplicial(spec):
    code_t, rep_t = run_cli(["tcp", spec, "--through", "5", "--json"])
    code_w, rep_w = run_cli(["wbar", spec, "--through", "5", "--json"])
    return {"tcp": {"exit": code_t, "results": rep_t["results"]},
            "wbar": {"exit": code_w, "results": rep_w["results"]}}


WORKLOADS = {
    "normality": (setup_normality, job_normality),
    "constructions": (setup_constructions, job_constructions),
    "zhomology": (setup_zhomology, job_zhomology),
    "simplicial": (setup_simplicial, job_simplicial),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "profile", "setup"), default="plain")
    ap.add_argument("--job-id", type=int, default=0)
    ap.add_argument("--spans-out", default=None, help="write the recorded spans here")
    args = ap.parse_args(argv)

    import_htwist()
    setup, job = WORKLOADS[args.workload]
    inputs = setup(args.seed, Path(args.workdir))
    result = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    if args.mode == "spans":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        output = tracer.run(job, inputs)
        result["wall_s"] = time.perf_counter() - t0
        metrics, extra = tracer.layer_metrics()
        result["layers"] = metrics
        result["self_s_all_layers"] = extra["self_s_all_layers"]
        result["span_count"] = extra["span_count"]
        result["largest_complex"] = tracer.largest_complex()
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"job_id": args.job_id,
                           "fields": ["name", "layer", "start", "end", "parent", "job_id"],
                           "spans": [[n, *s, args.job_id] for n, s in zip(tracer.names, tracer.spans)]},
                          fh, separators=(",", ":"))
    elif args.mode == "profile":
        import cProfile

        from tracing import profile_rings

        profiler = cProfile.Profile()
        t0 = time.perf_counter()
        profiler.enable()
        output = job(inputs)
        profiler.disable()
        result["wall_s"] = time.perf_counter() - t0
        result["layers"] = profile_rings(profiler)
    else:
        t0 = time.perf_counter()
        output = job(inputs)
        result["wall_s"] = time.perf_counter() - t0

    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["output"] = output
    print(json.dumps(result))


if __name__ == "__main__":
    main()
