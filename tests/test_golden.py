"""Pinned sha256 digests of CLI reports and of the constructions built on
pair bases.

The CLI group runs every subcommand in-process through ``cli.main``, in text
and ``--json`` form, on inputs written from ``fixtures`` into the working
directory (so the report's ``inputs`` field is a stable relative name).  The
construction group serializes bundle totals with ``io_json.complex_to_dict``
and chain maps as their sorted (degree, source, target, coefficient)
entries, and the chains group serializes the normalized chains of W̄ and
of the universal bundle the same way.  A change that alters one of these outputs on purpose updates the
table here and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import pytest

from htwist import cli, io_json
from htwist.barcobar import bar
from htwist.bundles import (
    classifying_bundle_xi,
    classifying_bundle_zeta,
    natural_map_to_pushforward,
    pullback,
    pushforward,
)
from htwist.complexes import ChainMap, tensor_complex
from htwist.fixtures import (
    acyclic_extension_inclusion,
    coacyclic_collapse,
    exterior,
    exterior_pair,
    sphere_coalgebra,
    truncated_polynomial,
)
from htwist.chains import chains_of_simplicial_group, normalized_chains
from htwist.normality import abelian_normality
from htwist.rings import QQ, ZZ
from htwist.simplicial import classifying_space, cyclic_constant_group, universal_bundle


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, ensure_ascii=False).encode()).hexdigest()


def _map_entries(f: ChainMap) -> list:
    src, dst = f.source.basis, f.target.basis
    return sorted(
        [n, src.names(n)[j], dst.names(n)[i], str(v)]
        for n, m in f.components.items() for (i, j), v in m.entries.items()
    )


# ---------------------------------------------------------------------
# CLI reports.
# ---------------------------------------------------------------------

def _map_input(A, A2, f: ChainMap) -> dict:
    return {"source": io_json.algebra_to_dict(A), "target": io_json.algebra_to_dict(A2),
            "map": [{"degree": n, "from": a, "to": b, "coeff": c} for n, a, b, c in _map_entries(f)]}


def _write_inputs():
    """Input files, written from fixtures into the working directory."""
    A = exterior(QQ, 5)
    Ap = truncated_polynomial(QQ, 6)
    files = {
        "ext.json": io_json.complex_to_dict(A.complex),
        "alg.json": io_json.algebra_to_dict(A),
        "s2.json": io_json.coalgebra_to_dict(sphere_coalgebra(QQ, 6, 2)),
        "cochain.json": {
            "source": io_json.coalgebra_to_dict(bar(Ap, 5)),
            "target": io_json.algebra_to_dict(Ap),
            "cochain": {"values": [{"from": [3, "s(x)"], "to": [["x", "1"]]}]},
        },
        "map.json": _map_input(A, A, ChainMap.identity(A.complex)),
        "cert.json": {"builder": "chcx-unit"},
        "s1.json": {"kind": "S1min"},
        "c2.json": {"kind": "constant-cyclic", "order": 2},
        "c5.json": {"kind": "constant-cyclic", "order": 5},
        "circle.json": {"kind": "boundary-delta2"},
        "disk.json": {"kind": "complex", "simplices": [[0, 1, 2], [0, 1], [0, 2], [1, 2]]},
    }
    for name, data in files.items():
        with open(name, "w") as fh:
            json.dump(data, fh)


CLI_RUNS = {
    "homology": ["homology", "ext.json", "--through", "3"],
    "bar": ["bar", "alg.json", "--through", "4"],
    "cobar": ["cobar", "s2.json", "--through", "4"],
    "check-twisting": ["check-twisting", "cochain.json", "--through", "5"],
    "borel": ["borel", "map.json", "--through", "3"],
    "np": ["np", "map.json", "--through", "3"],
    "check-axioms": ["check-axioms", "--through", "3"],
    "check-normal-pair": ["check-normal-pair", "cert.json", "--through", "2"],
    "loopgroup": ["loopgroup", "s1.json", "--through", "3", "--samples", "50"],
    "wbar": ["wbar", "c2.json", "--through", "3"],
    "tcp": ["tcp", "c2.json", "--through", "3"],
    "chains": ["chains", "circle.json", "--through", "3"],
    # the 2-simplex: its diagonal has the term <012> -> <01>⊗<12>
    "chains-disk": ["chains", "disk.json", "--through", "3"],
    "wbar-homology": ["wbar-homology", "c2.json", "--through", "3"],
    "tcp-c5": ["tcp", "c5.json", "--through", "4"],
    "wbar-c5": ["wbar", "c5.json", "--through", "4"],
    "wbar-homology-c5": ["wbar-homology", "c5.json", "--through", "4"],
}


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


GOLDEN_CLI = {
    "bar:text": "3c784a853adc3f37677f48ac8efb2eb87c6549f1bd1db4e7c29104c9c2db8dee",
    "bar:json": "42c23b198bb18698b4e7c1d53f4532950f302bfa77ce050178ea9e8d96d21b9f",
    "borel:text": "3c28c6f46fdbd9e6427d5cd677a841bab8199b42df3390e06a96ac8cca9f2d20",
    "borel:json": "3c7234d60c5a990f2a47e5c4ee7d52db14c962a8f99a74bb74f9c48aa4911027",
    "chains:text": "720322d64f7d4424ebc74749494a77d2ff7996654515b2f36e1193f437debd8b",
    "chains:json": "2c2317969bb8dc8e318c776b952961ad047dd73a9b555ef172bfb16cbf506277",
    "chains-disk:text": "edf32ebd97f04218c344ef6f5826a6ab48f982a969f336747c873e2fab5e6bbe",
    "chains-disk:json": "cf45b3f1086025ed607e257b822fb9eeaf7d8c909ef895e30c8c06497e1240a3",
    "check-axioms:text": "e17bde54dd86187f991a77d2cca3869b2e2ca2ead8ee459681bbc979fe59127b",
    "check-axioms:json": "495654d89cc2d4a60f5d3fdc521cb434c031827486d62650df7914fa5e47e9c4",
    "check-normal-pair:text": "283e2e3731f51f7aac24f82d4995d739c3c2c85ff77fdb88a9e1534c6c330e50",
    "check-normal-pair:json": "e5c4e0cc57ea9e91ededd5ed36775060f9072717501b2ccfd33ae11074fb20a8",
    "check-twisting:text": "19320bf17d6fbf7124ceda6260fa5f2cce8eb09ed43ba8965b5e2224b6a82a59",
    "check-twisting:json": "24dab5eafe6355c28b9c81f0d7a4a57d4b7dd72c70109ddb6a2551fea3eafdd3",
    "cobar:text": "2e2a2b26f686a44837395e04e2509019a694f0d53e9a336e08637b2ad80fd6ca",
    "cobar:json": "000ec3fc5871d5ebd30a28540e848babdbf419cb1936202f4aeb5616c75fa2a4",
    "homology:text": "52a07041b0a6e77ceba15d989588af0935701adcbf31317ab2e035ceb789e71e",
    "homology:json": "0a10616f9b7cebd3438bc8e973d3f2ad42bc28920e02bdb9a4c7a8180ec69bcf",
    "loopgroup:text": "d2ce2e840a7c78055d1c7311c74b5e2f5dc396a45a763d8cdb3cb21200e1ee83",
    "loopgroup:json": "5c2a166e2a625466b13a7785fae8d296355cc8eccd45c76f7346d7cf95119a56",
    "np:text": "0525e2d7d8f8c830326b002999542149daecfffe6fd55381f5cffc46b2d30821",
    "np:json": "3121a4f2ba94da8daf818e448e8d2a783094fed6fd1bfcd58f4c0f56f5b0c7cf",
    "tcp:text": "4cabce4745502a2e901e2d176728610c1cafb8901005827ade42a4c8269c05d7",
    "tcp:json": "e4bd7895802a0408150e2a21116203b6c4b09fbcbbddf8f416ae090be18c292e",
    "wbar:text": "cdb82a17ac7cb284d034e707e942bf6230c97188179c70b8d3b8d0ace4b23c16",
    "wbar:json": "45ac8984e0633191364243128135a1731da24c42458326986ea071d6987aa63d",
    "wbar-homology:text": "3fb472e5535a7780b69cf118d4d75d0197daabcd98e07c8500e103511fa1555f",
    "wbar-homology:json": "9b8bb108fa3d159380e557029e07302482be2565e8601768ea61d48f4ca3ccd2",
    # C5 through 4, recorded before the constant-group structure maps
    "tcp-c5:text": "1adcf77242fad83fd79dc9070006bc7655911e4940efe5c36e9bdce96883417a",
    "tcp-c5:json": "0ced165b7cb1ec0b359a8f2e86a0b853f91d9832f6f226c0491de5f41e38016e",
    "wbar-c5:text": "37f4f7523ef8de4753621530931cb63b0fb4b3bda66bedebd2196967c8f73f81",
    "wbar-c5:json": "058882012b4bec483664ef4fd7fed94c70968c70740afda2cc93d4e34f80e496",
    "wbar-homology-c5:text": "9d52a5d359777942a588bee2fce3156e1dd9f5e49a0a22e6838f2ba0ada799ab",
    "wbar-homology-c5:json": "e541c5d921237379c2bc6081d579485c634389aca4b6020b284d86a175dd600f",
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("command", sorted(CLI_RUNS))
def test_cli_report_digest(command, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    argv = CLI_RUNS[command] + (["--json"] if mode == "json" else [])
    code, out = _run_cli(argv)
    assert _digest([code, out]) == GOLDEN_CLI[f"{command}:{mode}"]


# ---------------------------------------------------------------------
# Constructions on pair bases.
# ---------------------------------------------------------------------

def _constructions():
    N = 4
    A = exterior(QQ, N + 1)
    zeta = classifying_bundle_zeta(A, N)
    f, AE = acyclic_extension_inclusion(A, N + 1)
    pushed = pushforward(f, zeta, N, AE)
    C = sphere_coalgebra(QQ, N + 1, 2)
    g, CF = coacyclic_collapse(C, N + 1)
    pulled = pullback(g, classifying_bundle_xi(C, N), N, CF)
    P = exterior_pair(QQ, 7)
    cert = abelian_normality(ChainMap.identity(P.complex), P, P, 5)
    out = {
        "zeta(Lambda x)": io_json.complex_to_dict(zeta.total),
        "pushforward": io_json.complex_to_dict(pushed.total),
        "pullback": io_json.complex_to_dict(pulled.total),
        "tensor_complex": io_json.complex_to_dict(
            tensor_complex(A.complex, truncated_polynomial(QQ, N).complex, N)),
        "theta N-slot": io_json.complex_to_dict(cert.theta.N),
        "natural_map_to_pushforward gamma": _map_entries(
            natural_map_to_pushforward(f, zeta, pushed).gamma),
    }
    for idx, (_, m) in enumerate(cert.arrows):
        for part in ("alpha", "mu", "nu", "beta"):
            out[f"arrow{idx} {part}"] = _map_entries(getattr(m, part))
    return out


GOLDEN_CONSTRUCTIONS = {
    "zeta(Lambda x)": "5fd84c71355a5a238c40dfbb29f0791f0c09d6db9fc08158c1cde020a8235dc8",
    "pushforward": "22b25d60249674fa85f1f13ca62913d0f54e476ae52c77acd2ff0005f37985b6",
    "pullback": "9c3abedd43dfa5f716037946ed21f2f845af41f2511cf843788dbc2ea8d62a63",
    "tensor_complex": "9a18f2952228f9aa1e9b35a74ac3c639cb85efbd7cdbf3f98a0a2b432a3c113d",
    "theta N-slot": "f7e4dac9efc94116869ff60c1c85cb809412c55f341b40407703c76774139741",
    "natural_map_to_pushforward gamma": "ed8295f4d16ac230dedced2bdff81054699c7888e77745e49da1253e43fc0939",
    "arrow0 alpha": "f3e750afe4f900fd503812ef7320b47ddedace2ce8157bd324c0c00045218ae7",
    "arrow0 mu": "619e63a97cb93be25e924ae52996921f7fbb1b7a04c1bdc436c239b254220ec2",
    "arrow0 nu": "bb80db75d942ddf1008d59af0bd797e00eed621564dd2c8ddaf899ef3284995d",
    "arrow0 beta": "67a574635e8a055e7c682080f16d9bd513cca53ce982d35077d432d5626b46e8",
    "arrow1 alpha": "0d64c49d9732ffd126ef06b0d2753f37c002b495585c7303cc2363b2c3dfda57",
    "arrow1 mu": "6289eda01a94264593a8ffae24ef47e71fef5f90d3f6c12ffe9f3ae4f08eb50b",
    "arrow1 nu": "61b90356ea436c10696895db05c3f0148cf490177a3c88889102b1c80773a682",
    "arrow1 beta": "67a574635e8a055e7c682080f16d9bd513cca53ce982d35077d432d5626b46e8",
}


def test_construction_digests():
    got = {k: _digest(v) for k, v in _constructions().items()}
    assert got == GOLDEN_CONSTRUCTIONS


# ---------------------------------------------------------------------
# Normalized chains of W̄ and of the universal bundle.
# ---------------------------------------------------------------------

def _chain_complexes():
    return {
        "Wbar C5 at 5": normalized_chains(classifying_space(cyclic_constant_group(5, 5), 5), ZZ, 5),
        "Wbar C5 x_nu C5 at 4": normalized_chains(
            universal_bundle(cyclic_constant_group(5, 6), 4)[0], ZZ, 4),
        # the set-up of the zhomology bench job
        "Wbar C4 x_nu C4 at 4": normalized_chains(
            universal_bundle(cyclic_constant_group(4, 6), 4)[0], ZZ, 4),
        "Pontryagin C3 at 3": chains_of_simplicial_group(cyclic_constant_group(3, 3), ZZ, 3)[0],
    }


# recorded before W̄ and the bundle took their index tables by formula
GOLDEN_CHAINS = {
    "Wbar C5 at 5": "88d06ed4bff2623acd783ab1d9cac4c8093ecf2b9fee3117c6684fae0c5fbf22",
    "Wbar C5 x_nu C5 at 4": "cc2e9a937b803e85fa45ceae45a7a2075777c5b945bf097729dcabfd1b997e96",
    "Wbar C4 x_nu C4 at 4": "7a39ce85bdb5b632bca0ff8b13aee6c8f58443a12039a362da0dc0c37cc1cf83",
    "Pontryagin C3 at 3": "6edebbdc8a7e43d4bfcde848f23054ad8fa4b1df04081d781c49a37aa530af16",
}


def test_chain_digests():
    got = {k: _digest(io_json.complex_to_dict(C.complex)) for k, C in _chain_complexes().items()}
    assert got == GOLDEN_CHAINS
