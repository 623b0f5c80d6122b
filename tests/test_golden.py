"""Byte-stability goldens for the exported and serialised outputs.

Each case renders one output to bytes (an SDPA export, a constraint-name
list, a certificate's JSON, a pencil's raw float64 buffer) and compares its
sha256 digest with the digest recorded before the class inequalities were
moved into one table.  A refactor that changes a single bit of any of these
outputs, or the order of any constraint, fails here.  The PEP cases and the
logistic roots use only elementwise float64 arithmetic; the certificate
cases, the ``report`` JSON and the solver trace CSVs (recorded before the
run loop's products were respelled), the ``check`` JSONs and the
violation search (recorded before the bound checks stopped recording
distances they do not read; the hgm ones before the report's two hgm checks
shared a run; the logistic eg-random one before it stepped its nonlinear
operator with eg2 in place of gd on the extrapolated composite) also take BLAS dot products of short vectors, and the
``pep-bound`` JSONs (recorded before the solve factored each iterate once and
verified its candidates best-first) BLAS products and LAPACK factorisations
of small matrices, so their digests hold where those round alike (x86-64
builds of numpy's bundled OpenBLAS, whose kernels use FMA).  The two
logistic ``run`` CSVs at the benchmark's length were recorded before run
stepped 1-D operators on Python floats.  Regenerate the digests with
``python tests/test_golden.py`` only for an intended change of output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from pep_reference import ball_norm_pep, build_expansiveness_matrices, delta_composite_pep

from vicert import certify, cli, harness, pep
from vicert.operators import Affine, LogisticGrad, load_operator, rotation
from vicert.solvers import METHODS, SolverConfig, run

_SYS_POINTS = [
    ("p", [0.3, -1.2], [1.1, 0.4]),
    ("q", [-0.7, 0.5], [-0.2, 0.9]),
    ("r", [1.4, 0.8], [0.6, -1.3]),
    ("s", [0.0, 0.0], [0.0, 0.0]),
]
_SAMPLED_OP = Affine([[1.0, 2.0], [-1.5, 0.5]], offset=[0.25, -1.0])
_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# stepsizes as fractions of 1/L (1/L^2 for hgm), as the benchmark's trace runs use
_STEP = {"gd": 0.1, "pp": 0.5, "eg": 0.5, "eg2": 0.5, "og": 0.25, "eftp": 0.25, "hgm": 0.5}


def _sdpa(prob, tmp_path) -> bytes:
    path = tmp_path / f"{prob.name}.dat-s"
    pep.export_sdpa(prob, path)
    return path.read_bytes()


def _names(prob) -> bytes:
    return json.dumps(list(prob.inequalities + prob.equalities)).encode()


def _js(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _problems():
    # hand-*: the hand-coded reference; sym-*: the library's table-built problem
    yield "hand-1-.5-.5", build_expansiveness_matrices(1.0, 0.5, 0.5)
    yield "hand-1.3-.7-.45", build_expansiveness_matrices(1.3, 0.7, 0.45)
    yield "sym-1-.5-.5", pep.build_expansiveness_pep(1.0, 0.5, 0.5)
    yield "sym-1.3-.7-.45", pep.build_expansiveness_pep(1.3, 0.7, 0.45)
    for cls in ("monotone-lipschitz", "cocoercive"):
        for K in (3, 15):
            yield f"norm-{cls}-K{K}", pep.build_norm_pep(1.1, 0.45, 0.6, K, cls)
    yield "norm-ball-K3", ball_norm_pep(1.1, 0.45, 0.6, 3)
    yield "delta-f", pep.build_delta_pep(1.0, 0.5, 0.7)
    yield "delta-f-eg", delta_composite_pep(1.0, 0.5, 0.7)


def _traces():
    for name, op, x0 in (("rotation", rotation(), [1.0, 0.0]),
                         ("bilinear4", load_operator(_FIXTURES / "bilinear4.json"),
                          [0.5, -1.0, 0.25, 2.0]),
                         ("logistic", LogisticGrad(1.0, 0.01), [2.0])):
        L = op.constants.lipschitz
        for method in METHODS:
            g = _STEP[method] / (L * L if method == "hgm" else L)
            steps = {"gamma1": g, "gamma2": 0.5 * g} if method == "eg2" else {"gamma": g}
            cfg = SolverConfig(method, iters=300, x0=np.array(x0), **steps)
            yield f"{name}-{method}", run(op, cfg, x_star=op.root()).to_csv().encode()


# the check JSONs of the five checks that run through harness._run_from, the
# eg-random one on an affine and on a nonlinear operator, and of the two hgm
# checks; gd, hgm and hgm-affine are the command lines of the console-script
# CI step (which leaves gd's --ell to the declared constants)
_CHECK_ARGV = {
    "gd-diag12": ["gd", "--op", str(_FIXTURES / "diag12.json"), "--ell", "2",
                  "--gamma", "0.5", "--iters", "5"],
    "pp-diag12": ["pp", "--op", str(_FIXTURES / "diag12.json"), "--ell", "2",
                  "--gamma", "0.5", "--iters", "300"],
    "eg-random-rotation": ["eg-random", "--op", "rotation", "--gamma1", "1",
                           "--gamma2", "0.5", "--iters", "300"],
    "eg-random-logistic": ["eg-random", "--op", "logistic", "--gamma1", "3",
                           "--gamma2", "1.5", "--iters", "300"],
    "eg-last-rotation": ["eg-last", "--op", "rotation", "--gamma", "0.7", "--iters", "300"],
    "eftp-rotation": ["eftp", "--op", "rotation", "--gamma", "0.25", "--iters", "300"],
    "hgm-diag12": ["hgm", "--op", str(_FIXTURES / "diag12.json"), "--Lambda", "0",
                   "--gamma", "0.25", "--iters", "300"],
    "hgm-affine-diag12": ["hgm-affine", "--op", str(_FIXTURES / "diag12.json"),
                          "--iters", "300"],
}


# pep-bound's JSON: the solver record and the returned point, at problems
# whose best verified iterate is the last (most), one before it (norm K3),
# and ones stopped by a failed Schur factorisation (norm K2 at gamma 1, delta)
_PEP_BOUND_ARGV = {
    "expansiveness-1-.5-.5": ["expansiveness", "--ell", "1", "--gamma1", "0.5",
                              "--gamma2", "0.5"],
    "expansiveness-1-1-1": ["expansiveness", "--ell", "1", "--gamma1", "1", "--gamma2", "1"],
    **{f"norm-K{K}-.5": ["norm", "--L", "1", "--gamma1", "0.5", "--gamma2", "0.5",
                         "--K", str(K)] for K in (1, 2, 3)},
    "norm-K2-1": ["norm", "--L", "1", "--gamma1", "1", "--gamma2", "1", "--K", "2"],
    "delta-1.2": ["delta", "--L", "1", "--gamma1", "1.2", "--gamma2", "1.2"],
}


def outputs(tmp_path) -> dict[str, bytes]:
    out = {}
    # the CSV the console-script CI step writes, through the same entry point
    eg_csv = tmp_path / "eg.csv"
    cli.main(["run", "--op", "rotation", "--method", "eg", "--gamma", "0.5",
              "--iters", "10000", "--x0", "1,0", "--out", str(eg_csv)])
    out["cli:run-rotation-eg-10000"] = eg_csv.read_bytes()
    # the benchmark's logistic runs: pp (its resolvent on floats too) and eg2
    for method, steps in (("pp", ["--gamma", "0.01"]),
                          ("eg2", ["--gamma1", "0.01", "--gamma2", "0.005"])):
        csv = tmp_path / f"logistic-{method}.csv"
        assert cli.main(["run", "--op", "logistic", "--method", method, *steps,
                         "--iters", "10000", "--x0", "2", "--out", str(csv)]) == 0
        out[f"cli:run-logistic-{method}-10000"] = csv.read_bytes()
    out["report:20240406-300"] = harness.report_to_json(
        harness.run_report(seed=20240406, iters=300)).encode()
    for key, blob in _traces():
        out[f"csv:{key}"] = blob
    for key, argv in _CHECK_ARGV.items():
        path = tmp_path / f"check-{key}.json"
        assert cli.main(["check", "--theorem", *argv, "--out", str(path)]) == 0
        out[f"check:{key}"] = path.read_bytes()
    for key, argv in _PEP_BOUND_ARGV.items():
        path = tmp_path / f"pep-bound-{key}.json"
        assert cli.main(["pep-bound", "--problem", *argv, "--out", str(path)]) == 0
        out[f"pep-bound:{key}"] = path.read_bytes()
    out["violation-search:7"] = json.dumps(
        harness.check_eg_norm_violation_regimes(seed=7), sort_keys=True).encode()
    for a, delta in ((1.0, 0.01), (-2.5, 3.0)):
        out[f"logistic-root:{a}-{delta}"] = LogisticGrad(a, delta).root().tobytes()
    for key, prob in _problems():
        out[f"sdpa:{key}"] = _sdpa(prob, tmp_path)
        out[f"names:{key}"] = _names(prob)
    for cls, param in (("cocoercive", 1.7), ("monotone", None),
                       ("lipschitz", 1.3), ("monotone+lipschitz", 2.9)):
        ps = certify.PointSystem.build(_SYS_POINTS, cls, param)
        out[f"interp:{cls}"] = _js(certify.check_interpolation(ps).to_json())
    out["interp:counterexample"] = _js(certify.check_interpolation(
        certify.build_counterexample(1.3, 0.7).point_system()).to_json())
    for cls in ("cocoercive", "monotone", "lipschitz", "monotone+lipschitz",
                "star-monotone", "star-cocoercive"):
        rep = certify.sampled_property_check(_SAMPLED_OP, cls, trials=40, seed=11,
                                             parameter=2.0)
        out[f"sampled:{cls}"] = _js(rep.to_json())
    for name, A, ell in (("rotation", [[0, 1], [-1, 0]], 1.0),
                         ("diag", [[1, 0], [0, 2]], 2.0),
                         ("shear", [[1, 1], [0, 1]], 2.0)):
        rep = certify.linear_star_equiv_check(A, ell, trials=50, seed=5)
        out[f"star-equiv:{name}"] = _js(rep.to_json())
        out[f"pencil:{name}"] = certify.cocoercivity_pencil(A, 0.7 * ell).tobytes()
    return out


GOLDEN = {
    'sdpa:hand-1-.5-.5': '3fcf26c6d036efd70d4d0a95fdd003addbaf4544ec9e4911a0080a3fbed14f54',
    'names:hand-1-.5-.5': '97cc584c55638af9ccc2b87661aeb772c45875f563f0c69936ffdf2f26b9d54d',
    'sdpa:hand-1.3-.7-.45': '7aebad421d6ac5b2a8bf2804244c3b69d227dabb30e3c75fddfec27ea98d31ff',
    'names:hand-1.3-.7-.45': '97cc584c55638af9ccc2b87661aeb772c45875f563f0c69936ffdf2f26b9d54d',
    'sdpa:sym-1-.5-.5': '3fcf26c6d036efd70d4d0a95fdd003addbaf4544ec9e4911a0080a3fbed14f54',
    'names:sym-1-.5-.5': '97cc584c55638af9ccc2b87661aeb772c45875f563f0c69936ffdf2f26b9d54d',
    'sdpa:sym-1.3-.7-.45': '7aebad421d6ac5b2a8bf2804244c3b69d227dabb30e3c75fddfec27ea98d31ff',
    'names:sym-1.3-.7-.45': '97cc584c55638af9ccc2b87661aeb772c45875f563f0c69936ffdf2f26b9d54d',
    'sdpa:norm-monotone-lipschitz-K3': '028885e60b95d57e5f242909d1d1ad75f783f05408e6af85033a11bf5eaba348',
    'names:norm-monotone-lipschitz-K3': 'd69dbf1e226e1b028c50a492c47e2a32fbdaddde7fc88d29a0cf38dc2e42b9b7',
    'sdpa:norm-monotone-lipschitz-K15': '0ce3e99f30d13a5d1d7008dabd5f0753355beef57415ce427adaadb67389d99e',
    'names:norm-monotone-lipschitz-K15': 'b8c682242cdb1cc20a3cd508cc825e9beeb9f0a9aea0167659eef5ea4c784d4d',
    'sdpa:norm-cocoercive-K3': 'e0932fe740ddb31b0aa63be0c6b01d6eb2adab61ebe6b305800115d70bd1f775',
    'names:norm-cocoercive-K3': 'a58f052ccb8d6881efa6ea691bf284255c5de77029fec7463ee9a90993db7189',
    'sdpa:norm-cocoercive-K15': '02041a3f369fbd78bf28514403c42654cca3c82b9924fddaa9e503db3ea895f2',
    'names:norm-cocoercive-K15': 'ad384e952cc6f4de9845b5466bcc5ae682b52ac79d6c621eb4f29f8d32bc4ab3',
    'sdpa:norm-ball-K3': '99db01131a683743f9deeacadfee82e490bb8472891d2ea49278cb08349c3f76',
    'names:norm-ball-K3': 'a96553a99336d08c1b4dcb00464653456ff9523ce8277f8f7cbb298eedf2ccae',
    'sdpa:delta-f': '348f9ebe655c5c0bf365033d67e7d93b065aa2cee54ac1e5712144c8971115fb',
    'names:delta-f': '5511099dcf49c60b4894bf04fd240f16bb73c2daa0f9a622f034d1141cc2cfe7',
    'sdpa:delta-f-eg': '1a4be7912a69f0e80143854a545ef9574475bafd31ab4bef8c01002eee585b3a',
    'names:delta-f-eg': '5511099dcf49c60b4894bf04fd240f16bb73c2daa0f9a622f034d1141cc2cfe7',
    'interp:cocoercive': '843f52b75cdd85394ed8f145e967659b3158fc64a24e92b50c745f0fd23ef59a',
    'interp:monotone': 'd4b135fcf83e51787f41f2305b67453546dff3fd904873f66968fbba7b42210f',
    'interp:lipschitz': '582e80956d4bd24f9948a4f61e6f182d0b0c923331f4755703fe9f6c1ec6c096',
    'interp:monotone+lipschitz': '2a042070dd110e34c82b4e3fb9359873600bfa7f9e6062b478e4d2383ad081f9',
    'interp:counterexample': '2ab941b056807af30b4596b4a5eee977b152ad4e1b671463aff5753b6ad2ea5a',
    'sampled:cocoercive': 'd273ae20790be0fd33d389ad2bd9d82f65c43fa955939509b48aaffbaa42d962',
    'sampled:monotone': '10e429760b8a4a72f484d2ac8c5fa67516ce43c7a642aa555ea348a00b2c5adf',
    'sampled:lipschitz': '8b297f2876709517cf616d8372bbc9a4e285fa66ef263d07eb456c031fd4df42',
    'sampled:monotone+lipschitz': '8b297f2876709517cf616d8372bbc9a4e285fa66ef263d07eb456c031fd4df42',
    'sampled:star-monotone': 'ce48ee1342c8d97ab51f707b838ea30433ead74a26f0b91c7380cd63c5c76833',
    'sampled:star-cocoercive': '40766d72ead31ad37fdab78b6ee122278d71c12f17805dcda146e85b9bd8d063',
    'star-equiv:rotation': '9df9cea488bc650fec5b9925fcc7c42707fe532ad265d8009d2c5be25cbe3efc',
    'pencil:rotation': 'd16f368b7221f917a94c823f80ec0e4eba73fbac120632bdcfe5a2b966be22e5',
    'star-equiv:diag': '65c5d748a9c24b43313dd277244993d7c629f1282f2c309bc8d621370a7f4ced',
    'pencil:diag': 'b855e72e54dfee9a3761fb61a890ead0d0b434b153424760dabe3fec64ec3f1d',
    'star-equiv:shear': 'ffbcd56562dea4a9b2a8e3f4245707ff04b8464f56932e4f10d02bdf9b9b9627',
    'pencil:shear': '110f07453be02a7641e3225e43e7695c8cd8c0ea0adf530d9f2c9567eea25e2d',
    'cli:run-rotation-eg-10000': '6310e2ea03cb829a7e5f3ce3c218eba9fee2ed3ec4996864c807c9b64e357d1c',
    'cli:run-logistic-pp-10000': '5121b5350707077e9f6e14649f8e199bd155eaaab8f9862b0aba8559c8066146',
    'cli:run-logistic-eg2-10000': 'a0aa90d6912b54df8f0d4d9dd1dc049559f3542904e8a456e111d5cdcd98a895',
    'report:20240406-300': '254b11129b4f8e8d6fadeee0986ab056a65f2462e59935ea5c35d73257664acf',
    'csv:rotation-gd': 'b1929bdb0c04a190f1260220f590b8d85b5d91facc6b6d1b82d530830a3b03eb',
    'csv:rotation-pp': 'c5f87ecc9d6871f835a41262baeeb1713e68cf2a0ce4962cc6e8babfea0b4d72',
    'csv:rotation-eg': '0951e4c64f11aa6fd9ee6e443de0d50239311ebd343a44a66ee6b5a752c1a13a',
    'csv:rotation-eg2': 'faafc8d66147fc4644319400f7cd4a869cc8dafefb850feeaebf6b5c24701ce4',
    'csv:rotation-og': '126fe1502ac6664c825c65efb3e4585f5a578773dda4128929cb9af808cceb27',
    'csv:rotation-eftp': 'a5457623e7c38426d5fd932d14ec607ece7030c62a0b520a854dfa15ae6efd61',
    'csv:rotation-hgm': '4a17c70721bdf2c7349cc2eba5f9add4cadff276bfbe9faf4771f63f5e62c07d',
    'csv:bilinear4-gd': '68c2ed858881f77b2de807c1dc16931e7595f16a0e80906027ef19d35577ab19',
    'csv:bilinear4-pp': '8727293d2e869ac42cad8facd049a81c02218bfa936273ff0457a7ec55167015',
    'csv:bilinear4-eg': '497da0612dad88a19c9da300dda680b01880ba9d0962b2e9b92454c75842a64e',
    'csv:bilinear4-eg2': 'ad6ca5538300fdb13cf18162fd1ccce6d44eee414837a74ec47252443fe2bb6b',
    'csv:bilinear4-og': '6c01dd9fb78cf3644e14822fc8da39580735eca01b89cf483ecdc9994696da63',
    'csv:bilinear4-eftp': 'a5362406be19151ac1ddfbed5834e6a0bc686254ca79ce90168cba4c1049254f',
    'csv:bilinear4-hgm': '4b0e50a64da0c3a603eb110129cb866007dbaeee40a82e4c92a2b3dfa4fd4b7d',
    'csv:logistic-gd': '2e53aee3fc7d7da1301ee9f07c494fe4ae2e150c35ca6447d06a5fa5eee9e15e',
    'csv:logistic-pp': '20370def9ca3dc46439740c2f18cbe76a2d558cfeddd61979d8e1919f60a5d44',
    'csv:logistic-eg': '7071c7f190e0593d1eb0b70a53cea10f3c33249879a6d5f47c54900239d3538e',
    'csv:logistic-eg2': 'eae9b2e96ec0ac1aac57a84b449cb2e93dd757bd967e47f661851dbd4228254f',
    'csv:logistic-og': 'abc7974a14f4f8526eeb4e530b57e9bdc39bed896c11390a6be869a1bde19ef3',
    'csv:logistic-eftp': 'fe0aae566982f30936e198aebb6c1b6c7005a39670310039783d69d986bd886c',
    'csv:logistic-hgm': '845e060e6bf8ac8c4738f0c0eb5e67bbdeccb33e53611052380a0efee850b06f',
    'check:gd-diag12': '8974fe6745001843b9c3734cd236fffaefdf273bad5825bb307d8991ddce5809',
    'check:pp-diag12': '7a18427438cc81eaf84c8794dc9d33eda83ff319e13194181e345faf221bf46a',
    'check:eg-random-rotation': '1266296a27977c0962d6f1445c8b109d7faece02e8b1585c962ccb77eed08ae7',
    'check:eg-random-logistic': 'f0ada36a0ba0c72925522f3ca60ad9f1e221d6bddcf055c0769101863b17bd1f',
    'check:eg-last-rotation': 'a0c79ab4944fc68b3c219f46a4015c0e162662e7c7ce70d0c07d9a9f77e8ca32',
    'check:eftp-rotation': 'f8d88f50fcbf938d3a33f0e6c97598209c9d103e0954a1fc3ddbfaa29b39b7df',
    'check:hgm-diag12': '1363965213b9ae836c23c18ab8f90ace7db163c229df05ad90806774d7558e78',
    'check:hgm-affine-diag12': 'd91a2f70252639f3e304886de20a6e6cd601ad3069cb2391d931a691b4b87817',
    'pep-bound:expansiveness-1-.5-.5': 'a3a2ed0a847f8763fbe6460e22deedac4083b6f7673ce5e2c379bb9636d4c363',
    'pep-bound:expansiveness-1-1-1': '1d4bf8f5865b73f6e7c04e98ff310475378b15a425603b8eaa2590215f83fbb2',
    'pep-bound:norm-K1-.5': '35b689e0038fbee3729b5742de265ce5396fd3366cb14d06f96741109d6498f8',
    'pep-bound:norm-K2-.5': '411245628986359f2f7f608cb436428a0838c5552ff189314f2bab913f2a4986',
    'pep-bound:norm-K3-.5': 'b39ff56019b77a5a55237b719706631f341477523800432f06b03e1f36cac933',
    'pep-bound:norm-K2-1': 'e5f5c3ec3f687ad94eab1883f9267a8c42e25748b8e8599c82a166221aad8d7b',
    'pep-bound:delta-1.2': '4c14132b5d47e84d5c75f71a84cb6383d4672629a66bf8c4cdbb6239dff460e8',
    'violation-search:7': 'a8939eb8e090cd8d076ce6782690682fc711b477db4c9c9be9373ebc19d60531',
    'logistic-root:1.0-0.01': '469281dcf43633cace3646f3e6fe805257d816a3ee7ee8cde76b63ea0685a641',
    'logistic-root:-2.5-3.0': 'c85078c9bccf5245e71fa91a71391e5e26f1f9e5e1178c367b01243248c71341',
}


def test_outputs_match_recorded_digests(tmp_path):
    got = {k: hashlib.sha256(v).hexdigest() for k, v in outputs(tmp_path).items()}
    assert sorted(got) == sorted(GOLDEN)
    changed = [k for k in GOLDEN if got[k] != GOLDEN[k]]
    assert not changed, f"outputs changed bytes: {changed}"


def test_digest_script_checks_a_file(tmp_path, capsys):
    # the console-script CI step checks the CLI's files with this script
    import golden_digest

    path = tmp_path / "root.bin"
    path.write_bytes(LogisticGrad(1.0, 0.01).root().tobytes())
    assert golden_digest.main("logistic-root:1.0-0.01", str(path)) == 0
    assert golden_digest.main("logistic-root:-2.5-3.0", str(path)) == 1
    assert "logistic-root:-2.5-3.0" in capsys.readouterr().err


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, blob in outputs(pathlib.Path(tmp)).items():
            print(f"    {key!r}: {hashlib.sha256(blob).hexdigest()!r},")
