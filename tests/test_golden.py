"""Byte-stability goldens for the exported and serialised outputs.

Each case renders one output to bytes (an SDPA export, a constraint-name
list, a certificate's JSON, a pencil's raw float64 buffer) and compares its
sha256 digest with the digest recorded before the class inequalities were
moved into one table.  A refactor that changes a single bit of any of these
outputs, or the order of any constraint, fails here.  The PEP cases use
only elementwise float64 arithmetic; the certificate cases also take BLAS
dot products of short vectors, so their digests hold where those round
alike (x86-64 builds of numpy's bundled OpenBLAS, whose kernels use FMA).
Regenerate the digests with ``python tests/test_golden.py`` only for an
intended change of output.
"""

import hashlib
import json

import numpy as np

from vicert import certify, pep
from vicert.operators import Affine

_SYS_POINTS = [
    ("p", [0.3, -1.2], [1.1, 0.4]),
    ("q", [-0.7, 0.5], [-0.2, 0.9]),
    ("r", [1.4, 0.8], [0.6, -1.3]),
    ("s", [0.0, 0.0], [0.0, 0.0]),
]
_SAMPLED_OP = Affine([[1.0, 2.0], [-1.5, 0.5]], offset=[0.25, -1.0])


def _sdpa(prob, tmp_path) -> bytes:
    path = tmp_path / f"{prob.name}.dat-s"
    pep.export_sdpa(prob, path)
    return path.read_bytes()


def _names(prob) -> bytes:
    return json.dumps(list(prob.inequalities + prob.equalities)).encode()


def _js(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _problems():
    yield "hand-1-.5-.5", pep.build_expansiveness_matrices(1.0, 0.5, 0.5)
    yield "hand-1.3-.7-.45", pep.build_expansiveness_matrices(1.3, 0.7, 0.45)
    yield "sym-1-.5-.5", pep.expansiveness_from_interpolation(1.0, 0.5, 0.5)
    yield "sym-1.3-.7-.45", pep.expansiveness_from_interpolation(1.3, 0.7, 0.45)
    for cls in ("monotone-lipschitz", "cocoercive"):
        for K in (3, 15):
            yield f"norm-{cls}-K{K}", pep.build_norm_pep(1.1, 0.45, 0.6, K, cls)
    yield "norm-ball-K3", pep.build_norm_pep(1.1, 0.45, 0.6, 3,
                                             distance_as_equality=False)
    for measure in ("f", "f-eg"):
        yield f"delta-{measure}", pep.build_delta_pep(1.0, 0.5, 0.7, measure=measure)


def outputs(tmp_path) -> dict[str, bytes]:
    out = {}
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
}


def test_outputs_match_recorded_digests(tmp_path):
    got = {k: hashlib.sha256(v).hexdigest() for k, v in outputs(tmp_path).items()}
    assert sorted(got) == sorted(GOLDEN)
    changed = [k for k in GOLDEN if got[k] != GOLDEN[k]]
    assert not changed, f"outputs changed bytes: {changed}"


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, blob in outputs(pathlib.Path(tmp)).items():
            print(f"    {key!r}: {hashlib.sha256(blob).hexdigest()!r},")
