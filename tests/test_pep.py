import json
import os
import random
import threading
import warnings

import numpy as np
import pytest
from pep_reference import (
    LabelMismatch,
    NotPSD,
    ball_norm_pep,
    build_expansiveness_matrices,
    counterexample_vectors,
    delta_composite_pep,
    embed_points,
    gram_to_points,
    inner_matrix,
    lower_bound_search,
    zero_sign_differences,
)
from recording import run_points
from test_golden import _problems

from vicert import classes, cli, pep
from vicert.certify import build_counterexample
from vicert.errors import BadParameters, DimensionMismatch, NoConvergence
from vicert.operators import rotation
from vicert.pep import (
    GramProblem,
    build_delta_pep,
    build_expansiveness_pep,
    build_norm_pep,
    export_sdpa,
    parse_sdpa,
    solve,
    sq_matrix,
    verify_point,
)
from vicert.serial import fmt17
from vicert.solvers import SolverConfig


def _eg_run_vectors(op, x0, x_star, gamma1, gamma2, K):
    """The trace of an eg2 run and the PEP vectors of its points, which the
    run hands to the operator: x^k and the mid point of every row."""
    trace, xs, mids = run_points(op, SolverConfig("eg2", gamma1=gamma1, gamma2=gamma2,
                                                  iters=K, x0=x0), x_star=x_star)
    vecs = {"dx0": x0 - x_star}
    for k in range(K + 1):
        vecs[f"Fx{k}"] = op(xs[k])
        vecs[f"Fxt{k}"] = op(mids[k])
    return trace, vecs


class TestGramExpr:
    def test_inner_and_square(self):
        a, b = np.eye(2)
        M = inner_matrix(a, b)
        assert np.allclose(M, [[0.0, 0.5], [0.5, 0.0]], atol=0.0)
        assert np.allclose(sq_matrix(a - b), [[1.0, -1.0], [-1.0, 1.0]], atol=0.0)


class TestExpansivenessMatrices:
    def test_printed_entries(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        M0 = prob.objective
        M1 = prob.constraints[0]
        M7 = prob.constraints[len(prob.inequalities)]
        assert M0[4, 4] == 0.25
        assert M1[2, 2] == -0.5
        assert M7[1, 1] == 1.0
        assert M0[0, 4] == -0.5 and M0[0, 5] == 0.5

    def test_gamma2_zero_limit(self):
        tiny = build_expansiveness_pep(1.0, 0.5, 1e-300)
        M7 = tiny.constraints[len(tiny.inequalities)]
        assert np.abs(tiny.objective - M7).max() <= 1e-299

    def test_hand_coded_matches_symbolic_on_random_triples(self):
        rng = np.random.default_rng(0)
        triples = np.concatenate([rng.uniform(0.1, 5.0, size=(50, 3)),
                                  10.0 ** rng.uniform(-8.0, 8.0, size=(50, 3))])
        for ell, g1, g2 in triples:
            hand = build_expansiveness_matrices(ell, g1, g2)
            sym = build_expansiveness_pep(ell, g1, g2)
            assert (hand.names, hand.inequalities) == (sym.names, sym.inequalities)
            zero_sign_differences(hand.objective, sym.objective)
            zero_sign_differences(hand.constraints, sym.constraints)

    def test_interior_point_strictly_feasible(self):
        for ell, g1 in ((1.0, 0.25), (2.0, 0.5), (0.5, 2.0)):
            prob = build_expansiveness_pep(ell, g1, g1)
            point = verify_point(prob, prob.interior)
            assert point.inequality_values.min() > 0.0
            assert abs(point.equality_residuals[0]) <= 1e-15


_NOT_FINITE_AND_POSITIVE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                            "zero": 0.0, "negative": -1.0}


class TestParameterChecks:
    """ell (L), gamma1 and gamma2 must be finite and positive: NaN and inf
    are rejected before any arithmetic, so no RuntimeWarning is raised."""

    @pytest.mark.parametrize("bad", _NOT_FINITE_AND_POSITIVE)
    @pytest.mark.parametrize("at", [0, 1, 2], ids=["ell", "gamma1", "gamma2"])
    @pytest.mark.parametrize("build", [build_expansiveness_pep,
                                       lambda *p: build_norm_pep(*p, 2)],
                             ids=["expansiveness", "norm"])
    def test_rejected(self, build, at, bad):
        params = [1.0, 0.5, 0.5]
        params[at] = _NOT_FINITE_AND_POSITIVE[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameters, match="must be finite and positive"):
                build(*params)


class TestNormPep:
    def test_lipschitz_square_beyond_float_range(self):
        # L**2 would raise OverflowError; the builder reports bad parameters
        with pytest.raises(BadParameters, match="beyond float range"):
            build_norm_pep(1e200, 1e-200, 0.5, K=2)

    def test_dimensions_and_counts(self):
        prob = build_norm_pep(1.0, 0.5, 0.5, K=1)
        assert prob.n == 5
        assert len(prob.inequalities) == 20
        assert len(prob.equalities) == 1

    def test_embedded_run_is_feasible_with_matching_objective(self):
        op = rotation()
        gamma = 0.5
        x0 = np.array([1.0, 0.0])
        prob = build_norm_pep(1.0, gamma, gamma, K=3)
        trace, vecs = _eg_run_vectors(op, x0, np.zeros(2), gamma, gamma, 3)
        point = embed_points(prob, vecs)
        assert point.feasible(1e-9)
        assert point.objective == pytest.approx(trace.fx_sq[3], abs=1e-12)

    def test_ball_variant(self):
        prob = ball_norm_pep(1.0, 0.5, 0.5, K=1)
        assert len(prob.equalities) == 0
        assert any(rhs == -1.0 for rhs in prob.rhs[:len(prob.inequalities)])

    def test_delta_objective(self):
        prob = build_delta_pep(1.0, 0.5, 0.5)
        e = dict(zip(prob.basis, np.eye(prob.n)))
        expected = sq_matrix(e["Fx1"]) - sq_matrix(e["Fx0"])
        assert np.abs(prob.objective - expected).max() == 0.0
        # no unverified certificate is published with the problem
        assert "certificate_weights" not in prob.metadata

    def test_delta_embedding_nonpositive_for_small_stepsize(self):
        gamma = 1.0 / np.sqrt(2.0)
        prob = build_delta_pep(1.0, gamma, gamma)
        _, vecs = _eg_run_vectors(rotation(), np.array([1.0, 0.0]), np.zeros(2),
                                  gamma, gamma, 1)
        point = embed_points(prob, vecs)
        assert point.feasible(1e-9)
        assert point.objective <= 1e-12

    def test_cocoercive_variant(self):
        prob = delta_composite_pep(1.0, 0.5, 0.25, operator_class="cocoercive")
        assert all(name.startswith("coco:") for name in prob.inequalities)
        assert len(prob.inequalities) == 10


class TestEmbedding:
    def test_counterexample_embedding(self):
        for ell, g1, g2 in ((1.0, 0.5, 0.5), (2.0, 0.25, 0.125), (5.0, 0.2, 0.05)):
            prob = build_expansiveness_pep(ell, g1, g2)
            inst = build_counterexample(ell, g1)
            point = embed_points(prob, counterexample_vectors(inst))
            assert point.inequality_values.min() >= -1e-12
            assert abs(point.equality_residuals[0]) <= 1e-12
            expected = 1.0 + (g1 * g2 * ell * ell) ** 2 / 4.0
            assert point.objective == pytest.approx(expected, abs=1e-12)

    def test_zero_vectors_violate_equality(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        zeros = {lab: np.zeros(2) for lab in prob.basis}
        point = embed_points(prob, zeros)
        assert abs(point.equality_residuals[0] + 1.0) == 0.0
        assert not point.feasible()

    def test_label_mismatch(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        with pytest.raises(LabelMismatch):
            embed_points(prob, {"x": np.zeros(2)})

    def test_vectors_of_unequal_length(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        vecs = {lab: np.zeros(2) for lab in prob.basis}
        vecs["y"] = np.zeros(3)
        with pytest.raises(DimensionMismatch):
            embed_points(prob, vecs)

    def test_gram_matrix_of_another_size(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        with pytest.raises(DimensionMismatch):
            verify_point(prob, np.eye(7))
        with pytest.raises(DimensionMismatch):
            verify_point(prob, np.ones((6, 5)))

    def test_concrete_cocoercive_map_is_feasible(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        point = verify_point(prob, prob.interior)
        assert point.feasible(1e-12)
        assert point.objective <= 1.0


class TestGramToPoints:
    def test_identity_gives_orthonormal_set(self):
        pts = gram_to_points(np.eye(6))
        U = np.array(pts)
        assert np.abs(U @ U.T - np.eye(6)).max() <= 1e-10

    def test_counterexample_rank_two_recovery(self):
        inst = build_counterexample(1.0, 0.5)
        vecs = counterexample_vectors(inst)
        labels = ("x", "y", "xF1", "yF1", "xF2", "yF2")
        U = np.array([vecs[lab] for lab in labels])
        G = U @ U.T
        pts = gram_to_points(G)
        assert all(p.size == 2 for p in pts)
        R = np.array(pts)
        assert np.abs(R @ R.T - G).max() <= 1e-8

    def test_zero_matrix(self):
        pts = gram_to_points(np.zeros((4, 4)))
        assert all(p.size == 0 for p in pts)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            gram_to_points(np.diag([1.0, -1.0]))


class TestSdpa:
    def test_header_structure(self, tmp_path):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        path = tmp_path / "prob.dat-s"
        export_sdpa(prob, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "7"
        assert lines[2] == "2"
        assert lines[3] == "6 -6"
        assert lines[4].split() == ["0"] * 6 + ["1"]

    def test_round_trip_bit_exact(self, tmp_path):
        prob = build_expansiveness_pep(np.pi / 3.0, 0.37, 0.11)
        path = tmp_path / "prob.dat-s"
        export_sdpa(prob, path)
        parsed = parse_sdpa(path)
        assert parsed["m"] == 7
        assert np.array_equal(parsed["blocks"][0][0], prob.objective)
        for idx in range(len(prob.inequalities)):
            assert np.array_equal(parsed["blocks"][idx + 1][0], prob.constraints[idx])
            slack = parsed["blocks"][idx + 1][1]
            assert slack[idx, idx] == -1.0
        assert np.array_equal(parsed["blocks"][7][0], prob.constraints[6])
        assert np.array_equal(parsed["rhs"], [0.0] * 6 + [1.0])

    def test_no_inequalities_single_block(self, tmp_path):
        a, b = np.eye(2)
        prob = GramProblem(
            name="toy", basis=("a", "b"), objective=sq_matrix(a),
            inequalities=(), equalities=(("one", sq_matrix(a - b), 1.0),),
        )
        path = tmp_path / "toy.dat-s"
        export_sdpa(prob, path)
        lines = path.read_text().splitlines()
        assert lines[2] == "1"
        assert lines[3] == "2"
        parsed = parse_sdpa(path)
        assert np.array_equal(parsed["blocks"][1][0], prob.constraints[0])


# ---------------------------------------------------------------------------
# The SDPA writer and reader before they were vectorised: one formatted line
# per nonzero upper-triangle cell, and one Python step per entry line.
# export_sdpa must reproduce the writer byte for byte, and parse_sdpa the
# reader's blocks bit for bit.
# ---------------------------------------------------------------------------

def _reference_export(prob: GramProblem, path) -> None:
    q = len(prob.inequalities)
    m = q + len(prob.equalities)
    n = prob.n
    lines = [f'"{prob.name}"', str(m), "2" if q else "1",
             f"{n} -{q}" if q else f"{n}"]
    lines.append(" ".join(fmt17(v) for v in prob.rhs.tolist()))

    def emit(matno: int, blk: int, mat_or_entries):
        if blk == 1:
            mat = mat_or_entries
            for i in range(n):
                for j in range(i, n):
                    if mat[i, j] != 0.0:
                        lines.append(f"{matno} 1 {i + 1} {j + 1} {fmt17(mat[i, j])}")
        else:
            i, val = mat_or_entries
            lines.append(f"{matno} 2 {i + 1} {i + 1} {fmt17(val)}")

    emit(0, 1, prob.objective)
    for k, mat in enumerate(prob.constraints):
        emit(k + 1, 1, mat)
        if k < q:
            emit(k + 1, 2, (k, -1.0))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_parse(path) -> dict:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    idx = 0
    name = None
    if raw[idx].startswith('"') or raw[idx].startswith("*"):
        name = raw[idx].strip('"')
        idx += 1
    m = int(raw[idx]); idx += 1
    nblocks = int(raw[idx]); idx += 1
    sizes = [int(tok) for tok in raw[idx].split()]; idx += 1
    if len(sizes) != nblocks:
        raise BadParameters("block size line does not match block count")
    rhs = np.array([float(tok) for tok in raw[idx].split()]); idx += 1
    blocks = {}
    for mk in range(m + 1):
        blocks[mk] = [np.zeros((abs(s), abs(s))) for s in sizes]
    for ln in raw[idx:]:
        mk, blk, i, j, val = ln.split()
        mk, blk, i, j = int(mk), int(blk), int(i), int(j)
        val = float(val)
        blocks[mk][blk - 1][i - 1, j - 1] = val
        blocks[mk][blk - 1][j - 1, i - 1] = val
    return {"name": name, "m": m, "block_sizes": sizes, "rhs": rhs, "blocks": blocks}


def _same_array(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _assert_same_parse(got: dict, want: dict) -> None:
    assert got["name"] == want["name"]
    assert got["m"] == want["m"] and got["block_sizes"] == want["block_sizes"]
    assert _same_array(got["rhs"], want["rhs"])
    assert sorted(got["blocks"]) == sorted(want["blocks"])
    for mk, blocks in want["blocks"].items():
        assert len(got["blocks"][mk]) == len(blocks)
        for a, b in zip(got["blocks"][mk], blocks):
            assert _same_array(a, b), f"matrix {mk} differs"


def _extreme_problem() -> GramProblem:
    """Entries that stress the 17-digit formatting: signed zeros (never
    written), the least subnormal, values near the top of the range, 0.1,
    and values that need all 17 significant digits."""
    vals = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, 0.1 + 0.2, -2.0 / 3.0,
            float(np.nextafter(1.0, 2.0)), -1.7976931348623157e308,
            2.2250738585072014e-308, 123456789.12345678, -4.9406564584124654e-322]
    n = 5
    rng = np.random.default_rng(3)

    def sym(k):
        M = np.zeros((n, n))
        for idx in rng.choice(n * n, size=8, replace=False):
            i, j = divmod(int(idx), n)
            M[i, j] = M[j, i] = vals[(k + int(idx)) % len(vals)]
        return M

    ineqs = tuple((f"c{k}", sym(k), vals[k % len(vals)]) for k in range(12))
    return GramProblem(name="extreme", basis=tuple("abcde"), objective=sym(99),
                       inequalities=ineqs, equalities=(("e", sym(7), 1.0),))


def _norm_problems():
    for cls in ("monotone-lipschitz", "cocoercive"):
        for K in range(1, 16):
            yield f"norm-{cls}-K{K}", lambda cls=cls, K=K: build_norm_pep(
                1.1, 0.45, 0.6, K, cls)
    for K in (5, 10, 15):
        yield f"bench-K{K}", lambda K=K: build_norm_pep(1.0, 0.5, 0.5, K)


_TOY_HEAD = '"toy"\n1\n2\n2 -2\n1\n'


class TestSdpaAgainstReference:
    def _both(self, prob, tmp_path):
        _reference_export(prob, tmp_path / "want.dat-s")
        export_sdpa(prob, tmp_path / "got.dat-s")
        return (tmp_path / "got.dat-s").read_bytes(), (tmp_path / "want.dat-s").read_bytes()

    def test_export_bytes_on_golden_problems(self, tmp_path):
        for key, prob in _problems():
            got, want = self._both(prob, tmp_path)
            assert got == want, key

    @pytest.mark.parametrize("build", [b for _, b in _norm_problems()],
                             ids=[k for k, _ in _norm_problems()])
    def test_export_bytes_on_norm_peps(self, build, tmp_path):
        got, want = self._both(build(), tmp_path)
        assert got == want

    def test_export_bytes_on_extreme_values(self, tmp_path):
        prob = _extreme_problem()
        got, want = self._both(prob, tmp_path)
        assert got == want
        values = [ln.split()[-1] for ln in got.decode().splitlines()[5:]]
        assert {"4.9406564584124654e-324", "1e+308", "0.30000000000000004"} <= set(values)
        assert "-0" not in values and "0" not in values

    @pytest.mark.parametrize("build", [
        lambda: _extreme_problem(),
        lambda: build_expansiveness_pep(np.pi / 3.0, 0.37, 0.11),
        lambda: build_norm_pep(1.0, 0.5, 0.5, 10),
        lambda: delta_composite_pep(1.0, 0.5, 0.7),
    ], ids=["extreme", "expansiveness", "norm-K10", "delta-f-eg"])
    def test_parse_matches_reference(self, build, tmp_path):
        path = tmp_path / "prob.dat-s"
        export_sdpa(build(), path)
        _assert_same_parse(parse_sdpa(path), _reference_parse(path))

    def test_parse_ignores_entry_order_blank_lines_and_comment_header(self, tmp_path):
        path = tmp_path / "prob.dat-s"
        export_sdpa(_extreme_problem(), path)
        want = _reference_parse(path)
        lines = path.read_text().splitlines()
        head, entries = lines[1:5], lines[5:]
        random.Random(5).shuffle(entries)
        spaced = [ln for e in entries for ln in (e, "", "   ")]
        edited = tmp_path / "edited.dat-s"
        edited.write_text("\n".join(["* a comment line", ""] + head + spaced) + "\n")
        got = parse_sdpa(edited)
        assert got["name"] == "* a comment line"
        got["name"] = want["name"]
        _assert_same_parse(got, want)
        _assert_same_parse(got, {**_reference_parse(edited), "name": want["name"]})

    def test_parse_reads_lower_triangle_and_negative_zero(self, tmp_path):
        path = tmp_path / "toy.dat-s"
        path.write_text('"toy"\n1\n2\n3 -1\n2.5\n'
                        "0 1 1 1 -0\n0 1 3 1 0.1\n1 1 2 3 -7\n1 2 1 1 -1\n")
        got = parse_sdpa(path)
        _assert_same_parse(got, _reference_parse(path))
        assert np.signbit(got["blocks"][0][0][0, 0])
        assert got["blocks"][0][0][0, 2] == got["blocks"][0][0][2, 0] == 0.1

    # a K=3 slack block (72 x 72) takes 41472 bytes and a Gram block (9 x 9)
    # 648: one block per stack, five slack blocks per stack with a partial
    # last one, and the default cap
    @pytest.mark.parametrize("cap,slack_stacks", [(1, 74), (5 * 41472 + 7, 15), (1 << 28, 1)])
    def test_slack_blocks_span_stacks(self, cap, slack_stacks, tmp_path, monkeypatch):
        path = tmp_path / "norm3.dat-s"
        export_sdpa(build_norm_pep(1.1, 0.45, 0.6, 3), path)
        monkeypatch.setattr(pep, "_STACK_BYTES", cap)
        got = parse_sdpa(path)
        _assert_same_parse(got, _reference_parse(path))
        blocks = got["blocks"]
        assert got["block_sizes"] == [9, -72] and len(blocks) == 74
        assert all(b.flags.c_contiguous for bs in blocks.values() for b in bs)
        bases = [{id(bs[b].base) for bs in blocks.values()} for b in (0, 1)]
        assert [len(s) for s in bases] == [1 if cap > 1 else 74, slack_stacks]

    def test_write_to_one_block_leaves_the_others(self, tmp_path):
        path = tmp_path / "norm2.dat-s"
        export_sdpa(build_norm_pep(1.0, 0.5, 0.5, 2), path)
        got = parse_sdpa(path)["blocks"]
        before = {k: [b.copy() for b in bs] for k, bs in got.items()}
        got[3][1][...] = 7.0
        got[4][0][...] = 7.0
        for k, bs in got.items():
            for b, (now, was) in enumerate(zip(bs, before[k])):
                if (k, b) in ((3, 1), (4, 0)):
                    assert (now == 7.0).all()
                else:
                    assert _same_array(now, was), (k, b)

    @pytest.mark.parametrize("text", [
        _TOY_HEAD,
        _TOY_HEAD + "\n  \n\n",
        _TOY_HEAD + "\n  \n\n1 1 1 2 -3.5\n\n1 2 2 2 -1\n",
    ], ids=["header-only", "header-and-blank-lines", "blank-lines-before-entries"])
    def test_blank_body_lines_warn_nothing(self, text, tmp_path):
        path = tmp_path / "toy.dat-s"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parse_sdpa(path)
        _assert_same_parse(got, _reference_parse(path))


    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    @pytest.mark.parametrize("text", [
        None,
        _TOY_HEAD,
        _TOY_HEAD + "\n  \n\n",
        _TOY_HEAD + "\n  \n\n1 1 1 2 -3.5\n\n1 2 2 2 -1\n",
    ], ids=["norm-K3", "header-only", "header-and-blank-lines", "blank-lines-before-entries"])
    def test_fifo_parses_as_the_regular_file(self, text, tmp_path):
        """A named pipe cannot seek: parse_sdpa reads it in one pass, to the
        result the same bytes give as a regular file."""
        path, fifo = tmp_path / "prob.dat-s", tmp_path / "prob.fifo"
        if text is None:
            export_sdpa(build_norm_pep(1.1, 0.45, 0.6, 3), path)
        else:
            path.write_text(text)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        got = parse_sdpa(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        _assert_same_parse(got, parse_sdpa(path))


class TestParseSdpaErrors:
    @pytest.mark.parametrize("body", [
        "2 1 1 1 1.5\n",           # matrix number above m
        "-1 1 1 1 1.5\n",          # matrix number below 0
        "1 3 1 1 1.5\n",           # block number above the block count
        "1 1 3 1 1.5\n",           # row index outside its block
        "1 1 1 0 1.5\n",           # column index 0
        "1 2 3 3 1.5\n",           # index outside the 2x2 diagonal block
        "1 2 1 2 1.5\n",           # off-diagonal entry in the diagonal block
        "1 1 1.5 1 1.5\n",         # fractional index
        "0 1 1 1 1\n1 1 1\n",      # entry line of 3 tokens
        "0 1 1 1 1\n1 1 1 1\n",    # entry line of 4 tokens
        "1 1 1 1\n",               # every entry line of 4 tokens
        "1 1 1 1 x\n",             # non-numeric value
        "1 1 one 1 1\n",           # non-numeric index
        "1 1 1 2 1\n1 1 2 1 2\n",  # one cell listed twice, from both triangles
    ], ids=["matrix-above-m", "matrix-negative", "block-above-count", "row-outside",
            "column-zero", "diagonal-block-outside", "diagonal-block-off-diagonal", "fractional-index",
            "three-tokens", "four-tokens", "all-four-tokens", "non-numeric-value",
            "non-numeric-index", "cell-twice"])
    def test_malformed_entries(self, body, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text(_TOY_HEAD + body)
        with pytest.raises(BadParameters):
            parse_sdpa(path)

    @pytest.mark.parametrize("first,second,named", [
        (30, 200, "8 1 1 2"),
        # matrix 0's cell (4, 4) before matrix 1's cell (1, 2), whose offset is smaller
        (0, 1, "0 1 4 4"),
    ])
    def test_cell_twice_names_the_first_in_matrix_and_cell_order(self, first, second, named,
                                                                  tmp_path):
        """With two cells listed twice, one from the other triangle, in a
        shuffled file, the error names the one whose (matrix, block, cell)
        comes first, wherever the lines stand."""
        path = tmp_path / "norm.dat-s"
        export_sdpa(build_norm_pep(1.0, 0.5, 0.5, 2), path)
        lines = path.read_text().splitlines()
        head, entries = lines[:5], lines[5:]
        k, b, i, j, v = entries[second].split()
        entries += [entries[first], " ".join([k, b, j, i, v])]
        random.Random(7).shuffle(entries)
        path.write_text("\n".join(head + entries) + "\n")
        with pytest.raises(BadParameters, match=f"^SDPA entry '{named}' is listed twice$"):
            parse_sdpa(path)

    @pytest.mark.parametrize("text", [
        "",
        '"toy"\n1\n2\n',
        '"toy"\nmany\n2\n2 -1\n1\n',
        '"toy"\n1\n2\n2 -1 3\n1\n',
        '"toy"\n1\n1\n2\n1 2\n',
        '"toy"\n1\n1\n2\nx\n',
    ], ids=["empty", "truncated-header", "non-numeric-count", "block-count-mismatch",
            "rhs-count-mismatch", "non-numeric-rhs"])
    def test_malformed_header(self, text, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text(text)
        with pytest.raises(BadParameters):
            parse_sdpa(path)

    def test_header_only_file_has_zero_blocks(self, tmp_path):
        path = tmp_path / "empty.dat-s"
        path.write_text(_TOY_HEAD)
        got = parse_sdpa(path)
        _assert_same_parse(got, _reference_parse(path))
        assert not any(np.any(b) for blocks in got["blocks"].values() for b in blocks)


class TestLowerBoundSearch:
    def test_finds_expansive_point_quickly(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        point = lower_bound_search(prob, restarts=8, ascent_steps=1200, rounds=3,
                                   seed=1)
        assert point.feasible(1e-9)
        assert point.objective > 1.0 + 1e-6

    def test_seed_determinism(self):
        prob = build_expansiveness_pep(1.0, 1.0, 1.0)
        a = lower_bound_search(prob, restarts=4, ascent_steps=400, rounds=2, seed=9)
        b = lower_bound_search(prob, restarts=4, ascent_steps=400, rounds=2, seed=9)
        assert np.array_equal(a.G, b.G)
        assert a.objective == b.objective

    def test_infeasible_problem_raises(self):
        with pytest.raises(NoConvergence):
            lower_bound_search(_infeasible_problem(), restarts=2, ascent_steps=100,
                               rounds=2, seed=0)

    def test_bad_parameters(self):
        prob = build_expansiveness_pep(1.0, 0.5, 0.5)
        with pytest.raises(BadParameters):
            lower_bound_search(prob, restarts=0)

    def test_norm_pep_search_is_sound(self):
        # any verified point must sit below the problem value; 0.8125 is the
        # externally solved optimum at L=1, gamma1=gamma2=0.5, K=1
        prob = build_norm_pep(1.0, 0.5, 0.5, K=1)
        point = lower_bound_search(prob, restarts=6, ascent_steps=800, rounds=3,
                                   seed=2)
        assert point.feasible(1e-9)
        assert 0.3 <= point.objective <= 0.8125 + 1e-6


def _infeasible_problem():
    a, b = np.eye(2)
    M = sq_matrix(a - b)
    return GramProblem(
        name="infeasible", basis=("a", "b"), objective=sq_matrix(a),
        inequalities=(("neg", -M, 0.0),), equalities=(("one", M, 1.0),),
    )


class TestStackedConstraints:
    def test_stack_matches_given(self):
        mats = _toy_matrices(asym=0, by=0.0)
        prob = _toy_problem(mats)
        assert prob.names == ("i0", "i1", "i2", "e")
        assert (prob.inequalities, prob.equalities) == (("i0", "i1", "i2"), ("e",))
        assert prob.constraints.shape == (4, 3, 3)
        assert all(np.array_equal(prob.constraints[k], mats[k + 1]) for k in range(4))
        assert np.array_equal(prob.rhs, [0.0, 0.0, 0.0, 1.0])
        assert prob.constraints is prob.constraints
        factored = ball_norm_pep(1.0, 0.5, 0.5, K=2)
        assert factored.constraints.shape == (len(factored.names), factored.n, factored.n)
        assert factored.rhs[-1] == -1.0 and factored.constraints[-1][0, 0] == -1.0

    @pytest.mark.parametrize("where", ["objective", "middle-inequality", "equality"])
    def test_asymmetric_matrix_rejected(self, where):
        mats = _toy_matrices(asym={"objective": 0, "middle-inequality": 2,
                                   "equality": 4}[where], by=1e-3)
        with pytest.raises(BadParameters, match="must be symmetric"):
            _toy_problem(mats)

    def test_asymmetry_inside_tolerance_accepted(self):
        # 1e-14 * (1 + max|M|) per matrix: the middle inequality's entries
        # reach 3, so an asymmetry of 3e-14 passes and one of 5e-14 does not
        _toy_problem(_toy_matrices(asym=2, by=3e-14))
        with pytest.raises(BadParameters):
            _toy_problem(_toy_matrices(asym=2, by=5e-14))

    def test_values_match_elementwise_sums(self):
        prob = build_norm_pep(1.0, 0.5, 0.5, K=2)
        G = np.random.default_rng(3).standard_normal((prob.n, prob.n))
        G = G @ G.T
        want = [float(np.sum(m * G)) - r for m, r in zip(prob.constraints, prob.rhs)]
        assert np.allclose(prob.constraint_values(G), want, rtol=0.0, atol=1e-12)

    def test_operations_match_their_definitions(self):
        prob = build_norm_pep(1.0, 0.5, 0.5, K=2)
        rng = np.random.default_rng(5)
        A, m, n = prob.constraints, len(prob.names), prob.n
        Gs = rng.standard_normal((3, n, n))
        Gs = Gs @ Gs.transpose(0, 2, 1)
        ys = rng.standard_normal((3, m))
        for G, y in zip(Gs, ys):
            assert prob.apply(G).shape == (m,) and prob.adjoint(y).shape == (n, n)
            assert np.allclose(prob.apply(G), [np.sum(M * G) for M in A],
                               rtol=1e-13, atol=1e-13)
            assert np.allclose(prob.adjoint(y), np.einsum("k,kij->ij", y, A),
                               rtol=1e-13, atol=1e-13)
        W = np.linalg.inv(Gs[1])
        want = [[np.trace(Mk @ Gs[0] @ Ml @ W) for Ml in A] for Mk in A]
        assert np.allclose(prob.schur(Gs[0], W), want, rtol=1e-12, atol=1e-12)


class TestStorageAgnostic:
    """solve, the search and verify_point reach the constraint matrices only
    through apply, adjoint and schur."""

    @staticmethod
    def _opaque(prob: GramProblem, served: GramProblem) -> GramProblem:
        """``prob`` with a stack that raises when read, and apply, adjoint
        and schur served from ``served``'s stack."""

        class Opaque(GramProblem):
            @property
            def constraints(self):
                raise AssertionError("the stacked constraints were read")

            def apply(self, G):
                return served.apply(G)

            def adjoint(self, y):
                return served.adjoint(y)

            def schur(self, G, W):
                return served.schur(G, W)

        prob.__class__ = Opaque
        return prob

    @pytest.mark.parametrize("method", ["solve", "search", "verify"])
    def test_same_bits_without_the_stack(self, method):
        call = {
            "solve": solve,
            "search": lambda p: lower_bound_search(p, restarts=4, ascent_steps=300,
                                                   rounds=2, seed=3),
            "verify": lambda p: verify_point(p, p.interior),
        }[method]
        plain = build_norm_pep(1.0, 0.5, 0.5, 2)
        opaque = self._opaque(build_norm_pep(1.0, 0.5, 0.5, 2),
                              build_norm_pep(1.0, 0.5, 0.5, 2))
        with pytest.raises(AssertionError, match="were read"):
            opaque.constraints
        got, want = call(opaque), call(plain)
        assert got.objective == want.objective
        assert _bits(got.G) == _bits(want.G)
        assert got.solver == want.solver


def _toy_matrices(asym: int, by: float) -> list[np.ndarray]:
    """Objective, three inequalities and an equality, symmetric 3x3 with
    entries up to 3, then matrix ``asym`` made asymmetric by ``by``."""
    rng = np.random.default_rng(8)
    mats = []
    for _ in range(5):
        M = rng.uniform(-1.0, 1.0, size=(3, 3))
        M = M + M.T
        M[0, 0] = 3.0
        mats.append(M)
    mats[asym][1, 2] += by
    return mats


def _toy_problem(mats) -> GramProblem:
    return GramProblem(name="toy", basis=("a", "b", "c"), objective=mats[0],
                       inequalities=tuple((f"i{k}", M, 0.0) for k, M in enumerate(mats[1:4])),
                       equalities=(("e", mats[4], 1.0),))


# Known values at ell = L = 1: exact ones (where a rational dual certificate,
# checked in exact arithmetic, meets a primal point) carry themselves as the
# upper bound; the norm PEP values at K = 2, 3, 5 are known to six digits, and
# K = 5 has an upper bound from an exactly checked rounded dual.
_PINNED = [
    ("expansiveness-1/2", lambda: build_expansiveness_pep(1.0, 0.5, 0.5), 40 / 39, 40 / 39),
    ("expansiveness-1", lambda: build_expansiveness_pep(1.0, 1.0, 1.0), 4 / 3, 4 / 3),
    ("expansiveness-1/4", lambda: build_expansiveness_pep(1.0, 0.25, 0.25),
     400 / 399, 400 / 399),
    ("norm-K1", lambda: build_norm_pep(1.0, 0.5, 0.5, K=1), 13 / 16, 13 / 16),
    ("norm-K2", lambda: build_norm_pep(1.0, 0.5, 0.5, K=2), 0.674098, None),
    ("norm-K3", lambda: build_norm_pep(1.0, 0.5, 0.5, K=3), 0.561531, None),
    ("norm-K5", lambda: build_norm_pep(1.0, 0.5, 0.5, K=5), 0.383011, 0.383012155),
]


class TestSolve:
    @pytest.mark.parametrize("build,value,upper", [c[1:] for c in _PINNED],
                             ids=[c[0] for c in _PINNED])
    def test_pinned_values(self, build, value, upper):
        prob = build()
        point = solve(prob)
        assert point.feasible(1e-9)
        assert point.objective >= value - 1e-6
        if upper is not None:
            assert point.objective <= upper + 1e-9
        # the returned point is exactly what verify_point reports for its G
        again = verify_point(prob, point.G)
        assert again.objective == point.objective and again.feasible(1e-9)

    @pytest.mark.parametrize("build", [
        lambda: build_expansiveness_pep(1.0, 0.5, 0.5),
        lambda: build_expansiveness_pep(1.0, 1.0, 1.0),
        lambda: build_norm_pep(1.0, 0.5, 0.5, K=1),
        lambda: build_norm_pep(1.0, 0.5, 0.5, K=2),
    ], ids=["expansiveness-1/2", "expansiveness-1", "norm-K1", "norm-K2"])
    def test_not_below_search(self, build):
        prob = build()
        searched = lower_bound_search(prob, restarts=6, ascent_steps=800, rounds=3, seed=4)
        assert solve(prob).objective >= searched.objective - 1e-9

    @pytest.mark.parametrize("gamma", [1.1, 1.2, 1.5])
    def test_delta_f_worst_case_above_one_over_L(self, gamma):
        point = solve(build_delta_pep(1.0, gamma, gamma))
        assert point.feasible(1e-9)
        assert point.objective == pytest.approx(gamma**2 * (gamma**2 - 1.0), abs=1e-6)

    def test_delta_composite_grows(self):
        point = solve(delta_composite_pep(1.0, 0.5, 0.5))
        assert point.feasible(1e-9)
        assert point.objective > 0.43

    def test_solver_record(self):
        point = solve(build_expansiveness_pep(1.0, 0.5, 0.5))
        rec = point.solver
        assert rec["method"] == "interior-point"
        assert rec["stop"] in ("converged", "schur-cholesky")
        assert 0 <= rec["iterate"] <= rec["iterations"] <= 100
        assert rec["relative_mu"] <= 1e-6 and rec["primal_residual"] <= 1e-6
        assert rec["repair"] in ("none", "rescale", "interior-mix")
        assert set(rec) == {"method", "iterations", "stop", "iterate", "relative_mu",
                            "primal_residual", "repair"}

    @pytest.mark.parametrize("build", [c[1] for c in _PINNED], ids=[c[0] for c in _PINNED])
    def test_verifies_at_most_two_candidates(self, build, monkeypatch):
        """The repaired iterates are verified best first, so a solve stops at
        the first that passes instead of verifying every iterate."""
        calls = []
        real = pep.verify_point
        monkeypatch.setattr(pep, "verify_point",
                            lambda *args: calls.append(args) or real(*args))
        point = solve(build())
        assert 1 <= len(calls) <= 2
        assert point.solver["iterations"] >= 8

    def test_ties_go_to_the_later_iterate(self, monkeypatch):
        """Candidates of equal objective are verified later iterate first, as
        the scan that kept the best point under ``>=`` kept the later one."""
        prob = build_norm_pep(1.0, 0.5, 0.5, K=2)
        same = solve(prob).G
        monkeypatch.setattr(pep, "_repair", lambda prob, G: (same, "none"))
        point = solve(prob)
        assert point.solver["iterate"] == point.solver["iterations"] > 0
        assert np.array_equal(point.G, same)

    @pytest.mark.parametrize("build", [c[1] for c in _PINNED], ids=[c[0] for c in _PINNED])
    def test_seven_linalg_calls_per_iteration(self, build, monkeypatch):
        """A step makes 7 numpy.linalg calls: inv(S), the Schur system's
        Cholesky factor and its inverse, one stacked Cholesky and one stacked
        inverse of G and S, and one stacked eigvalsh per step length."""
        calls = []
        for name in ("cholesky", "inv", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        point = solve(build())
        assert point.solver["stop"] == "converged"
        steps = point.solver["iterations"]
        assert sorted(calls) == sorted(["cholesky"] * 2 * steps + ["inv"] * 3 * steps
                                       + ["eigvalsh"] * 2 * steps)

    def test_deterministic(self):
        prob = build_norm_pep(1.0, 0.5, 0.5, K=2)
        a, b = solve(prob), solve(prob)
        assert np.array_equal(a.G, b.G) and a.solver == b.solver

    def test_infeasible_problem_raises(self):
        with pytest.raises(NoConvergence):
            solve(_infeasible_problem())


# ---------------------------------------------------------------------------
# The norm PEP builder before its constraints were factored: one dense matrix
# per (pair, class row) from inner_matrix.  build_norm_pep must reproduce its
# names, right-hand sides and matrices bit for bit, signed zeros included.
# ---------------------------------------------------------------------------

def _reference_norm_pep(L, gamma1, gamma2, K, operator_class="monotone-lipschitz",
                        objective="last-norm", distance_as_equality=True) -> GramProblem:
    labels = ["dx0"] + [f"Fx{k}" for k in range(K + 1)] + [f"Fxt{k}" for k in range(K + 1)]
    e = dict(zip(labels, np.eye(len(labels))))
    zero = np.zeros(len(labels))

    pos_x = []
    cur = e["dx0"]
    for k in range(K + 1):
        pos_x.append(cur)
        cur = cur - gamma2 * e[f"Fxt{k}"]
    points = [("xstar", zero, zero)]
    for k in range(K + 1):
        points.append((f"x{k}", pos_x[k], e[f"Fx{k}"]))
    for k in range(K + 1):
        points.append((f"xt{k}", pos_x[k] - gamma1 * e[f"Fx{k}"], e[f"Fxt{k}"]))

    rows = classes.rows(pep.OPERATOR_CLASSES[operator_class], L)
    ineqs = [(f"{row.tag}:{li}|{lj}", row.slack(dx, dF, inner_matrix), 0.0)
             for li, lj, dx, dF in classes.pairs(points) for row in rows]

    if objective == "last-norm":
        obj = sq_matrix(e[f"Fx{K}"])
    elif objective == "delta-f":
        obj = sq_matrix(e["Fx1"]) - sq_matrix(e["Fx0"])
    else:
        obj = sq_matrix(e["Fxt1"]) - sq_matrix(e["Fxt0"])

    dist = sq_matrix(e["dx0"])
    if distance_as_equality:
        eqs = (("unit-start", dist, 1.0),)
    else:
        ineqs.append(("start-in-ball", -dist, -1.0))
        eqs = ()
    return GramProblem(
        name=f"eg-norm-pep-K{K}" if objective == "last-norm" else f"eg-{objective}",
        basis=tuple(labels), objective=obj, inequalities=tuple(ineqs), equalities=eqs,
        metadata={"L": L, "gamma1": gamma1, "gamma2": gamma2, "K": K,
                  "operator_class": operator_class, "objective": objective},
        interior=pep._norm_pep_interior(L, gamma1, gamma2, K, labels)
        if distance_as_equality else None)


def _bits(a) -> bytes:
    """The float64 bytes of ``a``: equal only when every bit, zero signs too, is."""
    return np.asarray(a, dtype=np.float64).tobytes()


# (L, gamma1, gamma2): the golden set, the benchmark's set, and stepsizes
# whose products underflow to signed zeros, which the export must skip
_FACTORED_PARAMS = {"golden": (1.1, 0.45, 0.6), "unit": (1.0, 0.5, 0.5),
                    "underflow": (1.0, 1e-170, 1e-170)}
# variant -> (its factored build, the dense reference's options, the steps K
# it is built at): the CLI's two problems and the two that pep_reference
# assembles from the builders' pairs
_FACTORED_VARIANTS = {
    "last-norm": (build_norm_pep, {}, range(1, 21)),
    "delta-f": (lambda L, g1, g2, K, cls: build_delta_pep(L, g1, g2, cls),
                {"objective": "delta-f"}, [1]),
    "delta-composite": (lambda L, g1, g2, K, cls: delta_composite_pep(L, g1, g2, cls),
                        {"objective": "delta-composite"}, [1]),
    "ball": (ball_norm_pep, {"distance_as_equality": False}, range(1, 21)),
}


class TestFactoredNormPep:
    @pytest.mark.parametrize("variant", _FACTORED_VARIANTS)
    @pytest.mark.parametrize("cls", ["monotone-lipschitz", "cocoercive"])
    @pytest.mark.parametrize("params", _FACTORED_PARAMS)
    def test_matches_dense_reference(self, params, cls, variant, tmp_path):
        L, g1, g2 = _FACTORED_PARAMS[params]
        build, options, steps = _FACTORED_VARIANTS[variant]
        for K in steps:
            got = build(L, g1, g2, K, cls)
            want = _reference_norm_pep(L, g1, g2, K, cls, **options)
            assert (got.inequalities, got.equalities) == (want.inequalities, want.equalities)
            assert (got.name, got.basis, got.metadata) == (want.name, want.basis, want.metadata)
            assert _bits(got.rhs) == _bits(want.rhs)
            assert _bits(got.objective) == _bits(want.objective)
            export_sdpa(got, tmp_path / "got.dat-s")
            export_sdpa(want, tmp_path / "want.dat-s")
            assert (tmp_path / "got.dat-s").read_bytes() == \
                (tmp_path / "want.dat-s").read_bytes(), K
            # the dense stack, built from the factors once the export is written
            assert "constraints" not in got.__dict__
            assert got.constraints.shape == want.constraints.shape
            assert _bits(got.constraints) == _bits(want.constraints), K

    @pytest.mark.parametrize("K", [1, 15])
    def test_runs_give_the_dense_cells(self, K):
        pairs = build_norm_pep(1.1, 0.45, 0.6, K).pairs
        runs = list(pairs.upper_nonzeros())
        # about 25k support cells at K=15: several runs, one at K=1
        assert (len(runs) > 2) if K == 15 else (len(runs) == 1)
        # the runs cover the constraints in order, with no gap or overlap
        assert [lo for lo, *_ in runs] == [0] + [hi for _, hi, *_ in runs[:-1]]
        assert runs[-1][1] == len(pairs)
        con, cell, value = (np.concatenate([run[i] for run in runs]) for i in (2, 3, 4))
        n = pairs.dx.shape[1]
        rows, cols = np.triu_indices(n)
        upper = pairs.dense().reshape(len(pairs), n * n)[:, rows * n + cols]
        want_con, k = np.nonzero(upper)
        assert np.array_equal(con, want_con)
        assert np.array_equal(cell, (rows * n + cols)[k])
        assert _bits(value) == _bits(upper[want_con, k])

    def test_underflow_is_exercised(self):
        # products of the two stepsizes fall to zero inside a pair's support
        prob = build_norm_pep(*_FACTORED_PARAMS["underflow"], 2)
        lip = [k for k, nm in enumerate(prob.inequalities) if nm.startswith("lip:")]
        assert any(np.count_nonzero(prob.constraints[k]) < np.count_nonzero(
            build_norm_pep(1.0, 0.5, 0.5, 2).constraints[k]) for k in lip)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_solve_bits_match_reference(self, K):
        got = solve(build_norm_pep(1.0, 0.5, 0.5, K))
        want = solve(_reference_norm_pep(1.0, 0.5, 0.5, K))
        assert got.objective == want.objective
        assert _bits(got.G) == _bits(want.G)
        assert got.solver == want.solver

    def test_export_never_builds_dense_stack(self, tmp_path):
        prob = build_norm_pep(1.1, 0.45, 0.6, 15, "cocoercive")
        assert len(prob.inequalities) + len(prob.equalities) == 529
        export_sdpa(prob, tmp_path / "norm.dat-s")
        assert "constraints" not in prob.__dict__

    def test_cli_export_never_builds_dense_stack(self, tmp_path, monkeypatch):
        built = []

        def build(*args):
            built.append(build_norm_pep(*args))
            return built[-1]

        monkeypatch.setattr(pep, "build_norm_pep", build)
        path = tmp_path / "norm.dat-s"
        assert cli.main(["pep-export", "--problem", "norm", "--L", "1", "--gamma1", "0.5",
                         "--gamma2", "0.5", "--K", "15", "--out", str(path)]) == 0
        prob, = built
        assert "constraints" not in prob.__dict__
        sidecar = json.loads((tmp_path / "norm.dat-s.json").read_text())
        assert sidecar["inequalities"] == list(prob.inequalities)
        assert len(sidecar["inequalities"]) == 1056

    def test_constraint_names(self):
        prob = ball_norm_pep(1.0, 0.5, 0.5, 2)
        # the pairs' names, then the given inequality's, read without the stack
        assert prob.inequalities == prob.pairs.names + ("start-in-ball",)
        assert prob.inequalities[0] == "mono:xstar|x0"
        assert prob.equalities == () and prob.names == prob.inequalities
        assert prob.rhs[-1] == -1.0
        eq = build_norm_pep(1.0, 0.5, 0.5, 2)
        assert eq.names == eq.pairs.names + ("unit-start",)
        assert (eq.inequalities, eq.equalities) == (eq.pairs.names, ("unit-start",))
        assert "constraints" not in prob.__dict__ and "constraints" not in eq.__dict__
