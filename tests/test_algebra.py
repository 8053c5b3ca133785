import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coadjoint import algebra
from coadjoint.algebra import (
    _TRIPLE_MIN_ROWS,
    LieAlgebraSpec,
    abelian,
    ad_star,
    antisymmetry_residual,
    bracket,
    builtin,
    jacobi_residual,
    load_algebra_json,
)
from coadjoint.dynamics import _stack_buffer

E1, E2, E3 = np.eye(3)


def vec3(draw_scale=3.0):
    return st.lists(
        st.floats(-draw_scale, draw_scale, allow_nan=False), min_size=3, max_size=3
    ).map(np.array)


class TestBuiltins:
    @pytest.mark.parametrize("name", ["so3", "h3", "se2"])
    def test_valid_algebra(self, name):
        alg = builtin(name)
        assert antisymmetry_residual(alg) <= 1e-12
        assert jacobi_residual(alg) <= 1e-15

    def test_so3_is_cross_product(self):
        so3 = builtin("so3")
        assert np.allclose(bracket(so3, E1, E2), E3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.normal(size=(2, 3))
            assert np.allclose(bracket(so3, u, v), np.cross(u, v))

    def test_h3_bracket_table(self):
        h3 = builtin("h3")
        assert np.allclose(bracket(h3, E1, E2), E3)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.normal(size=3)
            assert np.allclose(bracket(h3, E3, v), 0.0)

    def test_se2_bracket_table(self):
        se2 = builtin("se2")
        assert np.allclose(bracket(se2, E1, E2), 0.0)
        assert np.allclose(bracket(se2, E3, E1), E2)
        assert np.allclose(bracket(se2, E3, E2), -E1)

    def test_unknown_name(self):
        with pytest.raises(LookupError, match="sl2"):
            builtin("sl2")


class TestBracket:
    def test_self_bracket_vanishes(self):
        so3 = builtin("so3")
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.normal(size=3)
            assert np.allclose(bracket(so3, u, u), 0.0)

    def test_dimension_mismatch(self):
        so3 = builtin("so3")
        with pytest.raises(ValueError, match="dimension"):
            bracket(so3, np.ones(4), np.ones(3))
        with pytest.raises(ValueError, match="dimension"):
            ad_star(so3, np.ones(3), np.ones(2))

    @given(u=vec3(), v=vec3(), a=st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry_and_linearity(self, u, v, a):
        so3 = builtin("so3")
        assert np.allclose(bracket(so3, u, v), -bracket(so3, v, u), atol=1e-12)
        lhs = bracket(so3, a * u, v)
        assert np.allclose(lhs, a * bracket(so3, u, v), atol=1e-10)


class TestAdStar:
    def test_so3_minus_cross(self):
        so3 = builtin("so3")
        rng = np.random.default_rng(3)
        for _ in range(20):
            v, m = rng.normal(size=(2, 3))
            assert np.allclose(ad_star(so3, v, m), -np.cross(v, m))

    def test_zero_argument(self):
        so3 = builtin("so3")
        assert np.allclose(ad_star(so3, np.zeros(3), np.array([1.0, 2, 3])), 0.0)

    def test_h3_dual_action(self):
        # pairing oracle: <ad*(e1, e^3), w> = <e^3, [e1, w]>; the only
        # surviving contraction is w = e2 with [e1, e2] = e3, giving +1
        h3 = builtin("h3")
        out = ad_star(h3, E1, E3)
        for w in (E1, E2, E3):
            assert out @ w == pytest.approx(E3 @ bracket(h3, E1, w), abs=1e-15)
        assert np.allclose(out, E2)

    @pytest.mark.parametrize("name", ["so3", "h3", "se2"])
    def test_pairing_identity(self, name):
        alg = builtin(name)
        rng = np.random.default_rng(4)
        for _ in range(100):
            v, m, w = rng.normal(size=(3, 3))
            lhs = ad_star(alg, v, m) @ w
            rhs = m @ bracket(alg, v, w)
            scale = 1.0 + np.linalg.norm(m) * np.linalg.norm(v) * np.linalg.norm(w)
            assert abs(lhs - rhs) <= 1e-12 * scale


def _einsum_ad_star(alg, v, m):
    """The contraction over all of c, the reference every kernel must match."""
    return -np.einsum("abg,...g,...b->...a", alg.c, m, v)


def _kernel_algebra(name):
    if name == "abelian":
        return abelian(3)
    if name in ("swap+", "swap-"):
        # R^2 x| R with [e3, e1] = +-e2, [e3, e2] = +-e1: the ad* component
        # along e3 has two terms of one sign, minus for swap+, plus for swap-
        sign = 1.0 if name == "swap+" else -1.0
        c = np.zeros((3, 3, 3))
        c[2, 0, 1] = c[2, 1, 0] = sign
        c[0, 2, 1] = c[1, 2, 0] = -sign
        alg = LieAlgebraSpec(dim=3, c=c, name=name)
        alg.check_valid()
        return alg
    if name == "so3x2":
        # a valid algebra whose constants are not +-1: it must stay on einsum
        return LieAlgebraSpec(dim=3, c=2.0 * builtin("so3").c, name="so3x2")
    return builtin(name)


def _kernel_operands(shape, layout, E, C, rng):
    """(1 + C, E, r) x (E, r) or (C, r) x (E, 1, r) operands, with the E rows
    either row-major or component-major as ensemble states keep them."""
    m = rng.normal(size=(E, 3)) if layout == "row" else np.asarray(rng.normal(size=(3, E))).T
    if shape == "stack":
        if layout == "row":
            return rng.normal(size=(1 + C, E, 3)), m
        v = _stack_buffer(1 + C, (E,), 3)
        v[...] = rng.normal(size=v.shape)
        return v, m
    return rng.normal(size=(C, 3)), m[:, None, :]


N = _TRIPLE_MIN_ROWS


class TestAdStarKernel:
    @pytest.mark.parametrize("name", ["so3", "se2", "h3", "abelian", "swap+", "swap-", "so3x2"])
    @pytest.mark.parametrize("E", [1, N - 1, N, 4 * N])
    @pytest.mark.parametrize("layout", ["row", "component"])
    @pytest.mark.parametrize("shape", ["stack", "broadcast"])
    def test_equals_einsum_reference(self, name, E, layout, shape):
        alg = _kernel_algebra(name)
        v, m = _kernel_operands(shape, layout, E, 2, np.random.default_rng(E))
        ref = _einsum_ad_star(alg, v, m)
        out = ad_star(alg, v, m)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)
        if alg._triples_from < np.inf:
            tri = algebra._ad_star_triples(alg, v, m)
            assert np.array_equal(tri, ref)
            # with no zero input, the zeros agree in sign too
            assert np.array_equal(np.signbit(tri), np.signbit(out))

    def test_exactness(self):
        for name in ("so3", "se2", "h3", "abelian", "swap+", "swap-"):
            assert _kernel_algebra(name)._triples_from == 3 * N
        assert _kernel_algebra("so3x2")._triples_from == np.inf
        # three terms in one component, each +-1
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[0, 2, 1], c[0, 0, 0] = 1.0, -1.0, 1.0
        assert LieAlgebraSpec(dim=3, c=c)._triples_from == np.inf

    def test_kernel_rule(self, monkeypatch):
        calls = []
        triples = algebra._ad_star_triples
        monkeypatch.setattr(algebra, "_ad_star_triples",
                            lambda *a: calls.append(a) or triples(*a))
        so3, rng = builtin("so3"), np.random.default_rng(0)
        # single states and small batches stay on einsum
        ad_star(so3, rng.normal(size=(3, 3)), rng.normal(size=3))
        ad_star(so3, rng.normal(size=(N - 1, 3)), rng.normal(size=3))
        assert calls == []
        ad_star(so3, rng.normal(size=(N, 3)), rng.normal(size=3))
        ad_star(so3, rng.normal(size=(2, 3)), rng.normal(size=(N, 1, 3)))
        assert len(calls) == 2
        ad_star(_kernel_algebra("so3x2"), rng.normal(size=(4 * N, 3)), rng.normal(size=3))
        assert len(calls) == 2

    @pytest.mark.parametrize("name,rows", [("so3", 1), ("so3", 4 * N), ("so3x2", 4 * N)])
    def test_leading_axes_mismatch_names_both_operands(self, name, rows):
        alg = _kernel_algebra(name)
        v, m = np.ones((2 * rows, 3)), np.ones((4 * rows, 3))
        msg = rf"v \({2 * rows}, 3\) and m \({4 * rows}, 3\)"
        with pytest.raises(ValueError, match=msg):
            ad_star(alg, v, m)


class TestSpecEquality:
    def test_value_equality_and_hash(self):
        a, b = builtin("so3"), builtin("so3")
        assert a == b and hash(a) == hash(b)
        assert len({a, b, builtin("se2")}) == 2
        assert a != builtin("se2")
        assert a != LieAlgebraSpec(dim=3, c=a.c, name="other")
        assert a != LieAlgebraSpec(dim=3, c=2.0 * a.c, name="so3")
        assert a != "so3"
        # a negative zero compares and hashes like a zero
        z = abelian(2, name="z")
        nz = LieAlgebraSpec(dim=2, c=-np.zeros((2, 2, 2)), name="z")
        assert z == nz and hash(z) == hash(nz)

    def test_repr_omits_arrays_and_terms(self):
        assert repr(builtin("h3")) == "LieAlgebraSpec(dim=3, name='h3')"


class TestJacobi:
    def test_corrupted_so3(self):
        c = builtin("so3").c.copy()
        c.setflags(write=True)
        c[0, 1, 2] = -1.0  # c_12^3 flipped while c_21^3 stays -1
        bad = LieAlgebraSpec(dim=3, c=c, name="so3-corrupt")
        assert jacobi_residual(bad) >= 1.0

    def test_abelian_trivially_valid(self):
        alg = abelian(5)
        assert jacobi_residual(alg) == 0.0
        assert np.allclose(bracket(alg, np.ones(5), np.arange(5.0)), 0.0)


class TestJsonLoader:
    def test_roundtrip_so3(self):
        entries = [[0, 1, 2, 1.0], [1, 0, 2, -1.0], [1, 2, 0, 1.0],
                   [2, 1, 0, -1.0], [2, 0, 1, 1.0], [0, 2, 1, -1.0]]
        doc = json.dumps({"dim": 3, "c": entries, "name": "so3-json"})
        alg = load_algebra_json(doc)
        assert np.allclose(alg.c, builtin("so3").c)

    def test_rejects_missing_antisymmetric_partner(self):
        doc = json.dumps({"dim": 3, "c": [[0, 1, 2, 1.0]]})
        with pytest.raises(ValueError, match="antisymmetric"):
            load_algebra_json(doc)

    def test_rejects_jacobi_violation(self):
        # antisymmetric table with [e1,e2] = e2 and [e2,e3] = e1, for which the
        # cyclic sum over (1,2,3) leaves the bare term [e2,e3] = e1
        entries = [[0, 1, 1, 1.0], [1, 0, 1, -1.0], [1, 2, 0, 1.0], [2, 1, 0, -1.0]]
        doc = json.dumps({"dim": 3, "c": entries})
        with pytest.raises(ValueError, match="Jacobi"):
            load_algebra_json(doc)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_rejects_non_finite_constants(self, value):
        # NaN fails every comparison, so the residual test must not pass it
        with pytest.raises(ValueError, match="antisymmetric"):
            load_algebra_json('{"dim": 3, "c": [[0, 1, 0, %s]]}' % value)

    def test_rejects_unknown_keys_and_bad_indices(self):
        with pytest.raises(ValueError, match="only"):
            load_algebra_json(json.dumps({"dim": 3, "c": [], "extra": 1}))
        with pytest.raises(ValueError, match="out of range"):
            load_algebra_json(json.dumps({"dim": 2, "c": [[0, 1, 2, 1.0]]}))

    def test_file_object(self):
        alg = load_algebra_json(io.StringIO('{"dim": 2, "c": []}'), name="ab2")
        assert alg.name == "ab2"
        assert alg.dim == 2
