import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from genecluster.errors import ParameterError, ShapeError, ValidationError
from genecluster.fuzzysoft import (
    MembershipMatrix,
    MembershipShape,
    fuzzify,
    membership,
    similarity,
    similarity_profile,
)
from genecluster.ingest import ExpressionMatrix


def s_shape(a, b):
    return MembershipShape("s", a, b)


def z_shape(a, b):
    return MembershipShape("z", a, b)


class TestMembership:
    def test_s_knot_endpoints(self):
        assert membership(0.0, s_shape(0, 2)) == 0.0
        assert membership(2.0, s_shape(0, 2)) == 1.0

    def test_s_interior_values(self):
        assert membership(1.0, s_shape(0, 2)) == pytest.approx(0.5, abs=1e-12)
        assert membership(0.5, s_shape(0, 2)) == pytest.approx(0.125, abs=1e-12)

    def test_s_outside_knots(self):
        assert membership(-3.0, s_shape(0, 2)) == 0.0
        assert membership(9.0, s_shape(0, 2)) == 1.0

    def test_z_is_mirror(self):
        assert membership(1.0, z_shape(0, 2)) == pytest.approx(0.5, abs=1e-12)
        assert membership(0.0, z_shape(0, 2)) == 1.0
        assert membership(2.0, z_shape(0, 2)) == 0.0

    def test_degenerate_knots_give_full_membership(self):
        for kind in ("s", "z"):
            shape = MembershipShape(kind, 3.0, 3.0)
            for x in (-10.0, 3.0, 42.0):
                assert membership(x, shape) == 1.0

    def test_invalid_shape(self):
        with pytest.raises(ParameterError):
            MembershipShape("triangle", 0, 1)
        with pytest.raises(ParameterError):
            MembershipShape("s", 2, 1)

    def test_nan_knots_rejected(self):
        for a, b in ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)):
            with pytest.raises(ParameterError):
                MembershipShape("s", a, b)

    def test_nan_input_is_nan(self):
        for kind in ("s", "z"):
            assert np.isnan(membership(np.nan, MembershipShape(kind, 0.0, 2.0)))

    def test_infinite_input_saturates(self):
        assert membership(-np.inf, s_shape(0, 2)) == 0.0
        assert membership(np.inf, s_shape(0, 2)) == 1.0
        assert membership(-np.inf, z_shape(0, 2)) == 1.0
        assert membership(np.inf, z_shape(0, 2)) == 0.0

    def test_degenerate_knots_take_any_input_to_one(self):
        for kind in ("s", "z"):
            for x in (np.nan, -np.inf, np.inf):
                assert membership(x, MembershipShape(kind, 3.0, 3.0)) == 1.0

    def test_extreme_knots_raise_no_warning(self):
        shapes = [
            MembershipShape(kind, a, b)
            for kind in ("s", "z")
            for a, b in ((-1e308, 1e308), (-np.inf, 0.0), (-np.inf, np.inf))
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shape in shapes:
                for x in (-np.inf, -1e308, -1.0, 0.0, 0.5, 1e308, np.inf, np.nan):
                    membership(x, shape)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=1e-3, max_value=10),
        st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=10),
    )
    def test_monotone_and_bounded(self, a, width, xs):
        rising = s_shape(a, a + width)
        falling = z_shape(a, a + width)
        xs = sorted(xs)
        s_vals = [membership(x, rising) for x in xs]
        z_vals = [membership(x, falling) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in s_vals + z_vals)
        assert all(u <= v + 1e-12 for u, v in zip(s_vals, s_vals[1:]))
        assert all(u >= v - 1e-12 for u, v in zip(z_vals, z_vals[1:]))


def matrix_from(values):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return ExpressionMatrix(
        tuple(f"g{i}" for i in range(n)), tuple(f"s{j}" for j in range(m)), values
    )


class TestFuzzify:
    def test_no_genes(self):
        out = fuzzify(ExpressionMatrix((), ("s1", "s2"), np.zeros((0, 2))), "s")
        assert isinstance(out, MembershipMatrix)
        assert (out.sample_ids, out.values.shape) == (("s1", "s2"), (0, 2))

    def test_plain_array_rejected(self):
        with pytest.raises(ValidationError, match=r"^fuzzify: expected an ExpressionMatrix or MembershipMatrix, got ndarray$"):
            fuzzify(np.zeros((2, 3)))

    def test_worked_column(self):
        out = fuzzify(matrix_from([[0.0], [2.0], [4.0]]), "s")
        assert out.values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_ones(self):
        out = fuzzify(matrix_from([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), "s")
        assert out.values[:, 0].tolist() == [1.0, 1.0, 1.0]

    def test_z_kind_mirrors_extremes(self):
        out = fuzzify(matrix_from([[0.0], [2.0], [4.0]]), "z")
        assert out.values[:, 0].tolist() == [1.0, 0.5, 0.0]

    def test_column_extremes_hit_zero_and_one(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(12, 5))
        out = fuzzify(matrix_from(values), "s")
        for j in range(5):
            col = out.values[:, j]
            assert col[np.argmin(values[:, j])] == 0.0
            assert col[np.argmax(values[:, j])] == 1.0

    def test_range_always_unit_interval(self):
        rng = np.random.default_rng(1)
        values = rng.normal(scale=50, size=(30, 4))
        for kind in ("s", "z"):
            out = fuzzify(matrix_from(values), kind)
            assert out.values.min() >= 0.0
            assert out.values.max() <= 1.0

    def test_identifiers_preserved(self):
        m = matrix_from([[1.0, 2.0], [3.0, 4.0]])
        out = fuzzify(m)
        assert out.gene_ids == m.gene_ids
        assert out.sample_ids == m.sample_ids

    def test_matches_scalar_membership(self):
        values = np.array([[0.0, 5.0], [2.0, 6.0], [4.0, 9.0]])
        out = fuzzify(matrix_from(values), "s")
        for j in range(2):
            shape = s_shape(values[:, j].min(), values[:, j].max())
            for i in range(3):
                assert out.values[i, j] == pytest.approx(
                    membership(values[i, j], shape), abs=1e-15
                )

    def test_bad_kind(self):
        with pytest.raises(ParameterError):
            fuzzify(matrix_from([[1.0]]), "q")

    def test_kind_is_exact(self):
        with pytest.raises(ParameterError):
            fuzzify(matrix_from([[1.0]]), "S")
        with pytest.raises(ParameterError):
            MembershipShape("S", 0, 1)

    def test_scalar_membership_is_the_same_spline_bit_for_bit(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(1000, 10)) * rng.uniform(0.1, 100.0, size=10)
        for kind in ("s", "z"):
            out = fuzzify(matrix_from(values), kind).values
            for j in range(values.shape[1]):
                column = values[:, j]
                shape = MembershipShape(kind, column.min(), column.max())
                assert [membership(x, shape) for x in column] == out[:, j].tolist(), (kind, j)


class TestMembershipMatrixType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            MembershipMatrix(("g1",), ("s1",), [[1.5]])
        with pytest.raises(ValidationError):
            MembershipMatrix(("g1",), ("s1",), [[-0.1]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            MembershipMatrix(("g1", "g2"), ("s1",), [[0.5], [np.nan]])

    def test_exportable_in_the_ingest_layout(self):
        import io

        from genecluster.ingest import parse_matrix, write_matrix

        out = fuzzify(matrix_from([[0.0, 3.0], [2.0, 5.0], [4.0, 7.0]]), "s")
        buf = io.StringIO()
        write_matrix(out, buf)
        again = parse_matrix(io.StringIO(buf.getvalue()))
        assert again.gene_ids == out.gene_ids
        assert np.array_equal(again.values, out.values)


class TestSimilarity:
    def test_identical_vectors(self):
        x = [0.3, 0.7, 0.1]
        assert similarity(x, x) == 1.0

    def test_disjoint_support(self):
        assert similarity([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_worked_value(self):
        got = similarity([0.2, 0.4, 0.6], [0.4, 0.4, 0.8])
        assert got == pytest.approx(0.857143, abs=1e-6)
        assert got == pytest.approx(1 - 0.4 / 2.8, abs=1e-12)

    def test_zero_vectors_are_identical(self):
        assert similarity([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_membership_matrix_reads_as_its_values(self):
        x = MembershipMatrix(("g0",), ("a", "b", "c"), [[0.2, 0.4, 0.6]])
        z = [0.4, 0.4, 0.8]
        got = similarity(x, z).hex()
        assert got == similarity(x.values, z).hex() == similarity(x.values[0], z).hex()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            similarity([0.1, 0.2], [0.1])

    def test_nan_input_is_not_a_perfect_match(self):
        assert np.isnan(similarity([np.nan, 0.2], [0.1, 0.2]))
        assert np.isnan(similarity_profile([np.nan, 0.2], [[0.1, 0.2], [0.0, 0.0]])).all()

    def test_formula_applies_to_negative_sums(self):
        assert similarity([-1.0, 0.0], [-1.0, 0.0]) == 1.0
        assert similarity([-0.5, 0.0], [-0.25, 0.0]) == 1.0 - 0.25 / -0.75

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    def test_symmetric_bounded_and_reflexive(self, length, data):
        unit = st.floats(min_value=0.0, max_value=1.0)
        x = data.draw(st.lists(unit, min_size=length, max_size=length))
        z = data.draw(st.lists(unit, min_size=length, max_size=length))
        s = similarity(x, z)
        assert similarity(z, x) == s
        assert 0.0 <= s <= 1.0
        assert similarity(x, x) == 1.0
        assert s == pytest.approx(oracles.sim_reference(x, z), abs=1e-12)


class TestSimilarityProfile:
    def test_identity_position(self):
        gene = np.array([0.2, 0.8])
        centroids = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
        profile = similarity_profile(gene, centroids)
        assert profile[2] == 1.0
        assert profile.shape == (3,)

    def test_single_centroid_reduces_to_similarity(self):
        gene = [0.1, 0.9]
        centroid = [0.3, 0.3]
        profile = similarity_profile(gene, [centroid])
        assert profile[0] == pytest.approx(similarity(gene, centroid), abs=1e-15)

    def test_worked_profile(self):
        profile = similarity_profile(
            [0.2, 0.4, 0.6], [[0.4, 0.4, 0.8], [0.2, 0.4, 0.6]]
        )
        assert profile[0] == pytest.approx(0.857143, abs=1e-6)
        assert profile[1] == 1.0

    def test_membership_matrix_of_centroids_reads_as_its_values(self):
        centroids = MembershipMatrix(("c0", "c1"), ("a", "b", "c"),
                                     [[0.4, 0.4, 0.8], [0.1, 0.0, 0.3]])
        gene = [0.2, 0.4, 0.6]
        got = similarity_profile(gene, centroids)
        assert got.tobytes() == similarity_profile(gene, centroids.values).tobytes()

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            similarity_profile([0.1, 0.2], [[0.1, 0.2, 0.3]])
