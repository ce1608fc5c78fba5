import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import write_dataset
from genecluster.errors import (
    DegenerateLabelsError,
    InvalidDistributionError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from genecluster.fuzzysoft import MembershipMatrix
from genecluster.genefilter import (
    DiscretizationSpec,
    GeneRanking,
    bin_indices,
    discrete_information_gain,
    entropy,
    information_gain,
    rank_and_select,
    write_ranking,
)
from genecluster.ingest import (
    ClassLabels,
    ExpressionMatrix,
    _block_rows,
    parse_labels,
    parse_matrix,
)


# a labelled matrix is 2-D, so a vector argument given one is rejected like a
# one-row array, with the same typed error
ONE_ROW = ExpressionMatrix(("g0",), ("s0", "s1", "s2", "s3"), [[1.0, 2.0, 3.0, 4.0]])


class TestEntropy:
    def test_uniform_two_outcomes_is_exactly_one_bit(self):
        assert entropy((0.5, 0.5)) == 1.0

    def test_degenerate_distribution(self):
        assert entropy((1.0, 0.0)) == 0.0

    def test_quarter_three_quarters(self):
        expected = oracles.shannon_entropy([1, 3])
        assert entropy((0.25, 0.75)) == pytest.approx(0.811278, abs=1e-6)
        assert entropy((0.25, 0.75)) == pytest.approx(expected, abs=1e-12)

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy((1.2, -0.2))

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy((0.5, 0.4))

    def test_one_row_matrix_rejected_like_a_one_row_array(self):
        matrix = MembershipMatrix(("g0",), ("s0", "s1"), [[0.5, 0.5]])
        with pytest.raises(InvalidDistributionError,
                           match=r"^expected a non-empty 1-D probability vector$"):
            entropy(matrix)

    @pytest.mark.parametrize("distribution", [(), [[0.5, 0.5]]])
    def test_empty_or_two_dimensional_rejected(self, distribution):
        with pytest.raises(InvalidDistributionError,
                           match=r"^expected a non-empty 1-D probability vector$"):
            entropy(distribution)

    def test_sum_within_tolerance_accepted(self):
        entropy((0.5, 0.5 + 5e-10))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6))
    def test_permutation_invariant_and_maximal_at_uniform(self, weights):
        p = np.array(weights) / sum(weights)
        h = entropy(p)
        assert entropy(p[::-1]) == pytest.approx(h, abs=1e-12)
        b = len(p)
        uniform = entropy(np.full(b, 1.0 / b))
        assert uniform == pytest.approx(np.log2(b), abs=1e-12)
        assert h <= uniform + 1e-12


class TestBinIndices:
    def test_equal_width_codes(self):
        row = [0.0, 1.0, 2.0, 3.0]
        assert bin_indices(row, 2).tolist() == [0, 0, 1, 1]

    def test_max_lands_in_last_bin(self):
        assert bin_indices([0.0, 10.0], 3).tolist() == [0, 2]

    def test_non_integral_count_rejected(self):
        with pytest.raises(ParameterError, match=r"^bin_count must be an integer, got 2.5$"):
            bin_indices([1.0, 2.0, 3.0], 2.5)
        with pytest.raises(ParameterError):
            bin_indices([1.0, 2.0, 3.0], 0)
        assert bin_indices([1.0, 2.0, 3.0], np.int64(3)).tolist() == [0, 1, 2]

    def test_constant_row_single_bin(self):
        assert bin_indices([5.0, 5.0, 5.0], 4).tolist() == [0, 0, 0]

    def test_empty_row(self):
        codes = bin_indices([], 3)
        assert codes.dtype == np.int64 and codes.shape == (0,)

    def test_two_dimensional_row_rejected(self):
        with pytest.raises(ShapeError, match=r"^bin_indices expects a 1-D vector$"):
            bin_indices([[1.0, 2.0]], 2)

    def test_one_row_matrix_rejected_like_a_one_row_array(self):
        with pytest.raises(ShapeError, match=r"^bin_indices expects a 1-D vector$"):
            bin_indices(ONE_ROW, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_shared_contract(self, row, bins):
        assert bin_indices(row, bins).tolist() == oracles.equal_width_codes(row, bins)


class TestInformationGain:
    def test_perfect_separation_is_one_bit(self):
        gene = [0.0, 0.0, 10.0, 10.0]
        classes = ["A", "A", "B", "B"]
        assert information_gain(gene, classes, DiscretizationSpec(2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_independent_gene_is_zero(self):
        gene = [0.0, 10.0, 0.0, 10.0]
        classes = ["A", "A", "B", "B"]
        assert information_gain(gene, classes, DiscretizationSpec(2)) == 0.0

    def test_constant_gene_is_zero(self):
        gene = [5.0, 5.0, 5.0, 5.0]
        classes = ["A", "A", "B", "B"]
        assert information_gain(gene, classes, DiscretizationSpec(3)) == 0.0

    def test_accepts_class_labels_object(self):
        labels = ClassLabels({"s1": "A", "s2": "A", "s3": "B", "s4": "B"},
                             ("s1", "s2", "s3", "s4"))
        got = information_gain([1.0, 1.1, 9.0, 9.1], labels, DiscretizationSpec(2))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_single_class_propagates_degenerate_error(self):
        with pytest.raises(DegenerateLabelsError):
            information_gain([1.0, 2.0], ["A", "A"], DiscretizationSpec(2))

    def test_one_row_matrix_rejected_like_a_one_row_array(self):
        with pytest.raises(ShapeError, match=r"^gene row of length \(1, 4\) vs \(4,\) labels$"):
            information_gain(ONE_ROW, list("aabb"), DiscretizationSpec(2))

    def test_row_and_labels_of_different_lengths_rejected(self):
        with pytest.raises(ShapeError, match=r"^gene row of length \(3,\) vs \(2,\) labels$"):
            information_gain([1.0, 2.0, 3.0], ["A", "B"], DiscretizationSpec(2))

    @pytest.mark.parametrize("x, y, shapes", [
        ([0, 1], [0, 1, 1], "(2,) and (3,)"),
        ([], [], "(0,) and (0,)"),
        ([[0, 1]], [[0, 1]], "(1, 2) and (1, 2)"),
    ])
    def test_discrete_sequences_must_align(self, x, y, shapes):
        with pytest.raises(ShapeError) as err:
            discrete_information_gain(x, y)
        assert str(err.value) == f"aligned non-empty 1-D sequences required, got {shapes}"

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 11))
            row = rng.normal(size=m)
            classes = rng.integers(0, 2, size=m)
            if len(np.unique(classes)) < 2:
                continue
            bins = int(rng.integers(1, 4))
            ig = information_gain(row, classes, DiscretizationSpec(bins))
            codes = bin_indices(row, bins)
            hx = oracles.shannon_entropy(np.bincount(codes).tolist())
            hy = oracles.shannon_entropy(np.bincount(classes).tolist())
            assert 0.0 <= ig <= min(hx, hy) + 1e-9

    def test_agrees_with_histogram_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(2, 11))
            row = rng.normal(size=m)
            classes = rng.integers(0, 3, size=m)
            if len(np.unique(classes)) < 2:
                continue
            bins = int(rng.integers(1, 4))
            got = information_gain(row, classes, DiscretizationSpec(bins))
            want = oracles.info_gain_binned(row.tolist(), classes.tolist(), bins)
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry_of_joint_roles(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            x = rng.integers(0, 3, size=m)
            y = rng.integers(0, 4, size=m)
            assert discrete_information_gain(x, y) == pytest.approx(
                discrete_information_gain(y, x), abs=1e-12
            )


def build_matrix(values):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return ExpressionMatrix(
        tuple(f"g{i}" for i in range(n)), tuple(f"s{j}" for j in range(m)), values
    )


def build_labels(classes):
    sample_ids = tuple(f"s{j}" for j in range(len(classes)))
    return ClassLabels(dict(zip(sample_ids, classes)), sample_ids)


class TestRankAndSelect:
    def test_two_gene_instance_keeps_higher_ig(self):
        # gene 0 separates the classes, gene 1 is constant
        matrix = build_matrix([[0.0, 0.0, 9.0, 9.0], [5.0, 5.0, 5.0, 5.0]])
        labels = build_labels(["A", "A", "B", "B"])
        ranking, sub = rank_and_select(matrix, labels, DiscretizationSpec(2), 1)
        ig0 = oracles.info_gain_binned([0.0, 0.0, 9.0, 9.0], ["A", "A", "B", "B"], 2)
        ig1 = oracles.info_gain_binned([5.0] * 4, ["A", "A", "B", "B"], 2)
        assert ig0 > ig1
        assert ranking.order[0] == 0
        assert sub.gene_ids == ("g0",)
        assert sub.values.tolist() == [[0.0, 0.0, 9.0, 9.0]]

    def test_select_all_returns_identical_matrix(self):
        rng = np.random.default_rng(3)
        matrix = build_matrix(rng.normal(size=(6, 4)))
        labels = build_labels(["A", "B", "A", "B"])
        _, sub = rank_and_select(matrix, labels, DiscretizationSpec(3), 6)
        assert sub.gene_ids == matrix.gene_ids
        assert np.array_equal(sub.values, matrix.values)

    def test_selected_rows_are_unchanged_subset_in_original_order(self):
        rng = np.random.default_rng(4)
        matrix = build_matrix(rng.normal(size=(10, 6)))
        labels = build_labels(["A", "B", "A", "B", "A", "B"])
        ranking, sub = rank_and_select(matrix, labels, DiscretizationSpec(3), 4)
        positions = [matrix.gene_ids.index(g) for g in sub.gene_ids]
        assert positions == sorted(positions)
        for row, pos in zip(sub.values, positions):
            assert np.array_equal(row, matrix.values[pos])

    def test_scores_match_single_gene_operation(self):
        rng = np.random.default_rng(5)
        matrix = build_matrix(rng.normal(size=(8, 5)))
        labels = build_labels(["A", "B", "B", "A", "B"])
        spec = DiscretizationSpec(3)
        ranking, _ = rank_and_select(matrix, labels, spec, 8)
        for i in range(8):
            assert ranking.scores[i] == pytest.approx(
                information_gain(matrix.values[i], labels, spec), abs=1e-12
            )

    def test_ties_break_by_gene_index(self):
        matrix = build_matrix(np.ones((4, 4)))  # all IG 0
        labels = build_labels(["A", "B", "A", "B"])
        ranking, _ = rank_and_select(matrix, labels, DiscretizationSpec(2), 4)
        assert ranking.order.tolist() == [0, 1, 2, 3]

    def test_top_n_out_of_range(self):
        matrix = build_matrix(np.ones((3, 4)))
        labels = build_labels(["A", "B", "A", "B"])
        with pytest.raises(ParameterError):
            rank_and_select(matrix, labels, DiscretizationSpec(2), 4)
        with pytest.raises(ParameterError):
            rank_and_select(matrix, labels, DiscretizationSpec(2), 0)

    def test_non_integral_top_n_rejected(self):
        matrix = build_matrix(np.arange(12.0).reshape(3, 4))
        labels = build_labels(["A", "B", "A", "B"])
        with pytest.raises(ParameterError, match=r"^top_n must be an integer, got 2.5$"):
            rank_and_select(matrix, labels, DiscretizationSpec(2), 2.5)
        _, sub = rank_and_select(matrix, labels, DiscretizationSpec(2), np.int64(2))
        assert sub.n_genes == 2

    @pytest.mark.parametrize("sample_ids", [("s3", "s0", "s1", "s2"), ("t0", "t1", "t2", "t3")],
                             ids=["reordered", "other-samples"])
    def test_labels_for_another_sample_order_rejected(self, sample_ids):
        matrix = ExpressionMatrix(("g0",), sample_ids, [[9.0, 0.0, 0.0, 9.0]])
        labels = build_labels(["A", "A", "B", "B"])
        with pytest.raises(ValidationError, match="labels do not cover the matrix's samples"):
            rank_and_select(matrix, labels, DiscretizationSpec(2), 1)

    def test_plain_array_rejected(self):
        labels = build_labels(["A", "B", "A", "B"])
        with pytest.raises(ValidationError, match=r"^rank_and_select: expected an ExpressionMatrix or MembershipMatrix, got ndarray$"):
            rank_and_select(np.ones((3, 4)), labels, DiscretizationSpec(2), 1)

    def test_filtered_dimensions(self):
        rng = np.random.default_rng(6)
        matrix = build_matrix(rng.normal(size=(50, 8)))
        labels = build_labels(["A", "B"] * 4)
        _, sub = rank_and_select(matrix, labels, DiscretizationSpec(4), 12)
        assert (sub.n_genes, sub.n_samples) == (12, 8)


class TestExactTies:
    # Tables [[4,1],[0,2],[0,1]] and [[4,1],[0,0],[0,3]]: not permutations of
    # each other, yet 4^4 2^2 / (5^5 2^2) == 4^4 3^3 / (5^5 3^3) exactly.
    TIED_ROWS = ([0, 0, 0, 0, 0, 5, 5, 9], [0, 0, 0, 0, 0, 9, 9, 9])
    CLASSES = list("AAAABBBB")

    @pytest.mark.parametrize("rows", [TIED_ROWS, TIED_ROWS[::-1]])
    def test_equal_rational_gain_ranks_by_index(self, rows):
        ratios = [oracles.exact_gain_ratio(r, self.CLASSES, 3) for r in rows]
        assert ratios[0] == ratios[1]
        ranking, _ = rank_and_select(
            build_matrix(rows), build_labels(self.CLASSES), DiscretizationSpec(3), 1
        )
        assert ranking.order.tolist() == [0, 1]
        assert ranking.scores[0] == ranking.scores[1]

    def test_full_order_matches_exact_oracle(self, tmp_path):
        rng = np.random.default_rng(2024)
        n, m = 2000, 34
        classes = ["ALL"] * 22 + ["AML"] * 12
        rng.shuffle(classes)
        shift = np.where(np.array(classes) == "AML", 1.0, 0.0)
        log2 = rng.normal(7.0, 1.5, size=(n, 1)) + rng.normal(0.0, 0.5, size=(n, m))
        log2[: n // 10] += rng.normal(0.0, 1.0, size=(n // 10, 1)) * shift
        values = np.round(np.exp2(log2) + rng.normal(0.0, 20.0, size=(n, m)))
        matrix_path, labels_path = write_dataset(tmp_path, values, classes)
        matrix = parse_matrix(matrix_path)
        labels = parse_labels(labels_path, matrix)
        bins = DiscretizationSpec.sturges(m)
        ranking, _ = rank_and_select(matrix, labels, bins, 100)
        expected = oracles.exact_ig_order(values.tolist(), classes, bins.bin_count)
        assert ranking.order.tolist() == expected
        for i in range(0, n, 97):
            want = oracles.info_gain_binned(values[i].tolist(), classes, bins.bin_count)
            assert abs(ranking.scores[i] - want) <= 1e-12

    # 101 and 257 samples reach primes above any workload's, and above N / 2
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("m", [34, 101, 257])
    def test_tie_heavy_order_matches_exact_oracle(self, m, n_classes):
        rng = np.random.default_rng(m * 10 + n_classes)
        n = _block_rows(m) + 200  # more than one row block
        codes = rng.permutation(np.arange(m) % n_classes)
        classes = [f"c{c}" for c in codes]
        base = rng.integers(0, 4, size=(n // 8, m)) + rng.integers(0, 3, size=(n // 8, 1)) * codes
        values = base[rng.integers(0, n // 8, size=n)]
        for c in range(n_classes):  # shuffling within a class keeps a row's count table
            values[:, codes == c] = rng.permuted(values[:, codes == c], axis=1)
        bins = DiscretizationSpec.sturges(m)
        ranking, _ = rank_and_select(build_matrix(values), build_labels(classes), bins, 1)
        assert len(set(ranking.scores.tolist())) <= n // 8  # exact ties abound
        rows = values.tolist()
        assert ranking.order.tolist() == oracles.exact_ig_order(rows, classes, bins.bin_count)
        for row, score in zip(rows, ranking.scores.tolist()):
            assert abs(score - oracles.info_gain_binned(row, classes, bins.bin_count)) <= 1e-12


class TestGeneRankingType:
    def test_order_must_be_permutation(self):
        # a repeat, an index past the end, a negative index and a short order
        for order in ([0, 0], [0, 2], [-1, 0], [0]):
            with pytest.raises(ValidationError, match=r"^order must be a permutation of 0\.\.n-1$"):
                GeneRanking(np.array([1.0, 0.5]), np.array(order))

    def test_scores_must_be_non_increasing_along_order(self):
        with pytest.raises(Exception):
            GeneRanking(np.array([0.1, 0.9]), np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_scores_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValidationError, match=r"^scores must be finite and non-negative$"):
            GeneRanking(np.array([1.0, bad]), np.array([0, 1]))


class TestDiscretizationSpec:
    def test_sturges_default(self):
        assert DiscretizationSpec.sturges(34).bin_count == 7
        assert DiscretizationSpec.sturges(1).bin_count == 1

    def test_bad_bin_count(self):
        with pytest.raises(ParameterError):
            DiscretizationSpec(0)

    def test_non_integral_counts_rejected(self):
        with pytest.raises(ParameterError, match=r"^bin_count must be an integer, got 2.5$"):
            DiscretizationSpec(2.5)
        with pytest.raises(ParameterError, match=r"^sample_count must be an integer, got 2.5$"):
            DiscretizationSpec.sturges(2.5)
        with pytest.raises(ParameterError):
            DiscretizationSpec.sturges(0)

    def test_numpy_integers_accepted(self):
        assert DiscretizationSpec(np.int64(3)).bin_count == 3
        assert DiscretizationSpec.sturges(np.int32(34)).bin_count == 7


def test_write_ranking(tmp_path):
    ranking = GeneRanking(np.array([0.25, 0.75]), np.array([1, 0]))
    path = tmp_path / "ranking.csv"
    write_ranking(ranking, ("gA", "gB"), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gene_id,ig_bits,rank"
    assert lines[1] == "gB,0.75,1"
    assert lines[2] == "gA,0.25,2"


@pytest.mark.parametrize("gene_ids", [("gA",), ("gA", "gB", "gC")])
def test_write_ranking_rejects_another_number_of_ids(tmp_path, gene_ids):
    ranking = GeneRanking(np.array([0.25, 0.75]), np.array([1, 0]))
    path = tmp_path / "ranking.csv"
    with pytest.raises(ShapeError, match=rf"^{len(gene_ids)} gene ids for a ranking of 2 genes$"):
        write_ranking(ranking, gene_ids, path)
    assert not path.exists()
