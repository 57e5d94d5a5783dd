import csv

import numpy as np
import pytest

from omoe_lab import Dataset, Rng, batches, gen_subspace_clusters, load_csv
from omoe_lab.errors import ContractViolation, DataLoadError


def write_csv(dataset: Dataset, path) -> None:
    """Full-precision decimal CSV: feature columns f0..f{d-1} plus target."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"f{i}" for i in range(dataset.X.shape[1])] + ["target"])
        for row, target in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(target)])


def class_rows(ds, k):
    return ds.X[ds.y == k]


class TestSubspaceClusters:
    def test_points_live_in_their_subspace(self):
        # noise-free, class k's points span exactly a subspace_dim-dimensional subspace,
        # whether the subspaces fit side by side (3 * 3 <= 12) or overlap (4 * 2 > 4)
        for K, d_raw, subspace_dim in ((2, 4, 1), (3, 12, 3), (4, 4, 2)):
            ds = gen_subspace_clusters(Rng(0), K=K, d_raw=d_raw, n_per_cluster=10,
                                       subspace_dim=subspace_dim, noise_std=0.0)
            for k in range(K):
                assert np.linalg.matrix_rank(class_rows(ds, k), tol=1e-10) == subspace_dim

    def test_balanced_labels(self):
        ds = gen_subspace_clusters(Rng(1), K=3, d_raw=9, n_per_cluster=7, subspace_dim=2)
        counts = np.bincount(ds.y, minlength=3)
        np.testing.assert_array_equal(counts, [7, 7, 7])

    def test_determinism(self):
        a = gen_subspace_clusters(Rng(5), K=2, d_raw=6, n_per_cluster=5, subspace_dim=2)
        b = gen_subspace_clusters(Rng(5), K=2, d_raw=6, n_per_cluster=5, subspace_dim=2)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_orthogonality_when_bases_fit(self):
        # K * subspace_dim <= d_raw: every point is orthogonal to every other class's
        ds = gen_subspace_clusters(Rng(2), K=3, d_raw=12, n_per_cluster=4, subspace_dim=3,
                                   noise_std=0.0)
        for i in range(3):
            for j in range(i + 1, 3):
                np.testing.assert_allclose(class_rows(ds, i) @ class_rows(ds, j).T, 0.0,
                                           atol=1e-10)

    def test_overlap_flag_when_bases_do_not_fit(self):
        # K * subspace_dim > d_raw: the subspaces cannot all be orthogonal, and are not
        ds = gen_subspace_clusters(Rng(3), K=4, d_raw=4, n_per_cluster=3, subspace_dim=2,
                                   noise_std=0.0)
        largest = max(np.abs(class_rows(ds, i) @ class_rows(ds, j).T).max()
                      for i in range(4) for j in range(i + 1, 4))
        assert largest > 1e-3

    def test_single_cluster_rejected(self):
        with pytest.raises(ContractViolation):
            gen_subspace_clusters(Rng(0), K=1, d_raw=4, n_per_cluster=3, subspace_dim=1)

    def test_subspace_too_wide_rejected(self):
        with pytest.raises(ContractViolation):
            gen_subspace_clusters(Rng(0), K=2, d_raw=3, n_per_cluster=3, subspace_dim=4)


class TestCsvRoundTrip:
    def test_classification_round_trip_exact(self, tmp_path):
        ds = gen_subspace_clusters(Rng(0), K=2, d_raw=4, n_per_cluster=5, subspace_dim=1,
                                   noise_std=0.1)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        loaded = load_csv(path, [f"f{i}" for i in range(4)], "target")
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.y, ds.y)
        assert loaded.n_classes == 2

    # a target must be a class index: a real-valued one is refused, not truncated
    @pytest.mark.parametrize("bad_row, column, why", [
        ("7.0,oops,0", "f1", "unparsable cell 'oops'"),
        ("7.0,7.5,1.5", "target", "unparsable cell '1.5'"),
        ("7.0,7.5,-0.25", "target", "unparsable cell '-0.25'"),
        ("7.0,nan,0", "f1", "nan is not a finite number"),
        ("-inf,7.5,0", "f0", "-inf is not a finite number"),
        ("7.0,7.5,-1", "target", "-1 is not a class index >= 0"),
        ("7.0,7.5,nan", "target", "unparsable cell 'nan'"),
        # Python's int and float read digit-group underscores: 10 and 15.0
        ("7.0,7.5,1_0", "target", "unparsable cell '1_0'"),
        ("7.0,1_5.0,0", "f1", "unparsable cell '1_5.0'"),
    ], ids=["feature", "class_target", "real_target", "nan_feature", "inf_feature",
            "negative_class", "nan_real_target", "underscore_target", "underscore_feature"])
    def test_bad_cell_cites_row_and_column(self, tmp_path, bad_row, column, why):
        path = tmp_path / "bad.csv"
        rows = ["f0,f1,target"] + [f"{i}.0,{i}.5,0" for i in range(1, 10)]
        rows[7] = bad_row  # data row 7
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataLoadError) as info:
            load_csv(path, ["f0", "f1"], "target")
        assert str(info.value) == f"row 7, column '{column}': {why}"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataLoadError, match="no data rows"):
            load_csv(path, ["f0"], "target")

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f0,target\n")
        with pytest.raises(DataLoadError, match="no data rows"):
            load_csv(path, ["f0"], "target")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("f0,target\n1.0,0\n")
        with pytest.raises(DataLoadError, match="missing column"):
            load_csv(path, ["f0", "f9"], "target")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,target\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataLoadError, match="row 2"):
            load_csv(path, ["f0", "f1"], "target")


def toy_dataset(n=10, d=3):
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(n, d)), np.arange(n) % 2, 2)


class TestBatches:
    def test_full_batch_is_permutation(self):
        ds = toy_dataset(n=10)
        out = list(batches(ds, seed=0, epoch=0, batch_size=10))
        assert len(out) == 1
        Xb, yb = out[0]
        order = np.lexsort(Xb.T)
        base = np.lexsort(ds.X.T)
        np.testing.assert_array_equal(Xb[order], ds.X[base])

    def test_replay_determinism(self):
        ds = toy_dataset()
        def two_epochs():
            return [batch for epoch in range(2)
                    for batch in batches(ds, seed=3, epoch=epoch, batch_size=4)]
        a, b = two_epochs(), two_epochs()
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_partial_final_batch_sizes(self):
        ds = toy_dataset(n=10)
        sizes = [xb.shape[0] for xb, _ in batches(ds, seed=0, epoch=0, batch_size=4)]
        assert sizes == [4, 4, 2]

    def test_epoch_covers_every_row_once(self):
        ds = toy_dataset(n=10)
        seen = np.concatenate([yb for _, yb in batches(ds, seed=1, epoch=0, batch_size=3)])
        assert seen.shape[0] == 10
        np.testing.assert_array_equal(np.sort(seen), np.sort(ds.y))

    def test_oversized_batch_rejected(self):
        ds = toy_dataset(n=5)
        with pytest.raises(ContractViolation):
            list(batches(ds, seed=0, epoch=0, batch_size=6))

    def test_non_positive_batch_rejected(self):
        ds = toy_dataset(n=5)
        for size in (0, -4):  # no batch can hold fewer than one row
            with pytest.raises(ContractViolation, match="batch_size"):
                list(batches(ds, seed=0, epoch=0, batch_size=size))


class TestDatasetValidation:
    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            Dataset(np.zeros((0, 3)), np.zeros(0), 2)

    def test_nonfinite_rejected(self):
        X = np.ones((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            Dataset(X, np.zeros(2), 2)

    def test_class_range_enforced(self):
        with pytest.raises(ContractViolation):
            Dataset(np.ones((2, 2)), np.array([0, 5]), 2)

    # the targets pass the loss's own check of class indices
    def test_fractional_class_rejected(self):
        # astype(np.int64) once truncated 0.7 to class 0
        with pytest.raises(ContractViolation, match=r"target 0\.7 in row 0 .*\[0, 2\)"):
            Dataset(np.zeros((2, 1)), np.array([0.7, 1.0]), 2)

    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_target_count_must_match_rows(self, n_targets):
        # a longer y was once accepted, and batches dropped its extra targets
        with pytest.raises(ContractViolation, match=f"{n_targets} targets for 2 rows"):
            Dataset(np.zeros((2, 1)), np.zeros(n_targets, dtype=np.int64), 2)

    def test_no_unchecked_kind(self):
        # a misspelled kind once skipped the class-index check altogether; the dataset
        # takes no kind, and its targets are always checked
        with pytest.raises(TypeError):
            Dataset(np.zeros((2, 1)), np.array([0, 5]), "clasification", 2)
        with pytest.raises(ContractViolation):
            Dataset(np.zeros((2, 1)), np.array([0, 5]), 2)

    def test_whole_float_targets_become_indices(self):
        ds = Dataset(np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]), 2)
        assert ds.y.dtype == np.int64
        np.testing.assert_array_equal(ds.y, [1, 0, 1])
