import numpy as np
import pytest

from gflasso.simulate import (
    SimulationSpec,
    gen_coefficients,
    gen_genotypes,
    gen_outputs,
    replicate_seed,
    simulate_dataset,
    simulate_test_set,
    substream_seed,
)

from oracles import spec_from_json_dict, support


class TestGenotypes:
    def test_deterministic(self):
        a = gen_genotypes(50, 20, seed=7)
        b = gen_genotypes(50, 20, seed=7)
        assert np.array_equal(a, b)

    def test_allele_counts(self):
        X = gen_genotypes(200, 30, seed=1)
        assert set(np.unique(X)) <= {0.0, 1.0, 2.0}

    def test_column_means_bounded_by_twice_maf(self):
        # maf <= 0.5 means expected column mean <= 1; check across seeds
        for seed in range(5):
            X = gen_genotypes(1000, 25, seed=seed)
            means = X.mean(axis=0)
            assert np.all(means >= 0.0) and np.all(means <= 1.15)


class TestCoefficients:
    def test_default_support_count(self):
        # groups of 3/3/4 outputs with 3/4/4 private inputs, plus one input
        # shared by the first two groups and one shared by all outputs:
        # 3*3 + 4*3 + 4*4 + 6 + 10 = 53 non-zeros
        B_true = gen_coefficients(SimulationSpec(seed=5))
        assert np.count_nonzero(B_true) == 53
        assert len(support(B_true)) == 53

    def test_all_nonzeros_equal_signal(self):
        spec = SimulationSpec(seed=9, signal=0.5)
        B_true = gen_coefficients(spec)
        nz = B_true[B_true != 0]
        assert np.all(nz == 0.5)

    def test_groups_share_input_sets(self):
        spec = SimulationSpec(seed=3)
        B = gen_coefficients(spec)
        start = 0
        for size in spec.group_sizes:
            cols = range(start, start + size)
            supports = [frozenset(np.nonzero(B[:, c])[0].tolist()) for c in cols]
            assert len(set(supports)) == 1
            start += size

    def test_private_inputs_disjoint_across_groups(self):
        spec = SimulationSpec(seed=4)
        B = gen_coefficients(spec)
        # the globally shared input hits every column; the pair input hits 6
        counts = (B != 0).sum(axis=1)
        global_inputs = np.where(counts == spec.n_outputs)[0]
        pair_inputs = np.where(counts == 6)[0]
        assert len(global_inputs) == 1 and len(pair_inputs) == 1
        private = np.where((counts > 0) & (counts < 6))[0]
        assert len(private) == 3 + 4 + 4

    def test_insufficient_inputs_rejected(self):
        with pytest.raises(ValueError):
            gen_coefficients(SimulationSpec(n_inputs=10, seed=0))


class TestOutputs:
    def test_noise_free_is_exact(self):
        X = gen_genotypes(30, 15, seed=2)
        B_true = gen_coefficients(SimulationSpec(n_samples=30, n_inputs=15, seed=2))
        Y = gen_outputs(X, B_true, noise_sd=0.0, seed=11)
        assert np.array_equal(Y, X @ B_true)

    def test_deterministic(self):
        X = gen_genotypes(20, 15, seed=2)
        B = np.zeros((15, 4))
        assert np.array_equal(gen_outputs(X, B, 1.0, seed=3), gen_outputs(X, B, 1.0, seed=3))

    def test_residual_variance(self):
        X = gen_genotypes(5000, 15, seed=6)
        B_true = gen_coefficients(SimulationSpec(n_samples=5000, n_inputs=15, seed=6))
        Y = gen_outputs(X, B_true, noise_sd=1.5, seed=7)
        resid = Y - X @ B_true
        assert resid.var() == pytest.approx(1.5**2, rel=0.1)


class TestPipeline:
    def test_full_determinism(self):
        a = simulate_dataset(SimulationSpec(seed=123))
        b = simulate_dataset(SimulationSpec(seed=123))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.B_true, b.B_true)

    def test_substreams_are_distinct(self):
        seeds = {substream_seed(0, i) for i in range(5)}
        assert len(seeds) == 5
        assert replicate_seed(0, 0) != replicate_seed(0, 1)

    def test_test_set_shares_truth_but_not_samples(self):
        spec = SimulationSpec(seed=21)
        ds = simulate_dataset(spec)
        X_test, Y_test = simulate_test_set(spec, ds.B_true, 50)
        assert X_test.shape == (50, spec.n_inputs)
        assert not np.array_equal(X_test[: ds.X.shape[0]], ds.X[:50])
        assert np.array_equal(Y_test, X_test @ ds.B_true + (Y_test - X_test @ ds.B_true))

    def test_within_group_correlation_exceeds_across(self):
        # at strong signal the shared inputs make within-block output
        # correlations dominate; average over seeds to damp noise
        within_all, across_all = [], []
        for seed in range(4):
            ds = simulate_dataset(SimulationSpec(seed=seed, signal=0.8))
            R = np.corrcoef(ds.Y.T)
            sizes = ds.spec.group_sizes
            start = 0
            blocks = []
            for s in sizes:
                blocks.append(list(range(start, start + s)))
                start += s
            for bi, block in enumerate(blocks):
                for i in block:
                    for jj in block:
                        if i < jj:
                            within_all.append(abs(R[i, jj]))
                    for other in blocks[bi + 1 :]:
                        for jj in other:
                            across_all.append(abs(R[i, jj]))
        assert np.mean(within_all) > np.mean(across_all)

    def test_spec_json_roundtrip(self):
        spec = SimulationSpec(seed=77, signal=0.3, group_sizes=(5, 5), inputs_per_group=(2, 3), n_outputs=10)
        assert spec_from_json_dict(spec.to_json_dict()) == spec

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimulationSpec(group_sizes=(3, 3))
        with pytest.raises(ValueError):
            SimulationSpec(signal=0.0)
        with pytest.raises(ValueError):
            SimulationSpec(inputs_per_group=(3, 4))


def test_dataset_save_load_roundtrip(tmp_path):
    from gflasso.cli import main

    from oracles import load_dataset

    ds = simulate_dataset(SimulationSpec(seed=31))
    assert main(["simulate", "--out-dir", str(tmp_path), "--seed", "31"]) == 0
    back = load_dataset(tmp_path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    assert np.array_equal(back.B_true, ds.B_true)
    assert back.spec == ds.spec
