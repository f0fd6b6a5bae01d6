import numpy as np
import pytest

from matsharp import (
    EnsembleSpec,
    InvalidRankError,
    hermitian_eigendecompose,
    random_commuting_pair,
    random_hermitian,
    random_pd,
    random_psd_rank_deficient,
    singular_values,
    split_seed,
)
from matsharp.ensembles import Stream, _assemble, _log_uniform_eigs


class TestSplitSeed:
    def test_pure(self):
        assert split_seed(123, 45) == split_seed(123, 45)

    def test_distinct_indices(self):
        stream = Stream(0)
        seeds = [int(x) for x in stream._bg.random_raw(1000)]
        for s in seeds:
            assert split_seed(s, 0) != split_seed(s, 1)

    def test_distinct_streams_for_campaign_sizes(self):
        derived = {split_seed(7, i) for i in range(100_000)}
        assert len(derived) == 100_000

    def test_stays_in_64_bits(self):
        assert 0 <= split_seed(2**64 - 1, 2**64 - 1) < 2**64


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["pd", "hermitian"])
    def test_byte_identical(self, kind):
        spec = EnsembleSpec(dim=5, kind=kind, seed=99)
        draw = random_pd if kind == "pd" else random_hermitian
        assert draw(spec).tobytes() == draw(spec).tobytes()

    def test_commuting_byte_identical(self):
        spec = EnsembleSpec(dim=4, kind="commuting", seed=7)
        a1, b1 = random_commuting_pair(spec)
        a2, b2 = random_commuting_pair(spec)
        assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()

    def test_different_seeds_differ(self):
        a = random_pd(EnsembleSpec(dim=4, seed=1))
        b = random_pd(EnsembleSpec(dim=4, seed=2))
        assert not np.array_equal(a, b)


class TestStackedDraws:
    @pytest.mark.parametrize("draw,kind,n", [
        (draw, kind, n)
        for draw, kind in [(random_pd, "pd"), (random_psd_rank_deficient, "psd"),
                           (random_commuting_pair, "commuting"), (random_hermitian, "hermitian")]
        for n in (1, 2, 5) if not (kind == "psd" and n == 1)   # rank < n
    ])
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_stack_rows_equal_single_draws(self, draw, kind, n, field):
        # A tuple of seeds draws a stack; row k has the bits of the single
        # draw with seed k, whatever the stack size.
        seeds = tuple(split_seed(31, k) for k in range(6))
        spec = EnsembleSpec(dim=n, kind=kind, field=field, seed=seeds, condition_target=1e6)
        stack = draw(spec)
        stacks = stack if kind == "commuting" else (stack,)
        for k, seed in enumerate(seeds):
            single = draw(EnsembleSpec(dim=n, kind=kind, field=field, seed=seed,
                                       condition_target=1e6))
            singles = single if kind == "commuting" else (single,)
            for whole, one in zip(stacks, singles):
                assert whole.shape == (len(seeds), n, n)
                assert whole[k].tobytes() == one.tobytes()

    def test_stream_stack_rows_equal_single_streams(self):
        seeds = (3, 5, 8)
        stacked = Stream(seeds)
        draws = [stacked.uniforms(7), stacked.normals(9), stacked.complex_normals(4)]
        for k, seed in enumerate(seeds):
            single = Stream(seed)
            for whole, one in zip(draws, [single.uniforms(7), single.normals(9),
                                          single.complex_normals(4)]):
                assert whole[k].tobytes() == one.tobytes()


    def test_stack_rows_equal_keyed_philox_words(self):
        # Successive draws of odd lengths cross the four-word block
        # boundaries of Philox at every offset.
        seeds = (0, 1, 2 ** 64 - 1, split_seed(9, 4), split_seed(9, 5))
        stacked = Stream(seeds)
        draws = [stacked._raw(count) for count in (3, 5, 1, 7, 2, 9)]
        for k, seed in enumerate(seeds):
            words = np.random.Philox(key=seed).random_raw(27)
            assert np.concatenate([draw[k] for draw in draws]).tobytes() == words.tobytes()

class TestRandomPd:
    def test_condition_target_seed17(self):
        a = random_pd(EnsembleSpec(dim=6, seed=17, condition_target=100.0))
        s = singular_values(a)
        measured = s[0] / s[-1]
        assert 50.0 <= measured <= 200.0

    def test_scalar_case(self):
        for seed in range(50):
            a = random_pd(EnsembleSpec(dim=1, seed=seed, condition_target=100.0))
            x = a[0, 0].real
            assert 0.1 <= x <= 10.0

    def test_strictly_positive(self):
        for seed in range(30):
            n = 2 + seed % 6
            w = hermitian_eigendecompose(random_pd(EnsembleSpec(dim=n, seed=seed))).eigenvalues
            assert w[-1] > 0

    def test_real_field_is_real(self):
        a = random_pd(EnsembleSpec(dim=4, seed=3, field="real"))
        assert float(np.abs(a.imag).max()) == 0.0


class TestCommutingPair:
    def test_scalars_commute(self):
        a, b = random_commuting_pair(EnsembleSpec(dim=1, kind="commuting", seed=5))
        assert a[0, 0].real > 0 and b[0, 0].real > 0

    def test_commutator_bound(self):
        for seed in range(50):
            n = 2 + seed % 6
            a, b = random_commuting_pair(EnsembleSpec(dim=n, kind="commuting", seed=seed))
            defect = np.linalg.norm(a @ b - b @ a)
            assert defect <= 1e-11 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_equal_diagonals_give_equal_matrices(self):
        # Degenerate sub-seed: assembling both from the same (U, D) data.
        stream = Stream(11)
        u = hermitian_eigendecompose(
            random_hermitian(EnsembleSpec(dim=3, kind="hermitian", seed=11))).vectors
        d = _log_uniform_eigs(stream, 3, 100.0)
        assert np.array_equal(_assemble(u, d), _assemble(u, d))


class TestPsdRankDeficient:
    def test_rank_zero_is_zero_matrix(self):
        a = random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=1, rank=0))
        assert np.array_equal(a, np.zeros((3, 3)))

    def test_rank_three_of_four(self):
        a = random_psd_rank_deficient(EnsembleSpec(dim=4, kind="psd", seed=2, rank=3))
        s = singular_values(a)
        assert np.sum(s <= 1e-12 * s[0]) == 1

    def test_rank_one_structure(self):
        a = random_psd_rank_deficient(EnsembleSpec(dim=4, kind="psd", seed=3, rank=1))
        spec = hermitian_eigendecompose(a)
        lam, v = spec.eigenvalues[0], spec.vectors[:, :1]
        assert np.linalg.norm(a - lam * (v @ v.conj().T)) <= 1e-12 * lam

    def test_zero_count_at_clamp_tolerance(self):
        for rank in (0, 1, 2, 3, 4):
            a = random_psd_rank_deficient(EnsembleSpec(dim=5, kind="psd", seed=rank + 10, rank=rank))
            w = hermitian_eigendecompose(a).eigenvalues
            clamp = 1e-12 * max(float(w[0]), 1e-300)
            assert np.sum(np.abs(w) <= clamp) == 5 - rank

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            random_psd_rank_deficient(EnsembleSpec(dim=3, kind="psd", seed=0, rank=3))


class TestStream:
    def test_uniforms_in_unit_interval(self):
        u = Stream(5).uniforms(10_000)
        assert np.all(u > 0) and np.all(u <= 1)
        assert abs(u.mean() - 0.5) < 0.02

    def test_normals_moments(self):
        z = Stream(6).normals(20_000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(dim=0)
        with pytest.raises(ValueError):
            EnsembleSpec(dim=2, kind="toeplitz")
        with pytest.raises(ValueError):
            EnsembleSpec(dim=2, condition_target=0.5)
        with pytest.raises(InvalidRankError):
            EnsembleSpec(dim=2, kind="psd", rank=5)
