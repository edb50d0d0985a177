"""Factor recompression and the precision policy.

Covers the first-class ``LowRankFactors`` representation end to end:

* the rank-bounded recompression step (QR + small SVD + tail-energy
  truncation) and its relative-error contract,
* the precision policy (float64 exact default, opt-in float32) and
  float32-vs-float64 parity on the paper's worked example,
* width bounded by numerical rank instead of the ``2^k`` doubling
  schedule on the bench graphs,
* recompressed-vs-exact error staying under the Theorem 4.2 bound,
* dtype + truncation metadata round-tripping through serialization and
  ``GSimIndex`` (with the v2 float64 compatibility path),
* memory-ledger charging and metrics for recompression steps.
"""

import numpy as np
import pytest

from repro.core import LowRankFactors, TruncationInfo, error_bound
from repro.core.gsim_plus import DEFAULT_RECOMPRESS_TOL, GSimPlus, gsim_plus
from repro.core.serialization import load_factors, save_factors
from repro.graphs import load_dataset_pair
from repro.retrieval import GSimIndex
from repro.runtime import ExecutionContext, Metrics

pytestmark = pytest.mark.recompress

# The paper's Example 3.2 factor rows (see test_paper_example.py).
U2_QA = np.array(
    [
        [7.0, 8.0, 2.0, 1.0],
        [10.0, 15.0, 11.0, 13.0],
        [10.0, 11.0, 14.0, 14.0],
        [10.0, 13.0, 10.0, 13.0],
    ]
)
V2_QB = np.array(
    [
        [10.0, 11.0, 9.0, 10.0],
        [10.0, 9.0, 11.0, 10.0],
        [10.0, 10.0, 10.0, 10.0],
    ]
)


def _dense(factors: LowRankFactors) -> np.ndarray:
    return factors.scale * (
        np.asarray(factors.u, dtype=np.float64)
        @ np.asarray(factors.v, dtype=np.float64).T
    )


# ----------------------------------------------------------------------
# The representation: dtype policy, accessors, truncation metadata
# ----------------------------------------------------------------------
class TestPrecisionPolicy:
    def test_default_promotes_to_float64(self):
        factors = LowRankFactors([[1, 2]], [[3, 4]])
        assert factors.dtype == np.float64
        assert factors.precision == "float64"

    def test_matching_float32_is_preserved(self):
        u = np.ones((4, 2), dtype=np.float32)
        v = np.ones((3, 2), dtype=np.float32)
        factors = LowRankFactors(u, v)
        assert factors.dtype == np.float32
        assert factors.precision == "float32"

    def test_explicit_dtype_wins(self):
        factors = LowRankFactors(
            np.ones((4, 2)), np.ones((3, 2)), dtype=np.float32
        )
        assert factors.dtype == np.float32

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="float32 and float64"):
            LowRankFactors(np.ones((2, 1)), np.ones((2, 1)), dtype=np.float16)

    def test_astype_round_trip(self):
        factors = LowRankFactors(U2_QA, V2_QB, log_scale=0.5)
        as32 = factors.astype(np.float32)
        back = as32.astype(np.float64)
        assert as32.dtype == np.float32
        assert back.dtype == np.float64
        assert back.log_scale == factors.log_scale

    def test_nbytes_and_width(self):
        factors = LowRankFactors(U2_QA, V2_QB)
        assert factors.width == 4
        assert factors.nbytes == U2_QA.nbytes + V2_QB.nbytes
        assert factors.memory_bytes() == factors.nbytes
        assert factors.astype(np.float32).nbytes == factors.nbytes // 2

    def test_paper_example_float32_parity(self):
        exact = LowRankFactors(U2_QA, V2_QB)
        half = LowRankFactors(U2_QA, V2_QB, dtype=np.float32)
        block64 = exact.query_block([0, 1, 2, 3], [0, 1, 2])
        block32 = half.query_block([0, 1, 2, 3], [0, 1, 2])
        # The documented float32 contract: ~1e-7 relative error.
        np.testing.assert_allclose(block32, block64, rtol=1e-6)
        assert half.frobenius_norm() == pytest.approx(
            exact.frobenius_norm(), rel=1e-6
        )


class TestTruncationInfo:
    def test_dict_round_trip(self):
        info = TruncationInfo(
            retained_rank=7, discarded_rank=9,
            discarded_energy=1.5e-9, tolerance=1e-8,
        )
        assert TruncationInfo.from_dict(info.to_dict()) == info


# ----------------------------------------------------------------------
# The recompression step
# ----------------------------------------------------------------------
class TestRecompressed:
    def _rank3_factors(self, width=16, seed=0):
        rng = np.random.default_rng(seed)
        basis_u = rng.standard_normal((40, 3))
        basis_v = rng.standard_normal((30, 3))
        mix = rng.standard_normal((3, width))
        return LowRankFactors(basis_u @ mix, basis_v @ mix)

    def test_recovers_numerical_rank(self):
        factors = self._rank3_factors()
        compressed = factors.recompressed(1e-8)
        assert compressed.width == 3
        assert compressed.truncation.retained_rank == 3
        assert compressed.truncation.discarded_rank == 13
        np.testing.assert_allclose(
            _dense(compressed), _dense(factors), atol=1e-10
        )

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3, 1e-1])
    def test_relative_error_within_tolerance(self, tol, rng):
        u = rng.standard_normal((25, 12))
        v = rng.standard_normal((20, 12))
        factors = LowRankFactors(u, v)
        compressed = factors.recompressed(tol)
        z = _dense(factors)
        error = np.linalg.norm(z - _dense(compressed)) / np.linalg.norm(z)
        assert error <= tol * (1 + 1e-12)
        assert compressed.truncation.tolerance == tol
        assert compressed.truncation.discarded_energy <= tol * (1 + 1e-12)

    def test_max_rank_caps_width(self):
        factors = self._rank3_factors()
        assert factors.recompressed(1e-12, max_rank=2).width == 2

    def test_invalid_tolerance_rejected(self):
        factors = self._rank3_factors()
        for bad in (0.0, -1e-3, 1.0, 2.0):
            with pytest.raises(ValueError, match="tol"):
                factors.recompressed(bad)

    def test_float32_recompression_stays_float32(self):
        compressed = self._rank3_factors().astype(np.float32).recompressed(1e-5)
        assert compressed.dtype == np.float32
        assert compressed.width == 3


# ----------------------------------------------------------------------
# The solver: width bounding, accuracy, parity, metrics
# ----------------------------------------------------------------------
class TestSolverRecompression:
    def test_width_bounded_by_numerical_rank_on_bench_graphs(self):
        # Acceptance criterion: after >= 6 iterations at the default
        # tolerance, width stays strictly below the 2^k schedule.
        graph_a, graph_b = load_dataset_pair("HP", scale="tiny", seed=7)
        iterations = 6
        exact = gsim_plus(
            graph_a, graph_b, iterations=iterations, rank_cap="qr-compress"
        )
        compressed = gsim_plus(
            graph_a, graph_b, iterations=iterations, rank_cap="qr-compress",
            recompress_tol=DEFAULT_RECOMPRESS_TOL,
        )
        assert compressed.final_width < 2**iterations
        assert compressed.final_width < exact.final_width
        assert compressed.truncation is not None
        np.testing.assert_allclose(
            compressed.similarity, exact.similarity, atol=1e-8
        )

    @pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-6])
    def test_error_within_theorem_bound(self, tol, random_pair):
        graph_a, graph_b = random_pair
        iterations = 6  # Theorem 4.2 needs an even count
        bound = error_bound(graph_a, graph_b, iterations)
        exact = gsim_plus(graph_a, graph_b, iterations=iterations)
        compressed = gsim_plus(
            graph_a, graph_b, iterations=iterations, recompress_tol=tol
        )
        max_error = float(
            np.abs(compressed.similarity - exact.similarity).max()
        )
        assert max_error <= max(bound, iterations * tol)

    def test_default_path_identical_with_recompression_off(self, random_pair):
        graph_a, graph_b = random_pair
        plain = gsim_plus(graph_a, graph_b, iterations=5)
        explicit = gsim_plus(
            graph_a, graph_b, iterations=5,
            recompress_tol=None, precision="float64",
        )
        assert np.array_equal(plain.similarity, explicit.similarity)
        assert plain.truncation is None
        assert plain.precision == "float64"

    def test_float32_solver_parity(self, random_pair):
        graph_a, graph_b = random_pair
        exact = gsim_plus(graph_a, graph_b, iterations=5)
        half = gsim_plus(graph_a, graph_b, iterations=5, precision="float32")
        assert half.precision == "float32"
        assert half.similarity.dtype == np.float32
        np.testing.assert_allclose(
            half.similarity.astype(np.float64), exact.similarity, atol=1e-5
        )

    def test_invalid_precision_rejected(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="precision"):
            GSimPlus(graph_a, graph_b, precision="float16")

    def test_recompression_metrics_and_ledger(self, random_pair):
        from repro.runtime import MemoryBudget

        graph_a, graph_b = random_pair
        metrics = Metrics()
        context = ExecutionContext(
            metrics=metrics, memory=MemoryBudget().ledger()
        )
        gsim_plus(
            graph_a, graph_b, iterations=5,
            recompress_tol=1e-8, context=context,
        )
        tree = metrics.snapshot()
        assert tree["counters"]["gsim_plus.recompressions"] >= 1
        assert context.memory.peak_bytes > 0


# ----------------------------------------------------------------------
# Artifacts: serialization and the index
# ----------------------------------------------------------------------
class TestArtifactRoundTrips:
    def _compressed_factors(self, random_pair, precision="float32"):
        graph_a, graph_b = random_pair
        solver = GSimPlus(
            graph_a, graph_b, rank_cap="qr-compress",
            recompress_tol=1e-6, precision=precision,
        )
        state = None
        for state in solver.iterate(5):
            pass
        return state.factors

    def test_save_load_preserves_dtype_and_truncation(
        self, tmp_path, random_pair
    ):
        factors = self._compressed_factors(random_pair)
        path = tmp_path / "factors.npz"
        save_factors(factors, path)
        loaded = load_factors(path)
        assert loaded.dtype == np.float32
        assert loaded.truncation == factors.truncation
        np.testing.assert_array_equal(loaded.u, factors.u)
        np.testing.assert_array_equal(loaded.v, factors.v)
        # float32 on disk must not balloon back to float64 sizes.
        assert loaded.nbytes == factors.nbytes

    def test_v2_artifact_still_loads_as_float64(self, tmp_path, random_pair):
        from repro.runtime.resilience import content_checksum

        factors = self._compressed_factors(random_pair, precision="float64")
        content = {
            "u": factors.u,
            "v": factors.v,
            "log_scale": np.float64(factors.log_scale),
            "format_version": np.int64(2),
        }
        digest = content_checksum(content)
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **content, checksum=np.str_(digest))
        loaded = load_factors(path)
        assert loaded.dtype == np.float64
        assert loaded.truncation is None
        np.testing.assert_array_equal(loaded.u, factors.u)

    def test_index_round_trip_preserves_precision(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        index = GSimIndex.build(
            graph_a, graph_b, iterations=5,
            recompress_tol=1e-6, precision="float32",
        )
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GSimIndex.load(path)
        assert loaded.metadata.precision == "float32"
        assert loaded.metadata.recompress_tol == 1e-6
        assert loaded.metadata.truncation is not None
        assert loaded.memory_bytes() == index.memory_bytes()
        queries = ([0, 1, 2], [0, 1])
        np.testing.assert_array_equal(
            loaded.query(*queries), index.query(*queries)
        )

    def test_index_build_records_default_policy(self, random_pair):
        graph_a, graph_b = random_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=4)
        assert index.metadata.precision == "float64"
        assert index.metadata.recompress_tol is None
        assert index.metadata.truncation is None
