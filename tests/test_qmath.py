"""Linear-algebra kernel checks against independent oracles.

The eigensolver is cross-checked by rebuilding the input from its own output
and by recovering a planted spectrum and eigenbasis; the PSD projection
against hand-executed truncation steps and, bit for bit, against the
one-matrix truncation loop it replaced; stacks against per-matrix calls; the
tensor-power map against the dense Kronecker power of its one-qubit map.
Hypothesis property tests cover the eigendecomposition contract and the PSD
projection's invariants on arbitrary Hermitian input, and the eigensolver's
LAPACK-free path for diagonal matrices against ``numpy.linalg.eigh``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quassert.qmath import (
    DegenerateInputError,
    DimensionError,
    NumericError,
    diagonal_words,
    hermitian_eig,
    kron,
    kron_map,
    psd_project,
)

from conftest import (
    count_lapack_solves,
    random_density,
    random_hermitian,
    reference_psd_project,
)


@st.composite
def hermitian_matrices(draw, max_dim: int = 8) -> np.ndarray:
    dim = draw(st.integers(1, max_dim))
    entries = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    parts = draw(hnp.arrays(np.float64, (2, dim, dim), elements=entries))
    g = parts[0] + 1j * parts[1]
    return (g + g.conj().T) / 2.0


def _tol(a: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.abs(a).max()) * a.shape[0])


class TestHermitianEig:
    def test_diagonal_input(self):
        values, vectors = hermitian_eig(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_pauli_x_spectrum(self):
        values, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_oracle_8x8(self):
        rng = np.random.default_rng(101)
        a = random_hermitian(rng, 8)
        values, vectors = hermitian_eig(a)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - a)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 12, 16])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(3):
            a = random_hermitian(rng, dim)
            values, vectors = hermitian_eig(a)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - a)) <= 1e-10
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
            assert np.all(np.diff(values) >= -1e-12)

    def test_recovers_planted_spectrum(self):
        # A = V diag(lam) V^dagger with a random unitary V (QR of a complex
        # Gaussian) and a chosen, non-degenerate spectrum.
        rng = np.random.default_rng(7)
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        lam = np.array([-2.5, -1.0, 0.0, 0.5, 1.75, 3.0])
        values, vectors = hermitian_eig((v * lam) @ v.conj().T)
        np.testing.assert_allclose(values, lam, atol=1e-10)
        # Each eigenvector is the planted column up to a phase.
        overlaps = np.abs(np.sum(v.conj() * vectors, axis=0))
        np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)

    def test_non_square_rejected(self):
        for shape in [(2, 3), (4, 2, 3), (3,), ()]:
            with pytest.raises(DimensionError, match="square"):
                hermitian_eig(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 2, 2), (3, 0, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(DimensionError, match="non-empty"):
            hermitian_eig(np.zeros(shape))

    def test_non_hermitian_rejected(self):
        with pytest.raises(DimensionError, match="Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stack_with_one_non_hermitian_matrix_rejected(self):
        stack = np.array([np.eye(2), [[0, 1], [0, 0]], np.eye(2)], dtype=complex)
        with pytest.raises(DimensionError, match="Hermitian"):
            hermitian_eig(stack)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64])
    def test_stack_matches_per_matrix_calls(self, dim):
        rng = np.random.default_rng(900 + dim)
        stack = np.array([random_hermitian(rng, dim) for _ in range(5)]).reshape(5, 1, dim, dim)
        values, vectors = hermitian_eig(stack)
        assert values.shape == (5, 1, dim) and vectors.shape == (5, 1, dim, dim)
        for b in range(5):
            one_values, one_vectors = hermitian_eig(stack[b, 0])
            assert np.array_equal(values[b, 0], one_values)
            assert np.array_equal(vectors[b, 0], one_vectors)

    def test_slightly_asymmetric_input_symmetrized(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        a[0, 1] = 1e-10  # inside the 1e-9 window
        values, _ = hermitian_eig(a)
        np.testing.assert_allclose(values, [1.0, 2.0], atol=1e-9)

    def test_a_given_deviation_is_not_measured_again(self, monkeypatch):
        rng = np.random.default_rng(130)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        hermitian = g + g.conj().T
        slanted = hermitian.copy()
        slanted[0, 1] += 1e-12
        cases = [hermitian, slanted, np.diag([2.0, 0.5, 1.0]).astype(complex)]
        expected = [hermitian_eig(a) for a in cases]
        deviations = [np.max(np.abs(a - a.conj().T)) for a in cases]
        measured = []
        absolute = np.abs
        monkeypatch.setattr(np, "abs", lambda a: measured.append(1) or absolute(a))
        for a, dev, (values, vectors) in zip(cases, deviations, expected):
            got_values, got_vectors = hermitian_eig(a, dev)
            assert np.array_equal(got_values, values) and np.array_equal(got_vectors, vectors)
        assert not measured

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), ([0, 1], [1, 0])],
                             ids=["diagonal", "off_diagonal", "symmetric_pair"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_non_finite_rejected_before_the_hermiticity_check(self, bad, where):
        a = np.array([[1.0, 5.0], [0.0, 1.0]], dtype=complex)  # far from Hermitian
        a[where] = bad
        for matrix in (a, np.array([np.eye(2), a])):
            with pytest.raises(NumericError, match="finite"):
                hermitian_eig(matrix)
        with pytest.raises(NumericError, match="finite"):
            psd_project(a, 1.0)


class TestDiagonalShortcut:
    """A single exactly Hermitian matrix with no nonzero off-diagonal entry is
    solved without LAPACK."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_eigh(self, data):
        dim = data.draw(st.integers(2, 128))
        entries = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.25]),  # ties and signed zeros
            st.floats(-10, 10, allow_nan=False, allow_subnormal=False),
        )
        diagonal = data.draw(hnp.arrays(np.float64, dim, elements=entries))
        a = np.diag(diagonal).astype(complex)
        reference, _ = np.linalg.eigh(a)
        values, v = hermitian_eig(a)
        # Bit for bit, but for the sign of a zero (LAPACK's sort does not keep
        # the order of equal values, and -0.0 == 0.0), unless LAPACK rescales
        # the matrix, as it does when every entry is below about 1e-146, and
        # rounds its eigenvalues by one ulp; the sorted diagonal is exact.
        tiny = 0.0 < np.abs(diagonal).max() < 1e-140
        np.testing.assert_array_max_ulp(values, reference, maxulp=1 if tiny else 0)
        perm = np.argmax(np.abs(v), axis=0)
        assert np.array_equal(np.sort(perm), np.arange(dim))
        assert np.array_equal(v, np.eye(dim)[:, perm])
        assert np.array_equal((v * values) @ v.conj().T, a)

    def test_diagonal_input_needs_no_lapack_solve(self, monkeypatch):
        solved = count_lapack_solves(monkeypatch)
        values, vectors = hermitian_eig(np.diag([0.5, 0.0, 0.5, -0.0]))
        assert solved == []
        assert np.array_equal(values, [0.0, 0.0, 0.5, 0.5])
        assert np.array_equal(vectors, np.eye(4)[:, [1, 3, 0, 2]])

    def test_signed_zero_off_the_diagonal_needs_no_lapack_solve(self, monkeypatch):
        # A -0.0 entry is a nonzero word: the integer scan says no, the count
        # of nonzero entries still finds the matrix diagonal.
        a = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
        a[0, 1] = a[1, 0] = -0.0
        assert not diagonal_words(a) and diagonal_words(np.diag(a.diagonal()))
        solved = count_lapack_solves(monkeypatch)
        values, vectors = hermitian_eig(a)
        assert solved == []
        assert np.array_equal(values, [0.0, 0.0, 0.5, 0.5])
        assert np.array_equal(vectors, np.eye(4)[:, [1, 3, 0, 2]])

    def test_diagonal_words_reads_any_layout(self):
        a = np.diag([0.25, 0.75, 0.0]).astype(complex)
        wide = np.ones((6, 9), dtype=complex)
        wide[::2, ::3] = a
        for layout in (a, np.asfortranarray(a), wide[::2, ::3]):
            assert diagonal_words(layout)
        wide[2, 0] = 1e-300j
        assert not diagonal_words(wide[::2, ::3])

    def test_stack_of_diagonals_goes_to_eigh(self, monkeypatch):
        stack = np.array([np.diag(d) for d in ([3.0, 1.0, 2.0], [0.0, 0.0, 1.0])], dtype=complex)
        reference = np.linalg.eigh(stack)
        solved = count_lapack_solves(monkeypatch)
        values, vectors = hermitian_eig(stack)
        assert solved == [(2, 3, 3)]
        assert np.array_equal(values, reference[0]) and np.array_equal(vectors, reference[1])

    @pytest.mark.parametrize("where", [(0, 1), ([0, 1], [1, 0])], ids=["one_entry", "symmetric_pair"])
    def test_tiny_off_diagonal_entry_goes_to_eigh(self, monkeypatch, where):
        a = np.diag([2.0, 1.0]).astype(complex)
        a[where] = 1e-300
        solved = count_lapack_solves(monkeypatch)
        values, _ = hermitian_eig(a)
        assert solved == [(2, 2)]
        assert np.array_equal(values, [1.0, 2.0])


class TestKron:
    def test_identity_product(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_x_tensor_identity_permutation(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1
        np.testing.assert_allclose(kron(x, np.eye(2)), expected)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b, c, d = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
            )
            np.testing.assert_allclose(
                kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
            )

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((1, 1), (2, 2)), ((2, 2), (1, 1)), ((1, 1), (1, 1)), ((2, 3), (4, 1)),
         ((1, 4), (3, 2)), ((4, 4), (2, 2))],
    )
    def test_identical_to_numpy_kron(self, a_shape, b_shape):
        rng = np.random.default_rng(1500)
        a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
        b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
        for left, right in ((a, b), (a.real, b), (a, np.eye(*b_shape))):
            expected = np.kron(left.astype(np.complex128), right.astype(np.complex128))
            out = kron(left, right)
            assert out.dtype == np.complex128 and out.shape == expected.shape
            assert np.array_equal(out, expected)


class TestKronMap:
    """kron_map against the dense matrix of n Kronecker copies of the map."""

    @staticmethod
    def dense(m, x, n):
        power = m
        for _ in range(n - 1):
            power = np.kron(m, power)  # the left factor is qubit n-1, as in kron_map
        outs = power.shape[:power.ndim - (x.ndim - 1)]
        matrix = power.reshape(math.prod(outs), -1)
        return (x.reshape(len(x), -1) @ matrix.T).reshape((len(x),) + outs)

    # (outputs, inputs) of every one-qubit map the package applies: the
    # Pauli-setting POVM, the inverse shadow channel, the preparation dual, and
    # process tomography's forward map [s, l, o, i, r, j, c] and inverse map
    # [i, r, j, c, s, l, o], in the Choi matrix's own four index groups.
    MAPS = {"povm": ((3, 2), (2, 2)), "shadow": ((2, 2), (3, 2)), "dual": ((2, 2), (4, 1)),
            "forward": ((4, 3, 2), (2, 2, 2, 2)), "inverse": ((2, 2, 2, 2), (4, 3, 2))}

    # The dense power of a seven-axis map has 24^n x 16^n entries: n <= 2.
    @pytest.mark.parametrize("name, n", [(name, n) for name, (outs, ins) in MAPS.items()
                                         for n in range(1, 5 if len(outs + ins) == 4 else 3)])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_dense_kronecker_power(self, name, n, batch):
        outs, ins = self.MAPS[name]
        rng = np.random.default_rng(1600 + n)
        m = rng.normal(size=outs + ins) + 1j * rng.normal(size=outs + ins)
        x = rng.normal(size=(batch,) + tuple(a**n for a in ins))
        out = kron_map(m, x, n)
        assert out.shape == (batch,) + tuple(b**n for b in outs)
        np.testing.assert_allclose(out, self.dense(m, x, n), rtol=1e-12, atol=1e-12)

    def test_identity_map_returns_input(self):
        identity = np.eye(4).reshape(2, 2, 2, 2)
        x = np.random.default_rng(1610).normal(size=(3, 8, 8))
        assert np.array_equal(kron_map(identity, x, 3), x)


class TestPsdProject:
    def test_valid_density_matrix_unchanged(self):
        rng = np.random.default_rng(31)
        a = random_density(rng, 2)
        np.testing.assert_allclose(psd_project(a, 1.0)[0], a, atol=1e-12)

    def test_single_truncation_step(self):
        # Hand oracle: zero the -0.1 eigenvalue, fold its deficit into the
        # remaining one: 1.1 - 0.1 = 1.0; trace already on target.
        np.testing.assert_allclose(
            psd_project(np.diag([1.1, -0.1]), 1.0)[0], np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_pure_rescale(self):
        np.testing.assert_allclose(
            psd_project(np.diag([0.6, 0.6]), 1.0)[0], np.diag([0.5, 0.5]), atol=1e-12
        )

    def test_truncation_with_redistribution_hand_case(self):
        # Eigenvalues [0.9, 0.4, -0.3]: zero -0.3, spread -0.3 over the two
        # survivors -> [0.75, 0.25, 0]; trace 1 needs no rescale.
        np.testing.assert_allclose(
            psd_project(np.diag([0.9, 0.4, -0.3]), 1.0)[0],
            np.diag([0.75, 0.25, 0.0]),
            atol=1e-12,
        )

    def test_trace_hits_target(self):
        # Noisy-estimate shape: valid state plus a small Hermitian perturbation.
        rng = np.random.default_rng(44)
        a = random_density(rng, 3) + 0.05 * random_hermitian(rng, 8)
        for target in (1.0, 4.0):
            out = psd_project(a, target)[0]
            assert abs(np.trace(out).real - target) <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(45)
        a = random_density(rng, 2) + 0.1 * random_hermitian(rng, 4)
        once = psd_project(a, 1.0)[0]
        twice = psd_project(once, 1.0)[0]
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_all_non_positive_rejected(self):
        with pytest.raises(DegenerateInputError):
            psd_project(np.diag([-1.0, -2.0]), 1.0)
        with pytest.raises(DegenerateInputError):
            psd_project(np.zeros((2, 2)), 1.0)

    def test_bad_target_rejected(self):
        with pytest.raises(DegenerateInputError):
            psd_project(np.eye(2), 0.0)

    @staticmethod
    def planted(rng, d, n_negative):
        """V diag(lam) V^dagger with ``n_negative`` eigenvalues in [-1, -0.5] and
        the rest in [d, 2d]: each positive one outweighs the whole deficit, so
        the truncation cuts exactly the ``n_negative`` negative ones."""
        lam = np.concatenate([rng.uniform(-1.0, -0.5, n_negative),
                              rng.uniform(d, 2 * d, d - n_negative)])
        v, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return (v * lam) @ v.conj().T

    @pytest.mark.parametrize("d", range(2, 65))
    def test_stack_matches_truncation_loop(self, d):
        rng = np.random.default_rng(1200 + d)
        # Truncating 0, 1 and many eigenvalues, plus a generic Hermitian matrix
        # with positive trace.
        cuts = (0, 1, min(max(2, d // 2), d - 1))
        stack = np.array(
            [self.planted(rng, d, k) for k in cuts]
            + [random_hermitian(rng, d) + 2.0 * np.sqrt(d) * np.eye(d)]
        )
        for target in (1.0, float(d)):
            projected, (values, vectors) = psd_project(stack, target)
            assert projected.shape == vectors.shape == stack.shape
            # The spectrum is ascending, exactly zero where truncated, and
            # rebuilds the projection bit for bit in descending order.
            assert np.all(np.diff(values, axis=-1) >= 0.0)
            for b, k in enumerate(cuts):
                assert not values[b, :k].any() and (values[b, k:] > 0.0).all(), b
            down = vectors[..., ::-1]
            rebuilt = (down * values[..., None, ::-1]) @ down.conj().swapaxes(-1, -2)
            assert np.array_equal((rebuilt + rebuilt.conj().swapaxes(-1, -2)) / 2.0, projected)
            for b, a in enumerate(stack):
                expected = reference_psd_project(a, target)
                assert np.array_equal(projected[b], expected), b
                assert np.array_equal(psd_project(a, target)[0], expected), b

    def test_leading_axes_preserved(self):
        rng = np.random.default_rng(1300)
        stack = np.array([random_density(rng, 2) + 0.1 * random_hermitian(rng, 4)
                          for _ in range(6)]).reshape(2, 3, 4, 4)
        projected = psd_project(stack, 1.0)[0]
        for index in np.ndindex(2, 3):
            assert np.array_equal(projected[index], reference_psd_project(stack[index], 1.0))

    @pytest.mark.parametrize("bad", [np.diag([-1.0, -2.0]), np.zeros((2, 2))],
                             ids=["negative", "zero"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_stack_with_one_degenerate_matrix_rejected(self, bad, position):
        stack = [np.eye(2), np.diag([1.1, -0.1])]
        stack.insert(position, bad)
        with pytest.raises(DegenerateInputError):
            psd_project(np.array(stack, dtype=complex), 1.0)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(hermitian_matrices())
    def test_hermitian_eig_contract(self, a):
        values, v = hermitian_eig(a)
        assert values.dtype == np.float64
        assert np.all(np.diff(values) >= 0.0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(a.shape[0]), rtol=0, atol=1e-10)
        np.testing.assert_allclose((v * values) @ v.conj().T, a, rtol=0, atol=_tol(a))

    @settings(max_examples=150, deadline=None)
    @given(hermitian_matrices(), st.floats(0.1, 10.0))
    def test_psd_project_is_psd_with_target_trace(self, a, target):
        assume(np.trace(a).real > 1e-3 * (1.0 + float(np.abs(a).max())))
        out = psd_project(a, target)[0]
        np.testing.assert_allclose(out, out.conj().T, rtol=0, atol=1e-12 * target)
        assert abs(np.trace(out).real - target) <= 1e-9 * target
        assert np.linalg.eigvalsh(out).min() >= -1e-9 * target
