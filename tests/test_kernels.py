import numpy as np
import pytest

from mfdgp.errors import DomainError
from mfdgp.kernels import KernelSpec, _row_norms, kernel_matrix


def se(ls=(1.0,), sv=1.0):
    return KernelSpec(kind="squared-exponential", lengthscales=np.asarray(ls), signal_variance=sv)


def test_zero_distance_returns_signal_variance():
    assert kernel_matrix(se(), [0.3], [0.3])[0, 0] == 1.0
    assert kernel_matrix(se(sv=2.5), [0.7], [0.7])[0, 0] == 2.5


def test_se_unit_distance_closed_form():
    # exp(-r^2 / (2 l^2)) at r = 1, l = 1
    assert kernel_matrix(se(), [0.0], [1.0])[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_symmetry_in_arguments():
    spec = se(ls=(0.4, 1.7), sv=1.3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=2 * 2).reshape(2, 2)
        assert kernel_matrix(spec, a, b)[0, 0] == pytest.approx(
            kernel_matrix(spec, b, a)[0, 0], rel=1e-14
        )


def test_anisotropic_lengthscales_scale_each_dimension():
    spec = se(ls=(1.0, 10.0))
    # a unit step along the long-lengthscale axis decays far less
    k_short = kernel_matrix(spec, [0.0, 0.0], [1.0, 0.0])[0, 0]
    k_long = kernel_matrix(spec, [0.0, 0.0], [0.0, 1.0])[0, 0]
    assert k_long > k_short


def test_kernel_matrix_matches_pairwise_eval():
    # oracle: the squared-exponential closed form on each pair's scaled distance
    spec = se(ls=(0.8, 2.0), sv=1.6)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 2))
    B = rng.normal(size=(4, 2))
    K = kernel_matrix(spec, A, B)
    for i in range(5):
        for j in range(4):
            r = np.linalg.norm((A[i] - B[j]) / spec.lengthscales)
            expected = 1.6 * np.exp(-0.5 * r**2)
            assert K[i, j] == pytest.approx(expected, rel=1e-12)


def test_dimension_mismatch_is_shape_error():
    with pytest.raises(DomainError, match="input dimension 1 does not match 2 lengthscales"):
        kernel_matrix(se(ls=(1.0, 1.0)), [0.0], [1.0])
    with pytest.raises(DomainError, match="input dimension 2 does not match 1 lengthscales"):
        kernel_matrix(se(), np.zeros((3, 2)))


def test_invalid_hyperparameters_rejected():
    with pytest.raises(DomainError):
        KernelSpec(kind="squared-exponential", lengthscales=[0.0], signal_variance=1.0)
    with pytest.raises(DomainError):
        KernelSpec(kind="squared-exponential", lengthscales=[1.0], signal_variance=-1.0)
    # squared-exponential is the one kernel family
    for kind in ("cubic", "matern-5/2"):
        with pytest.raises(DomainError, match="unknown kernel kind"):
            KernelSpec(kind=kind, lengthscales=[1.0], signal_variance=1.0)


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        kernel_matrix(se(), [np.nan], [0.0])


def test_three_dimensional_inputs_are_shape_errors():
    spec = KernelSpec("squared-exponential", [0.3, 0.2], 1.0)
    with pytest.raises(DomainError, match=r"must be an \(n, d\) matrix, got 3 dimensions"):
        kernel_matrix(spec, np.zeros((1, 2, 1)))
    with pytest.raises(DomainError, match=r"must be an \(n, d\) matrix, got 3 dimensions"):
        kernel_matrix(spec, np.zeros((1, 2)), np.zeros((1, 1, 2)))


# ---------------------------------------------------------------------------
# Bit-for-bit parity with the plain expressions: converting every input with
# np.asarray/np.atleast_2d, both row norms summed separately and the kernel
# finished out of place must give the very same matrix
# ---------------------------------------------------------------------------


def reference_kernel_matrix(spec, a, b=None):
    xa = np.atleast_2d(np.asarray(a, dtype=np.float64)) / spec.lengthscales
    xb = xa if b is None else np.atleast_2d(np.asarray(b, dtype=np.float64)) / spec.lengthscales
    sq = np.sum(xa**2, axis=1)[:, None] + np.sum(xb**2, axis=1)[None, :] - 2.0 * xa @ xb.T
    sq = np.maximum(sq, 0.0)
    return spec.signal_variance * np.exp(-0.5 * sq)


PARITY_INPUTS = {
    "one-row": lambda rng: rng.uniform(size=(1, 3)),
    "flat-sequence": lambda rng: list(rng.uniform(size=3)),
    "identical-rows": lambda rng: np.tile(rng.uniform(size=3), (4, 1)),
    "six-rows": lambda rng: rng.uniform(size=(6, 3)),
    "sixteen-rows": lambda rng: rng.normal(size=(16, 3)),
}


@pytest.mark.parametrize("kind", ["squared-exponential"])
@pytest.mark.parametrize("with_b", [False, True], ids=["b-none", "b-given"])
@pytest.mark.parametrize("inputs", sorted(PARITY_INPUTS))
def test_kernel_matrix_matches_plain_expressions(kind, with_b, inputs):
    rng = np.random.default_rng(len(inputs))
    spec = KernelSpec(kind, lengthscales=rng.uniform(0.1, 2.0, size=3), signal_variance=1.7)
    a = PARITY_INPUTS[inputs](rng)
    b = rng.uniform(size=(5, 3)) if with_b else None
    K = kernel_matrix(spec, a, b)
    assert np.array_equal(K, reference_kernel_matrix(spec, a, b))
    if with_b:
        assert np.array_equal(kernel_matrix(spec, b, a), reference_kernel_matrix(spec, b, a))


# ---------------------------------------------------------------------------
# The query side sums its squared norms column by column: the bytes of the
# one reduction, at every width, overflowed rows included
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 11))
def test_row_norms_are_the_bytes_of_the_reduction(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4000, d)) * 10.0 ** rng.uniform(-8, 8, size=(4000, d))
    x[::97, rng.integers(d)] = 1e200  # its square overflows to inf
    x[::89] = -3e160
    with np.errstate(over="ignore"):
        expected = (x**2).sum(axis=-1)
        got = _row_norms(x)
        # gp.predict sums the solve's Fortran-order (n, m) columns through the transpose
        v = np.asfortranarray(x[:50].T)
        from_columns = _row_norms(v.T)
        assert from_columns.tobytes() == (v**2).sum(axis=0).tobytes()
    assert np.isinf(expected).sum() >= 4000 // 97
    assert got.tobytes() == expected.tobytes()
