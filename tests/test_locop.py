import math
import tracemalloc

import numpy as np
import pytest

from tfsamp import (
    NumericalError,
    ParameterError,
    Signal,
    TFPoint,
    Window,
    build_localization_operator,
    choose_N,
    concentration,
    concentration_from_eigs,
    disk_region,
    eigendecompose,
    eigenvalue_count_estimate,
    empirical_min_eigenvalue,
    make_gaussian_window,
    mask_region,
    monte_carlo_failure_frequency,
)
from tfsamp import locop
from tfsamp.locop import (
    EigenSystem,
    LocalizationOperator,
    _fix_phases,
    _mirror,
    _symmetry_blocks,
)

from oracles import (
    adjoint_direct,
    build_T_matrix,
    count_interval_direct,
    loc_operator_direct,
    project_VN,
    stft_direct,
    tf_shift_direct,
)


def random_signal(L, seed):
    rng = np.random.default_rng(seed)
    return Signal(rng.standard_normal(L) + 1j * rng.standard_normal(L))


# ---------------------------------------------------------------- operator


def test_full_grid_operator_is_identity():
    L = 32
    H = build_localization_operator(mask_region(np.ones((L, L), bool)), make_gaussian_window(L))
    assert np.max(np.abs(H.hermitian() - np.eye(L))) < 1e-10


@pytest.mark.parametrize("L,radius", [(16, 4), (32, 8), (64, 16)])
def test_trace_equals_region_measure(L, radius):
    reg = disk_region(L, TFPoint(L // 2, L // 2), radius)
    H = build_localization_operator(reg, make_gaussian_window(L))
    tr = float(np.real(np.trace(H.hermitian())))
    assert abs(tr - reg.measure) <= 1e-8 * reg.measure


@pytest.mark.parametrize("shift", [(0, 0), (5, 3), (-9, 14), (20, -20), (31, 31)])
@pytest.mark.parametrize("kind", ["disk", "random"])
def test_spectrum_covariant_under_cyclic_mask_shift(kind, shift):
    # H_{Omega+z} = pi(z) H_Omega pi(z)^*: same spectrum, same trace |Omega|,
    # and pi(z) f is as concentrated on Omega+z as f is on Omega
    L = 32
    if kind == "disk":
        base = disk_region(L, TFPoint(10, 22), 6)
    else:
        base = mask_region(np.random.default_rng(7).random((L, L)) < 0.2)
    moved = mask_region(np.roll(base.mask, shift, axis=(0, 1)))
    phi = make_gaussian_window(L)
    H0 = build_localization_operator(base, phi).hermitian()
    H1 = build_localization_operator(moved, phi).hermitian()
    assert np.max(np.abs(np.linalg.eigvalsh(H1) - np.linalg.eigvalsh(H0))) <= 1e-12
    assert abs(float(np.real(np.trace(H1))) - moved.measure) <= 1e-12 * L
    assert moved.measure == base.measure
    f = random_signal(L, 3)
    z = TFPoint(shift[0] % L, shift[1] % L)
    c0 = concentration(f, base, phi)
    c1 = concentration(Signal(tf_shift_direct(f.values, z.m, z.n)), moved, phi)
    assert abs(c1.epsilon - c0.epsilon) <= 1e-12


def test_operator_is_masked_analysis_synthesis():
    # H f must equal adjoint(mask * stft(f)) entry for entry
    L = 16
    reg = disk_region(L, TFPoint(8, 8), 4)
    phi = make_gaussian_window(L)
    H = build_localization_operator(reg, phi)
    f = random_signal(L, 0)
    V = stft_direct(f.values, phi.values)
    V[~reg.mask] = 0
    want = adjoint_direct(V, phi.values)
    got = H.hermitian() @ f.values
    assert np.max(np.abs(got - want)) < 1e-12


def test_operator_matches_rank_one_sum():
    L = 16
    reg = disk_region(L, TFPoint(8, 8), 4)
    phi = make_gaussian_window(L)
    H = build_localization_operator(reg, phi)
    ref = loc_operator_direct(reg.mask, phi.values)
    assert np.max(np.abs(H.hermitian() - ref)) < 1e-12


def test_operator_hermitian_psd():
    L = 32
    reg = disk_region(L, TFPoint(16, 16), 8)
    op = build_localization_operator(reg, make_gaussian_window(L))
    assert np.array_equal(op.matrix, op.matrix.conj().T)  # the mirror fills the matrix
    w = np.linalg.eigvalsh(op.hermitian())
    assert w.min() >= -1e-12
    assert w.max() <= 1 + 1e-12


def test_empty_region_gives_zero_operator():
    L = 16
    reg = mask_region(np.zeros((L, L), dtype=bool))
    H = build_localization_operator(reg, make_gaussian_window(L))
    assert np.max(np.abs(H.hermitian())) < 1e-14


def test_operator_dimension_mismatch():
    from tfsamp import DimensionError

    with pytest.raises(DimensionError):
        build_localization_operator(mask_region(np.ones((16, 16), bool)), make_gaussian_window(32))


# ---------------------------------------------------------------- eigensystem


def test_eigendecompose_identity_operator():
    L = 16
    H = build_localization_operator(mask_region(np.ones((L, L), bool)), make_gaussian_window(L))
    eigs = eigendecompose(H, 0.5)
    assert np.max(np.abs(eigs.eigenvalues - 1.0)) < 1e-10
    assert eigs.N == L


def test_eigensystem_properties(sys32):
    H, eigs = sys32.H, sys32.eigs
    w, v = eigs.eigenvalues, eigs.columns(slice(None))
    # sorted non-increasing, in [0, 1]
    assert np.all(np.diff(w) <= 1e-14)
    assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10
    # orthonormal
    G = v.conj().T @ v
    assert np.max(np.abs(G - np.eye(eigs.L))) < 1e-10
    # every eigenpair satisfies its equation
    res = H.hermitian() @ v - v * w[None, :]
    assert np.max(np.linalg.norm(res, axis=0)) < 1e-8
    # operator rebuilds from its eigenpairs
    rebuilt = (v * w[None, :]) @ v.conj().T
    assert np.max(np.abs(rebuilt - H.hermitian())) < 1e-10


def test_eigensystem_carries_region_and_window(sys32):
    assert sys32.eigs.region is sys32.H.region
    assert sys32.eigs.window is sys32.H.window


def test_no_callable_takes_an_eigensystem_and_its_region_or_window():
    # an EigenSystem fixes its region and window; a second copy could only disagree
    import importlib
    import inspect
    import pkgutil

    import tfsamp

    checked = []
    for info in pkgutil.iter_modules(tfsamp.__path__):
        mod = importlib.import_module(f"tfsamp.{info.name}")
        for name, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            if any(p.name == "eigs" or "EigenSystem" in str(p.annotation) for p in params):
                checked.append(f"{info.name}.{name}")
                assert not {p.name for p in params} & {"window", "region"}, checked[-1]
    assert {"sampling.empirical_min_eigenvalue", "recon.reconstruct",
            "sampling.monte_carlo_failure_frequency", "witnesses.null_sample_witness"} <= set(checked)


def test_eigenvector_phase_convention(sys32):
    v = sys32.eigs.columns(slice(None))
    lead = np.abs(v).argmax(axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    assert np.max(np.abs(pivots.imag)) < 1e-12
    assert np.all(pivots.real > 0)


def test_eigendecompose_rejects_bad_params(sys16):
    H = sys16.H
    with pytest.raises(ParameterError):
        eigendecompose(H, gamma=0.0)
    with pytest.raises(ParameterError):
        eigendecompose(H, gamma=1.0)
    with pytest.raises(ParameterError):
        eigendecompose(H, residual_tol=0.0)


def test_eigendecompose_flags_bogus_matrix(sys16):
    from tfsamp.locop import LocalizationOperator

    rng = np.random.default_rng(0)
    M = rng.standard_normal((16, 16)) * 100  # not Hermitian
    bogus = LocalizationOperator(M, sys16.region, sys16.window)
    with pytest.raises(NumericalError):
        eigendecompose(bogus, 0.5, residual_tol=1e-12)


def test_choose_N_bracket(sys32):
    eigs = sys32.eigs
    N = eigs.N
    assert eigs.eigenvalues[N - 1] >= 0.5 >= eigs.eigenvalues[N]


def test_choose_N_edges(sys32):
    eigs = sys32.eigs
    a1 = eigs.eigenvalues[0]
    # cut above the top eigenvalue -> empty model space
    assert a1 < 0.9999999
    assert choose_N(eigs, 0.9999999) == 0
    with pytest.raises(ParameterError):
        choose_N(eigs, 0.0)
    with pytest.raises(ParameterError):
        choose_N(eigs, 1.0)


def test_numerical_rank():
    L = 16
    grid = mask_region(np.ones((L, L), bool))
    eye = eigendecompose(build_localization_operator(grid, make_gaussian_window(L)))
    assert eye.numerical_rank == L
    zero = eigendecompose(
        build_localization_operator(mask_region(np.zeros((L, L), bool)), make_gaussian_window(L))
    )
    assert zero.numerical_rank == 0
    assert zero.N == 0


# ------------------------------------------------------- symmetry blocks


def _rect(L, rows, cols):
    m = np.zeros((L, L), dtype=bool)
    m[rows, cols] = True
    return mask_region(m)


def _freq_only_mask(L):
    # rows symmetric about n0 = 10/2 in frequency, no symmetry in time
    m = np.random.default_rng(3).random((L, L)) < 0.15
    return mask_region(m | m[:, (10 - np.arange(L)) % L])


def _chirp_window(L):
    # complex and not even, as a `file` window may be
    t = np.arange(L)
    return Window.normalized(make_gaussian_window(L).values * np.exp(0.02j * t**2))


def _skewed_window(L):
    # real but not even: frequency symmetry survives, time symmetry does not
    return Window.normalized(make_gaussian_window(L).values.real * (1 + np.arange(L) / L))


GAUSS = make_gaussian_window

# name -> (region, window of L, block sizes, demodulated to a real matrix)
SYMMETRY_CASES = {
    "disk even L": (lambda: disk_region(48, TFPoint(24, 24), 10), GAUSS, [25, 23], True),
    "disk odd L": (lambda: disk_region(47, TFPoint(23, 23), 10), GAUSS, [24, 23], True),
    "disk off centre": (lambda: disk_region(48, TFPoint(7, 30), 10), GAUSS, [25, 23], True),
    "disk wraps edge": (lambda: disk_region(48, TFPoint(2, 45), 10), GAUSS, [25, 23], True),
    # centre (15, 7.5): half-integer n0 puts the fixed point t = 39 in the odd block
    "rect signed": (lambda: _rect(48, slice(10, 21), slice(5, 11)), GAUSS, [24, 24], True),
    # centre (14.5, 7.5): the one fixed point, t = 38, is odd
    "rect odd L": (lambda: _rect(47, slice(10, 20), slice(5, 11)), GAUSS, [23, 24], True),
    "frequency only": (lambda: _freq_only_mask(48), GAUSS, [48], True),
    "real skewed window": (
        lambda: disk_region(48, TFPoint(24, 24), 10), _skewed_window, [48], True
    ),
    "asymmetric mask": (
        lambda: mask_region(np.random.default_rng(7).random((48, 48)) < 0.2), GAUSS, [48], False
    ),
    "file window": (lambda: disk_region(48, TFPoint(24, 24), 10), _chirp_window, [48], False),
}


def _case_operator(name):
    make_region, make_window, _, _ = SYMMETRY_CASES[name]
    region = make_region()
    return build_localization_operator(region, make_window(region.L))


def _block_sizes(H):
    blocks = _symmetry_blocks(H)
    return [H.L if b is None else b[0].size for b in blocks], H.modulation is not None


def _assert_true_eigensystem(eigs, Hm, w_ref, v_ref):
    # eigenvalues, V_N projector and every pair's residual against the plain solve
    w, v, N = eigs.eigenvalues, eigs.columns(slice(None)), eigs.N
    assert np.max(np.abs(w - w_ref)) <= 1e-13
    P = v[:, :N] @ v[:, :N].conj().T
    P_ref = v_ref[:, :N] @ v_ref[:, :N].conj().T
    assert np.max(np.abs(P - P_ref)) <= 1e-10
    assert np.max(np.linalg.norm(Hm @ v - v * w[None, :], axis=0)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-10


def _one_cell_off(L):
    # a disk mirrored about n0 = 12 and m0 = 12, but for one cell
    m = disk_region(L, TFPoint(12, 12), 6).mask.copy()
    m[10, 19] = True
    return m


def _stripes(L):
    # period-8 columns: every row mirrors about c/2 for c = 3, 11, 19, ..., time about any c
    m = np.zeros((L, L), dtype=bool)
    m[:, np.arange(L) % 8 < 4] = True
    return m


MIRROR_MASKS = {
    **{name: lambda name=name: SYMMETRY_CASES[name][0]().mask for name in SYMMETRY_CASES},
    "empty": lambda: np.zeros((24, 24), dtype=bool),
    "full": lambda: np.ones((24, 24), dtype=bool),
    "one cell off": lambda: _one_cell_off(40),
    "stripes": lambda: _stripes(48),
}


@pytest.mark.parametrize("L", [1, 2, 7, 16])
def test_reflected_is_the_reflection_about_c_half(L):
    x = np.arange(L * L).reshape(L, L)
    t = np.arange(L)
    for c in range(L):
        refl = (c - t) % L
        assert np.array_equal(locop._reflected(t, c), refl)
        assert np.array_equal(locop._reflected(x, c, axis=1), x[:, refl])
        assert np.array_equal(locop._reflected(x, c, axis=(0, 1)), x[np.ix_(refl, refl)])


@pytest.mark.parametrize("name", list(MIRROR_MASKS))
def test_mirror_is_the_smallest_reflection_of_the_mask(name):
    # against every c in turn, on both axes
    mask = MIRROR_MASKS[name]()
    for m in (mask, mask.T):
        L = m.shape[1]
        mirrors = [c for c in range(L) if np.array_equal(m, m[:, (c - np.arange(L)) % L])]
        assert _mirror(m) == (mirrors[0] if mirrors else None)
    if name == "one cell off":
        assert _mirror(mask) is None and _mirror(mask.T) is None
    if name == "stripes":
        assert _mirror(mask) == 3


@pytest.mark.parametrize("name", list(SYMMETRY_CASES))
def test_block_eigensolve_matches_complex_eigh(name):
    H = _case_operator(name)
    sizes, real = _block_sizes(H)
    assert (sizes, real) == tuple(SYMMETRY_CASES[name][2:])
    eigs = eigendecompose(H, 0.5)
    Hm = H.hermitian()
    w_ref, v_ref = np.linalg.eigh(Hm)
    _assert_true_eigensystem(eigs, Hm, w_ref[::-1], v_ref[:, ::-1])
    assert eigs.N == int((w_ref >= 0.5).sum())
    # mirror entries tie in magnitude; the phase convention takes the first of them
    v = eigs.columns(slice(None))
    mag = np.abs(v)
    pivots = v[(mag >= (1 - 1e-8) * mag.max(axis=0)).argmax(axis=0), np.arange(H.L)]
    assert np.max(np.abs(pivots.imag)) < 1e-12 and np.all(pivots.real > 0)
    assert np.max(np.abs(_fix_phases(v) - v)) < 1e-12


@pytest.mark.parametrize("name", list(SYMMETRY_CASES))
def test_assembly_matches_rank_one_sum_in_every_symmetry_case(name):
    # "rect signed" and "rect odd L" mirror about n0 = 7.5 (odd c), the latter at odd L
    H = _case_operator(name)
    region, phi = H.region, H.window
    M, d = H.matrix, H.modulation
    Hm = H.hermitian()
    assert np.max(np.abs(Hm - loc_operator_direct(region.mask, phi.values))) < 1e-12
    assert (d is not None) == SYMMETRY_CASES[name][3]
    if d is None:
        assert M.dtype == np.complex128 and np.array_equal(M, M.conj().T)
    else:
        t = np.arange(region.L)
        c = next(c for c in t if np.array_equal(region.mask, region.mask[:, (c - t) % region.L]))
        assert M.dtype == np.float64 and np.array_equal(M, M.T)
        assert np.max(np.abs(d - np.exp(1j * np.pi * c * t / region.L))) < 1e-12
    # the trace and the count interval read off M are those of H
    plain = LocalizationOperator(Hm, region, phi)
    assert abs(np.trace(M).real - np.trace(Hm).real) <= 1e-12
    for delta in (0.3, 0.5):
        got = eigenvalue_count_estimate(H, delta)
        assert np.max(np.abs(np.subtract(got, eigenvalue_count_estimate(plain, delta)))) <= 1e-12


def test_assembly_and_concentration_hold_no_extra_L2_buffer():
    # measured at L = 256: the real M's assembly peaks at 22.2 L^2 bytes and the complex
    # M's at 40.4 L^2, where the (L, 2L + 1) skew buffer took them to 26.1 and 52.1;
    # concentration peaks at 13.2 L^2 (the |V| grid), where the complex grid took 50.0.
    # Each bound lies below the old peak
    L = 256
    region = disk_region(L, TFPoint(128, 128), 64)
    rng = np.random.default_rng(2)
    cplx = Window.normalized(rng.standard_normal(L) + 1j * rng.standard_normal(L))
    f = random_signal(L, 3)
    checks = [
        (lambda: build_localization_operator(region, make_gaussian_window(L)), 25),
        (lambda: build_localization_operator(region, cplx), 48),
        (lambda: concentration(f, region, cplx), 16),
    ]
    for call, bound in checks:
        call()  # lazy imports, FFT plans
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * L * L


# the four block structures of the block form: two real blocks, two modulated
# blocks at odd L, one real modulated block, one complex block
BLOCK_FORMS = ["disk even L", "disk odd L", "frequency only", "asymmetric mask"]


def _full_materialization(eigs):
    # the full eigenvector matrix, formed as eigendecompose once formed it: every
    # block expanded, the columns sorted, then the phases fixed
    x = np.hstack([locop._expand(y, blk, eigs.L) for y, blk in zip(eigs.vectors, eigs.blocks)])
    return _fix_phases(x[:, eigs.order], eigs.modulation)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("name", BLOCK_FORMS)
def test_columns_match_the_full_materialization_bit_for_bit(name):
    H = _case_operator(name)
    eigs = eigendecompose(H, 0.5)
    sizes, real = _block_sizes(H)
    assert [y.shape[1] for y in eigs.vectors] == sizes
    assert all(np.isrealobj(y) == real for y in eigs.vectors)
    V = _full_materialization(eigs)
    for k in range(H.L):
        assert np.array_equal(_bits(eigs.columns(k)), _bits(V[:, k]))
    for sel in (slice(None), slice(0, eigs.N), [H.L - 1, 0, 5], np.arange(3, H.L, 7)):
        assert np.array_equal(_bits(eigs.columns(sel)), _bits(V[:, sel]))
    if eigs.N:  # the asymmetric mask's alpha_1 is below 1/2
        assert np.array_equal(_bits(eigs.basis()), _bits(V[:, : eigs.N]))


@pytest.mark.parametrize("name", BLOCK_FORMS)
def test_coeffs_and_synthesis_match_the_dense_products(name):
    eigs = eigendecompose(_case_operator(name), 0.5)
    V = eigs.columns(slice(None))
    f = random_signal(eigs.L, 4)
    c = eigs.coeffs(f)
    assert np.max(np.abs(c - V.conj().T @ f.values)) <= 1e-13 * f.norm()
    rng = np.random.default_rng(8)
    for sel in (slice(None), slice(0, eigs.N), [eigs.L - 1, 0, 5], np.arange(3, eigs.L, 7)):
        k = np.arange(eigs.L)[sel]
        z = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
        assert np.max(np.abs(eigs.synthesize(sel, z) - V[:, sel] @ z)) <= 1e-13 * np.linalg.norm(z)
    # the dense one-block case takes the same path
    dense = EigenSystem(eigs.eigenvalues, [V], eigs.N, eigs.gamma, eigs.region, eigs.window)
    assert np.array_equal(dense.columns(slice(None)), V)
    assert np.max(np.abs(dense.coeffs(f) - c)) <= 1e-13 * f.norm()


def test_block_phases_break_a_tie_at_the_first_time_index():
    # a column whose largest entries tie between the fixed point t = 0, listed last
    # in its block, and a pair (u_i, r_i): _fix_phases pivots on t = 0, the first
    H = _case_operator("disk even L")
    d = H.modulation
    u, a, r, b = next(blk for blk in _symmetry_blocks(H) if 0 in blk[0][blk[0] == blk[2]])
    y = 0.01 * np.random.default_rng(2).standard_normal((u.size, 3))
    y[np.flatnonzero((u == 0) & (r == 0))[0], 0] = 0.5
    # the tied pair entry has the opposite sign, so the wrong pivot flips the phase
    i = np.flatnonzero(u != r)[0]
    y[i, 0] = -0.5 / a[i]
    x = locop._expand(y, (u, a, r, b), H.L)
    phases = locop._block_phases(y, (u, a, r, b), d)
    assert np.array_equal(_fix_phases(x, d), (d[:, None] * x) * phases[None, :])


def test_basis_is_built_once_per_N_and_read_only(sys32):
    eigs = eigendecompose(sys32.H, 0.5)
    B = eigs.basis()
    assert eigs.basis() is B and not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 0] = 0
    eigs.N -= 1
    assert eigs.basis().shape == (32, eigs.N)
    assert np.array_equal(eigs.basis(), B[:, : eigs.N])


def _poisson_tail(a, K):
    """P(Poisson(a) > k) for k = 0..K-1."""
    terms = [math.exp(j * math.log(a) - a - math.lgamma(j + 1)) for j in range(K)]
    return np.array([1.0 - math.fsum(terms[: k + 1]) for k in range(K)])


@pytest.mark.parametrize("fixture,gap", [("sys120", 3.6e-5), ("sys480", 1.3e-5)])
def test_disk_spectrum_follows_the_continuum_poisson_tail(request, fixture, gap):
    # Daubechies (1988): a disk of area a with the Gaussian window has eigenvalues
    # P(Poisson(a) > k) in the continuum; the discrete disk of radius L/4 follows them
    # over its first 2|Omega| eigenvalues (measured 3.54e-5 at L=120, 1.26e-5 at L=480)
    system = request.getfixturevalue(fixture)
    a = system.region.measure
    K = int(2 * a)
    ref = _poisson_tail(a, K)
    assert np.max(np.abs(system.eigs.eigenvalues[:K] - ref)) <= gap


def test_disk_at_experiment_scale_splits_in_half():
    L = 960
    H = build_localization_operator(
        disk_region(L, TFPoint(L // 2, L // 2), 240), make_gaussian_window(L)
    )
    assert _block_sizes(H) == ([481, 479], True)


@pytest.mark.parametrize("size", [1e-4, 1e-9, 1e-13])
def test_symmetry_broken_by_the_matrix_is_not_trusted(sys32, size):
    # region and window promise two real blocks, the matrix itself does not keep them
    rng = np.random.default_rng(11)
    E = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    E = E + E.conj().T
    op = sys32.H
    # a plain Hermitian matrix (no modulation) is solved as it stands, as one complex block
    Hm = op.hermitian() + size * E / np.linalg.norm(E)
    bent = LocalizationOperator(Hm, sys32.region, sys32.window)
    assert _block_sizes(bent) == ([32], False)
    # a demodulated matrix that breaks the time reflection is caught on the matrix
    Mr = op.matrix + size * E.real / np.linalg.norm(E.real)
    bent_real = LocalizationOperator(Mr, sys32.region, sys32.window, op.modulation)
    if size > 1e-12:
        assert _block_sizes(bent_real) == ([32], True)
    for bad in (bent, bent_real):
        try:
            eigs = eigendecompose(bad, 0.5)
        except NumericalError:
            continue
        w_ref, v_ref = np.linalg.eigh(bad.hermitian())
        _assert_true_eigensystem(eigs, bad.hermitian(), w_ref[::-1], v_ref[:, ::-1])


def test_tight_residual_tol_accepts_a_true_eigensystem(sys480):
    # the trace check allows the L eigenvalues' roundoff (2.8e-14 at L=480),
    # so a tolerance the pair residuals meet is not failed by the sum
    eigs = eigendecompose(sys480.H, 0.5, residual_tol=1e-14)
    assert eigs.N == sys480.eigs.N


def _even_block_twice(blocks):
    (u, a, r, b), _ = blocks
    return [(u, a, r, b), (u, a, r, b)]


def _fixed_point_weight(blocks):
    (u, a, r, b), odd = blocks
    a = np.where(u == r, np.sqrt(0.5), a)
    return [(u, a, r, b), odd]


def _fixed_point_parity(blocks):
    (u, a, r, b), (uo, ao, ro, bo) = blocks
    keep = u != r
    return [
        (u[keep], a[keep], r[keep], b[keep]),
        (np.concatenate([uo, u[~keep]]), np.concatenate([ao, a[~keep]]),
         np.concatenate([ro, r[~keep]]), np.concatenate([bo, b[~keep]])),
    ]


@pytest.mark.parametrize("corrupt", [_even_block_twice, _fixed_point_weight, _fixed_point_parity])
def test_mis_assembled_block_is_caught(sys32, monkeypatch, corrupt):
    real = locop._symmetry_blocks

    def wrong(H):
        blocks = real(H)
        assert [b[0].size for b in blocks] == [17, 15]
        return corrupt(blocks)

    monkeypatch.setattr(locop, "_symmetry_blocks", wrong)
    with pytest.raises(NumericalError):
        eigendecompose(sys32.H, 0.5)


# ---------------------------------------------------------------- concentration


def test_concentration_on_full_grid_is_total():
    L = 24
    f = random_signal(L, 1)
    c = concentration(f, mask_region(np.ones((L, L), bool)), make_gaussian_window(L))
    assert abs(c.value - f.norm() ** 2) < 1e-10
    assert abs(c.epsilon) < 1e-12


def test_concentration_of_eigenfunctions(sys32):
    eigs = sys32.eigs
    for k in [0, 1, sys32.eigs.N - 1, sys32.eigs.N]:
        psi = Signal(eigs.columns(slice(None))[:, k])
        c = concentration(psi, sys32.region, sys32.window)
        assert abs(c.value - eigs.eigenvalues[k]) < 1e-10


def test_concentration_is_quadratic_form(sys16):
    f = random_signal(16, 2)
    c = concentration(f, sys16.region, sys16.window)
    quad = float(np.real(np.vdot(f.values, sys16.H.hermitian() @ f.values)))
    assert abs(c.value - quad) < 1e-12


def test_concentration_spectral_route_agrees(sys32):
    for seed in range(5):
        f = random_signal(32, seed)
        a = concentration(f, sys32.region, sys32.window)
        b = concentration_from_eigs(f, sys32.eigs)
        assert abs(a.value - b.value) < 1e-10
        assert abs(a.epsilon - b.epsilon) < 1e-10


def test_concentration_rejects_zero_signal(sys16):
    z = Signal(np.zeros(16, dtype=complex))
    with pytest.raises(ParameterError):
        concentration(z, sys16.region, sys16.window)
    with pytest.raises(ParameterError):
        concentration_from_eigs(z, sys16.eigs)


def test_top_eigenfunction_maximizes_concentration(sys32):
    # spectral bound: <Hf, f> <= alpha_1 ||f||^2, equality only on psi_1's eigenspace
    a1 = sys32.eigs.eigenvalues[0]
    for seed in range(100):
        f = random_signal(32, seed)
        c = concentration(f, sys32.region, sys32.window)
        assert c.value <= a1 * f.norm() ** 2 + 1e-10


# ---------------------------------------------------------------- projection


def test_project_VN_fixes_model_space(sys32):
    eigs = sys32.eigs
    psi1 = Signal(eigs.columns(slice(None))[:, 0])
    assert np.max(np.abs(project_VN(psi1.values, eigs.basis()) - psi1.values)) < 1e-12
    tail = Signal(eigs.columns(slice(None))[:, eigs.N])
    assert np.max(np.abs(project_VN(tail.values, eigs.basis()))) < 1e-12


def test_project_VN_pythagoras_and_idempotent(sys32):
    f = random_signal(32, 3)
    p = Signal(project_VN(f.values, sys32.eigs.basis()))
    resid = Signal(f.values - p.values)
    assert abs(f.norm() ** 2 - (p.norm() ** 2 + resid.norm() ** 2)) < 1e-10
    pp = project_VN(p.values, sys32.eigs.basis())
    assert np.max(np.abs(pp - p.values)) < 1e-12


def test_project_VN_needs_positive_N():
    L = 16
    eigs = EigenSystem(np.zeros(L), [np.eye(L, dtype=complex)], 0, 0.5,
                       mask_region(np.ones((L, L), bool)), make_gaussian_window(L))
    with pytest.raises(ParameterError):
        project_VN(random_signal(L, 0).values, eigs.basis())


@pytest.mark.parametrize("consumer", [
    lambda eigs: build_T_matrix(TFPoint(8, 8), eigs),
    lambda eigs: empirical_min_eigenvalue(np.ones((3, 16), dtype=complex), eigs),
    lambda eigs: monte_carlo_failure_frequency(4, [(0.3, 5, 7)], eigs),
    lambda eigs: project_VN(random_signal(16, 0).values, eigs.basis()),
], ids=["build_T_matrix", "empirical_min_eigenvalue", "monte_carlo_failure_frequency",
        "project_VN"])
def test_V_N_consumers_refuse_an_empty_V_N(sys16, consumer):
    # alpha_1 = 0.953 < gamma: the one guard in EigenSystem.basis() refuses for each reader
    eigs = eigendecompose(sys16.H, 0.99)
    assert eigs.N == 0
    with pytest.raises(ParameterError, match=r"spectral cut with N >= 1"):
        consumer(eigs)


def test_monte_carlo_refuses_an_empty_V_N_before_drawing(sys16, monkeypatch):
    # 100 000 trials of r = 20 would take seconds to draw; the guard comes first
    import tfsamp.sampling as sampling

    def no_draws(*args):
        raise AssertionError("trials drawn for an empty V_N")

    monkeypatch.setattr(sampling, "_draw_trials", no_draws)
    eigs = eigendecompose(sys16.H, 0.99)
    with pytest.raises(ParameterError, match=r"spectral cut with N >= 1") as info:
        monte_carlo_failure_frequency(100_000, [(0.3, 20, 7)], eigs)
    assert info.traceback[-1].name == "basis"


# ------------------------------------------------------- concentration lemma


def _projection_at_gamma(f, eigs, gamma):
    k = choose_N(eigs, gamma)
    B = eigs.columns(slice(None))[:, :k]
    return Signal(B @ (B.conj().T @ f.values))


def test_concentration_lemma_inequalities_small_suite(sys64):
    # For ||f|| = 1 with region energy 1 - eps and any cut gamma < 1 - eps:
    #   ||Pf||^2 >= 1 - eps/(1-gamma)
    #   ||f - Pf||^2 <= eps/(1-gamma)
    #   <H Pf, Pf> >= gamma * (1 - eps/(1-gamma))
    eigs, H = sys64.eigs, sys64.H
    rng = np.random.default_rng(202608)
    checked = 0
    for trial in range(40):
        # mix a model-space signal with a small arbitrary tail for varied eps
        base = eigs.columns(slice(None))[:, : eigs.N] @ (
            rng.standard_normal(eigs.N) + 1j * rng.standard_normal(eigs.N)
        )
        noise = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        t = rng.uniform(0, 0.5)
        v = base / np.linalg.norm(base) + t * noise / np.linalg.norm(noise)
        f = Signal(v / np.linalg.norm(v))
        eps = concentration_from_eigs(f, eigs).epsilon
        if eps >= 0.9:
            continue
        gamma = float(rng.uniform(0.05, 1 - eps) * 0.95)
        if not 0 < gamma < 1 - eps:
            continue
        p = _projection_at_gamma(f, eigs, gamma)
        floor = 1 - eps / (1 - gamma)
        assert p.norm() ** 2 >= floor - 1e-9
        assert Signal(f.values - p.values).norm() ** 2 <= eps / (1 - gamma) + 1e-9
        energy = float(np.real(np.vdot(p.values, H.hermitian() @ p.values)))
        assert energy >= gamma * floor - 1e-9
        checked += 1
    assert checked >= 25


# ------------------------------------------------------------ count estimate


def test_count_estimate_exact_on_full_grid():
    L = 32
    reg = mask_region(np.ones((L, L), bool))
    H = build_localization_operator(reg, make_gaussian_window(L))
    lo, hi = eigenvalue_count_estimate(H, 0.5)
    assert abs(lo - L) < 1e-8 and abs(hi - L) < 1e-8


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
def test_count_estimate_brackets_true_count(delta):
    L = 32
    reg = disk_region(L, TFPoint(16, 16), 2)
    phi = make_gaussian_window(L)
    H = build_localization_operator(reg, phi)
    lo, hi = eigenvalue_count_estimate(H, delta)
    w = np.linalg.eigvalsh(H.hermitian())
    count = int((w > 1 - delta).sum())
    assert lo - 1e-9 <= count <= hi + 1e-9
    assert lo <= reg.measure <= hi


def test_count_estimate_brackets_N_at_gamma_cut():
    # delta = 1 - gamma makes the counted set {alpha > gamma}, which brackets N
    L, gamma = 48, 0.5
    reg = disk_region(L, TFPoint(24, 24), 12)
    phi = make_gaussian_window(L)
    H = build_localization_operator(reg, phi)
    eigs = eigendecompose(H, gamma)
    lo, hi = eigenvalue_count_estimate(H, 1 - gamma)
    assert lo - 1e-9 <= eigs.N <= hi + 1e-9


@pytest.mark.parametrize("L", [16, 24])
@pytest.mark.parametrize("case", ["disk", "random mask", "chirped window"])
def test_count_estimate_matches_pair_difference_oracle_and_spectrum(L, case):
    # the interval reads trace(H^2) = ||H||_F^2 off H; the oracle sums the window's
    # ambiguity function over every pair of region points, the spectrum gives sum alpha_k^2
    rng = np.random.default_rng(L)
    t = np.arange(L)
    phi = make_gaussian_window(L)
    if case == "random mask":
        reg = mask_region(rng.random((L, L)) < 0.3)
    else:
        reg = disk_region(L, TFPoint(L // 2, L // 2), L / 4)
    if case == "chirped window":
        phi = Window.normalized(phi.values * np.exp(1j * np.pi * 3 * t**2 / L))
    delta = 0.3
    H = build_localization_operator(reg, phi)
    got = np.array(eigenvalue_count_estimate(H, delta))
    ref = np.array(count_interval_direct(reg.mask, phi.values, delta))
    assert np.max(np.abs(got - ref)) <= 1e-12 * reg.measure
    sq = float(np.sum(eigendecompose(H, 0.5).eigenvalues ** 2))
    R = max(1 / delta, 1 / (1 - delta)) * abs(sq - reg.measure)
    assert np.max(np.abs(got - (reg.measure - R, reg.measure + R))) <= 1e-12 * reg.measure


def test_count_estimate_rejects_bad_delta(sys16):
    with pytest.raises(ParameterError):
        eigenvalue_count_estimate(sys16.H, 0.0)
    with pytest.raises(ParameterError):
        eigenvalue_count_estimate(sys16.H, 1.0)
