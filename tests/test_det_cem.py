import re

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.linalg as spla

import sgeit
from conftest import as_scipy, json_dump_text, two_ring_layout
from sgeit import det_cem, fem
from sgeit.sgfem import _voltage_loads, cem_matrix, expand_mean_free, standard_patterns


@pytest.fixture(scope="module")
def small():
    mesh = sgeit.make_disk_fixture(3, 12, 3, 0.5)
    part = sgeit.assign_pixels(mesh, np.array([[0.3, 0.0], [-0.3, 0.0]]))
    sample = det_cem.DeterministicSample(
        np.array([1.3, 0.8]), np.array([40.0, 70.0, 55.0])
    )
    return mesh, part, sample


def lagrange_grounded_cem(mesh, tri_sigma, zeta, current):
    """Dense electrode-model solve with a sum-to-zero Lagrange multiplier.

    Assembled from scratch (barycentric gradients, explicit edge
    integrals) in the full voltage basis, so it shares no reduction or
    bookkeeping with the package implementation.  Returns the electrode
    voltages.
    """
    n_d = mesh.n_nodes
    n_el = len(zeta)
    A = np.zeros((n_d, n_d))
    for t, tri in enumerate(mesh.triangles):
        V = np.column_stack([np.ones(3), mesh.nodes[tri]])
        G = np.linalg.solve(V, np.eye(3))[1:]
        area = 0.5 * abs(np.linalg.det(V))
        A[np.ix_(tri, tri)] += tri_sigma[t] * area * (G.T @ G)
    S = np.zeros((n_el, n_d, n_d))
    g = np.zeros((n_el, n_d))
    lengths = np.zeros(n_el)
    for e, (i, j) in enumerate(mesh.boundary_edges):
        m = mesh.edge_tags[e] - 1
        if m < 0:
            continue
        h = np.hypot(*(mesh.nodes[j] - mesh.nodes[i]))
        S[m][np.ix_((i, j), (i, j))] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        g[m][[i, j]] += h / 2.0
        lengths[m] += h
    n = n_d + n_el + 1
    K = np.zeros((n, n))
    K[:n_d, :n_d] = A + np.einsum("m,mij->ij", zeta, S)
    K[:n_d, n_d : n_d + n_el] = -(g * zeta[:, None]).T
    K[n_d : n_d + n_el, :n_d] = -(g * zeta[:, None])
    K[n_d : n_d + n_el, n_d : n_d + n_el] = np.diag(zeta * lengths)
    K[n_d : n_d + n_el, -1] = 1.0
    K[-1, n_d : n_d + n_el] = 1.0
    rhs = np.zeros(n)
    rhs[n_d : n_d + n_el] = current
    return np.linalg.solve(K, rhs)[n_d : n_d + n_el]


def test_voltages_match_lagrange_grounded_oracle(small):
    mesh, part, sample = small
    pats = standard_patterns(3)
    sol = det_cem.solve_deterministic(mesh, part, sample, pats)
    tri_sigma = sample.sigma[part.triangle_pixel]
    for p, current in enumerate(pats):
        U = lagrange_grounded_cem(mesh, tri_sigma, sample.zeta, current)
        npt.assert_allclose(sol.voltages[p], U, rtol=1e-10, atol=1e-13)


def splu_route(mesh, part, sample, patterns):
    """Voltages from SuperLU on ``tocsc()`` of the electrode model, one
    solve per pattern, and the model matrix."""
    eg = sgeit.electrode_geometry(mesh)
    S, g = fem.assemble_electrode_mass(mesh, eg)
    A = fem.stiffness_matrix(mesh, sample.sigma[part.triangle_pixel])
    B = cem_matrix(A, sample.zeta, S, g, eg.lengths)
    lu = spla.splu(as_scipy(B).tocsc())
    n_d = mesh.n_nodes
    voltages = []
    for load in _voltage_loads(patterns, eg.n_electrodes):
        rhs = np.zeros(B.shape[0])
        rhs[n_d:] = load
        voltages.append(expand_mean_free(lu.solve(rhs)[n_d:]))
    return np.array(voltages), B


@pytest.mark.parametrize("fixture", ["tiny", "tank"])
def test_solve_is_bitwise_the_splu_route(tiny, fixture):
    # solve_deterministic hands SuperLU the CSR arrays of the model as CSC,
    # which is exact only while the model matrix is bitwise symmetric
    if fixture == "tiny":
        mesh, part, _ = tiny
    else:
        mesh = sgeit.make_disk_fixture(10, 32, 8, 0.5)
        part = sgeit.assign_pixels(mesh, two_ring_layout())
    # 3 patterns on tiny, 7 on the tank
    patterns = standard_patterns(mesh.n_electrodes)
    # on the tank, one of these samples tells a block solve of all patterns
    # from the per-pattern solves in the last bits
    for seed in range(6):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.5, 2.0, part.n_pixels)
        zeta = rng.uniform(10.0, 1000.0, mesh.n_electrodes)
        sample = det_cem.DeterministicSample(sigma, zeta)
        voltages, B = splu_route(mesh, part, sample, patterns)
        dense = B.toarray()
        assert dense.tobytes() == dense.T.copy().tobytes()
        sol = det_cem.solve_deterministic(mesh, part, sample, patterns)
        assert sol.voltages.tobytes() == voltages.tobytes()


def test_voltages_sum_to_zero(small):
    mesh, part, sample = small
    sol = det_cem.solve_deterministic(mesh, part, sample, standard_patterns(3))
    npt.assert_allclose(sol.voltages.sum(axis=1), 0.0, atol=1e-12)


def test_reciprocity(small):
    mesh, part, sample = small
    pats = standard_patterns(3)
    sol = det_cem.solve_deterministic(mesh, part, sample, pats)
    lhs = pats[0] @ sol.voltages[1]
    rhs = pats[1] @ sol.voltages[0]
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linearity_in_current(small):
    mesh, part, sample = small
    p0 = np.array([1.0, -1.0, 0.0])
    p1 = np.array([0.0, 1.0, -1.0])
    sol = det_cem.solve_deterministic(mesh, part, sample, [p0, p1, 3.0 * p0 + p1])
    npt.assert_allclose(
        sol.voltages[2], 3.0 * sol.voltages[0] + sol.voltages[1], rtol=1e-11
    )


def test_power_decreases_with_conductivity(small):
    mesh, part, sample = small
    pat = np.array([[1.0, -1.0, 0.0]])
    powers = []
    for scale in (1.0, 2.0, 4.0):
        s = det_cem.DeterministicSample(scale * sample.sigma, sample.zeta)
        sol = det_cem.solve_deterministic(mesh, part, s, pat)
        powers.append(pat[0] @ sol.voltages[0])
    assert powers[0] > powers[1] > powers[2] > 0.0


def test_params_from_y_endpoints():
    bounds = det_cem.ParameterBounds(
        1.1, np.array([0.6, 0.4]), np.array([10.0, 20.0]), np.array([100.0, 80.0])
    )
    s = det_cem.params_from_y(np.ones(4), bounds)
    npt.assert_allclose(s.sigma, [1.7, 1.5])
    npt.assert_allclose(s.zeta, [100.0, 80.0])
    s = det_cem.params_from_y(-np.ones(4), bounds)
    npt.assert_allclose(s.sigma, [0.5, 0.7])
    npt.assert_allclose(s.zeta, [10.0, 20.0])
    s = det_cem.params_from_y(np.zeros(4), bounds)
    npt.assert_allclose(s.sigma, [1.1, 1.1])
    npt.assert_allclose(s.zeta, [55.0, 50.0])
    with pytest.raises(ValueError, match="expected 4 parameters"):
        det_cem.params_from_y(np.zeros(3), bounds)


def test_parameter_bounds_validation():
    ok = dict(sigma0=1.0, sigma=[0.5], a=[1.0], b=[2.0])
    det_cem.ParameterBounds(**ok)
    with pytest.raises(ValueError, match="sigma0 must be positive"):
        det_cem.ParameterBounds(**{**ok, "sigma0": 0.0})
    with pytest.raises(ValueError, match="0 <= sigma < sigma0"):
        det_cem.ParameterBounds(**{**ok, "sigma": [1.0]})
    with pytest.raises(ValueError, match="0 <= sigma < sigma0"):
        det_cem.ParameterBounds(**{**ok, "sigma": [-0.1]})
    with pytest.raises(ValueError, match="0 < a <= b"):
        det_cem.ParameterBounds(**{**ok, "a": [0.0]})
    with pytest.raises(ValueError, match="0 < a <= b"):
        det_cem.ParameterBounds(**{**ok, "a": [3.0]})
    with pytest.raises(ValueError, match="differ in length"):
        det_cem.ParameterBounds(**{**ok, "a": [1.0, 1.0]})
    with pytest.raises(ValueError, match="a must be a one-dimensional array"):
        det_cem.ParameterBounds(**{**ok, "a": [[1.0]]})


def test_solve_deterministic_rejects(small):
    mesh, part, sample = small
    pats = standard_patterns(3)
    bad = det_cem.DeterministicSample(np.array([1.0]), sample.zeta)
    with pytest.raises(ValueError, match="wrong number of pixel"):
        det_cem.solve_deterministic(mesh, part, bad, pats)
    bad = det_cem.DeterministicSample(np.array([1.0, -0.5]), sample.zeta)
    with pytest.raises(ValueError, match="must be positive"):
        det_cem.solve_deterministic(mesh, part, bad, pats)
    bad = det_cem.DeterministicSample(sample.sigma, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="must be positive"):
        det_cem.solve_deterministic(mesh, part, bad, pats)
    bad = det_cem.DeterministicSample(sample.sigma, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="wrong number of contact"):
        det_cem.solve_deterministic(mesh, part, bad, pats)
    with pytest.raises(ValueError, match="pattern length"):
        det_cem.solve_deterministic(mesh, part, sample, np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError, match="sum to zero"):
        det_cem.solve_deterministic(
            mesh, part, sample, np.array([[1.0, -0.5, 0.0]])
        )
    # a NaN is refused as bad input, not met as a singular factorization
    bad = det_cem.DeterministicSample(np.array([1.0, np.nan]), sample.zeta)
    with pytest.raises(ValueError, match="conductivities must be positive"):
        det_cem.solve_deterministic(mesh, part, bad, pats)
    bad = det_cem.DeterministicSample(sample.sigma, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="conductances must be positive"):
        det_cem.solve_deterministic(mesh, part, bad, pats)
    with pytest.raises(ValueError, match="pattern 0: currents must sum to zero"):
        det_cem.solve_deterministic(
            mesh, part, sample, np.array([[np.nan, 1.0, -1.0]])
        )


@pytest.mark.parametrize(
    "settings, expected",
    [
        ({"noise_std": 0.25}, 0.25),
        ({"noise_std": 0.0}, 0.0),
        ({"noise_pct": 2.5}, 0.025 * 4.0),
        ({}, 0.0),
        ({"noise_std": 0.25, "noise_pct": 2.5}, "give either noise_std or noise_pct"),
        ({"noise_std": -0.25}, "noise_std must be nonnegative and finite, got -0.25"),
        ({"noise_std": np.nan}, "noise_std must be nonnegative and finite, got nan"),
        ({"noise_std": np.inf}, "noise_std must be nonnegative and finite, got inf"),
        ({"noise_pct": -1.0}, "noise_pct must be nonnegative and finite, got -1"),
        ({"noise_pct": np.nan}, "noise_pct must be nonnegative and finite, got nan"),
        ({"noise_pct": np.inf}, "noise_pct must be nonnegative and finite, got inf"),
    ],
    ids=["std", "std-zero", "pct", "neither", "both", "std-negative", "std-nan",
         "std-inf", "pct-negative", "pct-nan", "pct-inf"],
)
def test_noise_level(settings, expected):
    # spread max - min = 4
    voltages = np.array([[-1.5, 0.5], [2.5, 0.0]])
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=re.escape(expected)):
            det_cem.noise_level(voltages, **settings)
    else:
        level = det_cem.noise_level(voltages, **settings)
        assert type(level) is float and level == pytest.approx(expected, rel=1e-15)


def test_simulate_noise_percent_rule(small):
    mesh, part, sample = small
    pats = standard_patterns(3)
    clean = det_cem.solve_deterministic(mesh, part, sample, pats).voltages
    ms = det_cem.simulate_measurements(
        mesh, part, sample, pats, noise_pct=2.5, seed=42
    )
    expected_std = 0.025 * (clean.max() - clean.min())
    assert ms.noise_std == pytest.approx(expected_std, rel=1e-14)
    # the draw itself is reproducible from the stored seed
    rng = np.random.default_rng(42)
    npt.assert_array_equal(
        ms.voltages, clean + expected_std * rng.standard_normal(clean.shape)
    )


def test_simulate_noise_free_and_std(small):
    mesh, part, sample = small
    pats = standard_patterns(3)
    clean = det_cem.solve_deterministic(mesh, part, sample, pats).voltages
    ms = det_cem.simulate_measurements(mesh, part, sample, pats)
    npt.assert_array_equal(ms.voltages, clean)
    assert ms.noise_std == 0.0
    ms = det_cem.simulate_measurements(
        mesh, part, sample, pats, noise_std=1e-3, seed=5
    )
    assert ms.noise_std == 1e-3
    assert np.abs(ms.voltages - clean).max() > 0.0


def test_simulate_noise_arg_validation(small):
    mesh, part, sample = small
    pats = standard_patterns(3)
    with pytest.raises(ValueError, match="not both"):
        det_cem.simulate_measurements(
            mesh, part, sample, pats, noise_std=1e-3, noise_pct=1.0
        )
    with pytest.raises(ValueError, match="nonnegative"):
        det_cem.simulate_measurements(mesh, part, sample, pats, noise_std=-1.0)


@pytest.mark.parametrize(
    "option, value",
    [("noise_std", np.nan), ("noise_std", np.inf), ("noise_pct", np.nan),
     ("noise_pct", np.inf), ("noise_pct", -1.0)],
)
def test_simulate_refuses_a_non_finite_noise_level(small, option, value):
    mesh, part, sample = small
    with pytest.raises(ValueError, match=f"{option} must be nonnegative and finite"):
        det_cem.simulate_measurements(
            mesh, part, sample, standard_patterns(3), **{option: value}
        )


def test_simulate_seed_determinism(small):
    mesh, part, sample = small
    pats = standard_patterns(3)
    a = det_cem.simulate_measurements(mesh, part, sample, pats, noise_pct=1.0, seed=3)
    b = det_cem.simulate_measurements(mesh, part, sample, pats, noise_pct=1.0, seed=3)
    c = det_cem.simulate_measurements(mesh, part, sample, pats, noise_pct=1.0, seed=4)
    npt.assert_array_equal(a.voltages, b.voltages)
    assert np.abs(a.voltages - c.voltages).max() > 0.0


def test_measurements_roundtrip(tmp_path, small):
    mesh, part, sample = small
    ms = det_cem.simulate_measurements(
        mesh, part, sample, standard_patterns(3), noise_pct=1.0, seed=8,
        provenance="unit test",
    )
    path = tmp_path / "ms.json"
    det_cem.save_measurements(ms, path)
    back = det_cem.load_measurements(path)
    npt.assert_array_equal(back.patterns, ms.patterns)
    npt.assert_array_equal(back.voltages, ms.voltages)
    assert back.noise_std == ms.noise_std
    assert back.seed == ms.seed
    assert back.provenance == "unit test"


@pytest.mark.parametrize("provenance", ["", "unit test"])
def test_save_measurements_writes_the_bytes_of_json_dump(tmp_path, small, provenance):
    mesh, part, sample = small
    ms = det_cem.simulate_measurements(
        mesh, part, sample, standard_patterns(3), noise_pct=1.0, seed=8,
        provenance=provenance,
    )
    doc = {
        "patterns": ms.patterns.tolist(),
        "voltages": ms.voltages.tolist(),
        "noise_std": float(ms.noise_std),
        "seed": int(ms.seed),
    }
    if provenance:
        doc["provenance"] = provenance
    path = tmp_path / "ms.json"
    det_cem.save_measurements(ms, path)
    assert path.read_text() == json_dump_text(doc)


def test_load_measurements_rejects(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        det_cem.load_measurements(p)
    p.write_text('{"patterns": [[1.0, -1.0]]}')
    with pytest.raises(ValueError, match="malformed measurement file"):
        det_cem.load_measurements(p)
    p.write_text(
        '{"patterns": [[1.0, -1.0]], "voltages": [[1.0]], '
        '"noise_std": 0.0, "seed": 0}'
    )
    with pytest.raises(ValueError, match="shapes disagree"):
        det_cem.load_measurements(p)


@pytest.mark.parametrize("seed", ["1.5", "true", '"7"'])
def test_load_measurements_refuses_a_seed_that_is_not_an_integer(tmp_path, seed):
    # int() would read these as 1, 1 and 7
    p = tmp_path / "m.json"
    p.write_text(
        '{"patterns": [[1.0, -1.0]], "voltages": [[0.5, -0.5]], '
        f'"noise_std": 0.0, "seed": {seed}}}'
    )
    named = re.escape(f"{p}: ") + ".*seed must be an integer"
    with pytest.raises(ValueError, match=named):
        det_cem.load_measurements(p)
