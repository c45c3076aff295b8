import re
import struct

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial import legendre as npleg

import sgeit
from conftest import tamper
from sgeit import chaos, det_cem, fem, sgfem, surrogate


def classical_eval(surr, pattern_index, y):
    """Recompute one pattern's voltages from raw coefficients.

    Uses numpy's classical Legendre evaluation with explicit sqrt(2k+1)
    weights instead of the package's basis object.
    """
    vals = np.empty(len(surr.index_set))
    for mu, alpha in enumerate(surr.index_set.indices):
        term = 1.0
        for k, yi in zip(alpha, y):
            coef = np.zeros(k + 1)
            coef[k] = 1.0
            term *= np.sqrt(2.0 * k + 1.0) * npleg.legval(yi, coef)
        vals[mu] = term
    gamma = surr.beta[pattern_index - 1] @ vals
    return np.concatenate([[gamma.sum()], -gamma])


def test_eval_matches_classical_legendre(tiny_surrogate):
    rng = np.random.default_rng(1)
    for _ in range(4):
        y = rng.uniform(-1.0, 1.0, tiny_surrogate.n_params)
        volts = tiny_surrogate.eval_stacked(y).reshape(
            tiny_surrogate.n_patterns, tiny_surrogate.n_electrodes
        )
        for p in range(1, tiny_surrogate.n_patterns + 1):
            npt.assert_allclose(
                volts[p - 1],
                classical_eval(tiny_surrogate, p, y),
                rtol=1e-12,
                atol=1e-15,
            )


def test_eval_stacked_and_mean_free(tiny_surrogate):
    rng = np.random.default_rng(2)
    y = rng.uniform(-1.0, 1.0, tiny_surrogate.n_params)
    stacked = tiny_surrogate.eval_stacked(y)
    # one pattern at a time: coefficient rows against the basis values
    psi = chaos.ChaosBasis(tiny_surrogate.index_set).eval(y)
    per = np.concatenate(
        [sgfem.expand_mean_free(tiny_surrogate.beta[p - 1] @ psi) for p in range(1, 4)]
    )
    # batched and per-pattern matmuls differ in the last ulp only
    npt.assert_allclose(stacked, per, rtol=1e-14)
    npt.assert_allclose(stacked.reshape(3, 4).sum(axis=1), 0.0, atol=1e-13)


def test_check_point_contract(tiny_surrogate):
    with pytest.raises(ValueError, match="expected 7 parameters"):
        tiny_surrogate.eval_stacked(np.zeros(5))
    y = np.zeros(7)
    y[0] = 1.5
    with pytest.warns(UserWarning, match="outside"):
        tiny_surrogate.eval_stacked(y)


def test_jacobian_matches_finite_differences(tiny_surrogate):
    rng = np.random.default_rng(3)
    y = rng.uniform(-0.6, 0.6, tiny_surrogate.n_params)
    jac = tiny_surrogate.jacobian(y)
    h = 1e-6
    for k in range(tiny_surrogate.n_params):
        e = np.zeros_like(y)
        e[k] = h
        fd = (tiny_surrogate.eval_stacked(y + e) - tiny_surrogate.eval_stacked(y - e)) / (
            2.0 * h
        )
        npt.assert_allclose(jac[:, k], fd, rtol=1e-6, atol=1e-10)


def test_jacobian_is_mean_free(tiny_surrogate):
    # the electrode voltages of a pattern sum to zero at every y, so the
    # rows of each pattern's block of the Jacobian do too
    rng = np.random.default_rng(13)
    for _ in range(5):
        y = rng.uniform(-1.0, 1.0, tiny_surrogate.n_params)
        jac = tiny_surrogate.jacobian(y).reshape(3, 4, tiny_surrogate.n_params)
        scale = np.abs(jac).max()
        npt.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-14 * scale)


def test_surrogate_tracks_deterministic_solve(tiny, tiny_surrogate):
    # same mesh on both sides, so the gap is pure chaos truncation
    mesh, part, _ = tiny
    rng = np.random.default_rng(4)
    y = rng.uniform(-0.5, 0.5, tiny_surrogate.n_params)
    sol = det_cem.solve_deterministic(
        mesh, part, det_cem.params_from_y(y, tiny_surrogate.bounds),
        tiny_surrogate.patterns,
    )
    exact = sol.voltages.ravel()
    err = np.abs(tiny_surrogate.eval_stacked(y) - exact).max()
    assert err < 0.05 * (exact.max() - exact.min())


def test_collapsed_contacts_remove_contact_dependence(tiny):
    mesh, part, seeds = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    bounds = fem.ParameterBounds(
        1.1, np.full(L, 0.6), np.full(M, 300.0), np.full(M, 300.0)
    )
    spatial = fem.assemble_spatial(mesh, part, bounds)
    index_set = chaos.iso_td(L + M, 2)
    system = sgfem.assemble_system(spatial, chaos.moment_matrices(index_set))
    solution = sgfem.solve(system, sgfem.standard_patterns(M))
    surr = surrogate.from_solution(solution, index_set, bounds, seeds)
    rng = np.random.default_rng(5)
    y = rng.uniform(-0.9, 0.9, L + M)
    scale = np.abs(surr.jacobian(y)).max()
    assert np.abs(surr.jacobian(y)[:, L:]).max() <= 1e-10 * scale
    contact_degree = surr.index_set.indices[:, L:].sum(axis=1)
    assert np.abs(surr.beta[:, :, contact_degree > 0]).max() <= 1e-10


def test_degree_one_surrogate_is_affine(tiny):
    mesh, part, seeds = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    bounds = fem.ParameterBounds(
        1.1, np.full(L, 0.6), np.full(M, 100.0), np.full(M, 1000.0)
    )
    spatial = fem.assemble_spatial(mesh, part, bounds)
    index_set = chaos.iso_td(L + M, 1)
    system = sgfem.assemble_system(spatial, chaos.moment_matrices(index_set))
    solution = sgfem.solve(system, sgfem.standard_patterns(M))
    surr = surrogate.from_solution(solution, index_set, bounds, seeds)
    rng = np.random.default_rng(6)
    y0 = np.zeros(L + M)
    base = surr.eval_stacked(y0)
    jac = surr.jacobian(y0)
    for _ in range(3):
        y = rng.uniform(-1.0, 1.0, L + M)
        npt.assert_allclose(surr.eval_stacked(y), base + jac @ y, rtol=1e-12)


def test_save_load_roundtrip(tmp_path, tiny_surrogate):
    p1 = tmp_path / "s1.sgfem"
    p2 = tmp_path / "s2.sgfem"
    tiny_surrogate.save(p1)
    back = surrogate.load(p1)
    back.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    npt.assert_array_equal(back.beta, tiny_surrogate.beta)
    npt.assert_array_equal(back.patterns, tiny_surrogate.patterns)
    npt.assert_array_equal(back.index_set.indices, tiny_surrogate.index_set.indices)
    npt.assert_array_equal(back.seeds, tiny_surrogate.seeds)
    assert back.sigma0 == tiny_surrogate.sigma0
    npt.assert_array_equal(back.sigma, tiny_surrogate.sigma)
    npt.assert_array_equal(back.a, tiny_surrogate.a)
    npt.assert_array_equal(back.b, tiny_surrogate.b)
    y = np.full(tiny_surrogate.n_params, 0.3)
    npt.assert_array_equal(back.eval_stacked(y), tiny_surrogate.eval_stacked(y))


def test_load_rejects_corrupt_files(tmp_path, tiny_surrogate):
    good = tmp_path / "good.sgfem"
    tiny_surrogate.save(good)
    bad = tmp_path / "bad.sgfem"

    bad.write_bytes(b"PNG\n" + good.read_bytes()[10:])
    with pytest.raises(ValueError, match="not a surrogate file"):
        surrogate.load(bad)

    raw = good.read_bytes()
    bad.write_bytes(b"SGFEM-EIT/9\n" + raw[raw.index(b"\n") + 1 :])
    with pytest.raises(ValueError, match="unsupported format version '9'"):
        surrogate.load(bad)

    nl = raw.index(b"\n") + 1
    bad.write_bytes(raw[:nl] + struct.pack("<Q", 5) + b"{oops" + raw[nl + 13 :])
    with pytest.raises(ValueError, match="corrupt header"):
        surrogate.load(bad)

    def drop_row(h):
        h["index_set"] = h["index_set"][:-1]

    tamper(good, bad, header_edit=drop_row)
    with pytest.raises(ValueError, match="cardinality"):
        surrogate.load(bad)

    tamper(good, bad, payload_edit=lambda p: p[:-8])
    with pytest.raises(ValueError, match="payload holds"):
        surrogate.load(bad)

    def wrong_q(h):
        h["Q"] = 3

    tamper(good, bad, header_edit=wrong_q)
    with pytest.raises(ValueError, match="cardinality"):
        surrogate.load(bad)


def test_load_rejects_duplicated_index_row(tmp_path, tiny_surrogate):
    # same cardinality, but row 3 repeats row 2: evaluation would be wrong
    good = tmp_path / "good.sgfem"
    tiny_surrogate.save(good)
    bad = tmp_path / "bad.sgfem"

    def duplicate_row(h):
        h["index_set"][3] = h["index_set"][2]

    tamper(good, bad, header_edit=duplicate_row)
    with pytest.raises(ValueError, match="index_set differs"):
        surrogate.load(bad)


@pytest.mark.parametrize(
    "field", ["sigma0", "sigma", "a", "b", "seeds", "patterns", "coefficients"]
)
def test_load_rejects_non_finite_fields(tmp_path, tiny_surrogate, field):
    good = tmp_path / "good.sgfem"
    tiny_surrogate.save(good)
    bad = tmp_path / "bad.sgfem"

    def poison_header(h):
        h[field] = (np.asarray(h[field]) * np.nan).tolist()

    def poison_payload(p):
        return struct.pack("<d", np.inf) + p[8:]

    if field == "coefficients":
        tamper(good, bad, payload_edit=poison_payload)
    else:
        tamper(good, bad, header_edit=poison_header)
    with pytest.raises(ValueError, match=f"non-finite value in {field}$"):
        surrogate.load(bad)


# the stored box is 1.1 + 0.6 y per pixel and [100, 1000] per contact
@pytest.mark.parametrize(
    "field, index, value, named",
    [
        ("a", 1, 2000.0, "electrode 2: invalid contact bounds"),
        ("a", 3, 0.0, "electrode 4: invalid contact bounds"),
        ("sigma", 2, 1.1, r"pixel 2: sigma\[2\]"),
        ("sigma", 0, -0.1, r"pixel 0: sigma\[0\]"),
        ("sigma0", None, -1.0, "sigma0 must be positive"),
    ],
    ids=["a-above-b", "a-zero", "sigma-at-sigma0", "sigma-negative", "sigma0-negative"],
)
def test_load_rejects_an_inconsistent_box(
    tmp_path, tiny_surrogate, field, index, value, named
):
    good = tmp_path / "good.sgfem"
    tiny_surrogate.save(good)
    bad = tmp_path / "bad.sgfem"

    def edit(h):
        if index is None:
            h[field] = value
        else:
            h[field][index] = value

    tamper(good, bad, header_edit=edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {named}"):
        surrogate.load(bad)


def test_from_solution_validates_shapes(tiny_surrogate):
    with pytest.raises(ValueError, match="coefficient array has shape"):
        surrogate.SgfemSurrogate(
            tiny_surrogate.index_set,
            tiny_surrogate.patterns,
            tiny_surrogate.beta[:, :, :-1],
            tiny_surrogate.bounds,
            tiny_surrogate.seeds,
        )
    # same cardinality (36) so only the dimension count is wrong
    with pytest.raises(ValueError, match="does not match pixel and electrode"):
        surrogate.SgfemSurrogate(
            chaos.iso_td(35, 1),
            tiny_surrogate.patterns,
            tiny_surrogate.beta,
            tiny_surrogate.bounds,
            tiny_surrogate.seeds,
        )
