import re
import struct
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from numpy.polynomial import legendre as npleg

import sgeit
from conftest import TINY_V1, split_surrogate, tamper
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
            tiny_surrogate.patterns.shape[0], tiny_surrogate.n_electrodes
        )
        for p in range(1, tiny_surrogate.patterns.shape[0] + 1):
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_refused(tiny_surrogate, bad):
    y = np.zeros(7)
    y[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite parameter point"):
            tiny_surrogate.eval_stacked(y)
        with pytest.raises(ValueError, match="non-finite parameter point"):
            tiny_surrogate.jacobian(y)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_power_form_equals_the_legendre_expansion(tiny_surrogate, degree):
    # random coefficients over the tiny box: evaluation and Jacobian in the
    # monomial basis against V Psi(y) and V dPsi(y) of the Legendre basis
    index_set = chaos.iso_td(tiny_surrogate.n_params, degree)
    rng = np.random.default_rng(60 + degree)
    beta = rng.standard_normal((3, 3, len(index_set)))
    surr = surrogate.SgfemSurrogate(
        index_set, tiny_surrogate.patterns, beta, tiny_surrogate.bounds,
        tiny_surrogate.seeds,
    )
    basis = chaos.ChaosBasis(index_set)
    volts = sgfem.expand_mean_free(beta.swapaxes(1, 2)).swapaxes(1, 2)
    volts = volts.reshape(-1, len(index_set))
    corners = 2.0 * rng.integers(0, 2, (16, 7)) - 1.0
    for y in np.vstack([rng.uniform(-1.0, 1.0, (16, 7)), corners]):
        psi, jpsi = basis.eval_with_jacobian(y)
        for got, want in ((surr.eval_stacked(y), volts @ psi),
                          (surr.jacobian(y), volts @ jpsi)):
            # entries that cancel to near zero carry an absolute rounding
            # error, so the relative bound is taken against the largest one
            npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_power_coeffs_equal_the_sparse_product_bitwise(tiny_surrogate, degree):
    # the numpy sum over the nonzeros of T against scipy's dense x CSR
    # product: the column of T with the most nonzeros sums several random
    # terms, and the last column only terms of -0.0 on the rows of
    # electrodes 2..M, which must come out +0.0 as scipy's do
    index_set = chaos.iso_td(tiny_surrogate.n_params, degree)
    n = len(index_set)
    rows, cols, vals = chaos.legendre_to_monomial(index_set)
    T = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    many = np.argmax(np.bincount(cols))
    if degree >= 2:
        assert np.count_nonzero(cols == many) > 2
    beta = np.random.default_rng(70 + degree).standard_normal((3, 3, n))
    # those rows hold -beta, so the sign of T makes every term -0.0
    feeds = rows[cols == n - 1]
    signs = T[feeds, n - 1].toarray().ravel()
    beta[:, :, feeds] = np.where(signs > 0.0, 0.0, -0.0)
    surr = surrogate.SgfemSurrogate(
        index_set, tiny_surrogate.patterns, beta, tiny_surrogate.bounds,
        tiny_surrogate.seeds,
    )
    volts = sgfem.expand_mean_free(beta.swapaxes(1, 2)).swapaxes(1, 2)
    volts = volts.reshape(-1, n)
    assert surr.power_coeffs.tobytes() == (volts @ T).tobytes()
    electrodes = np.arange(len(volts)) % tiny_surrogate.n_electrodes > 0
    terms = volts[electrodes][:, feeds] * signs
    assert (terms == 0.0).all() and np.signbit(terms).all()
    assert not np.signbit(surr.power_coeffs[electrodes, n - 1]).any()


def test_power_form_refuses_a_set_out_of_graded_order():
    # _times_t takes the first term of every column of T for its diagonal;
    # with the degree-2 index first, the first term of column 2, the
    # constant, is on row 0
    reversed_set = chaos.MultiIndexSet(1, 2, np.array([[2], [1], [0]]))
    T = chaos.legendre_to_monomial(reversed_set)
    with pytest.raises(ValueError, match="graded order"):
        surrogate._times_t(np.ones((2, 3)), *T)


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
    magic, header, _ = split_surrogate(p1)
    assert magic == b"SGFEM-EIT/2\n"
    assert list(header) == ["Q", "sigma0", "sigma", "a", "b", "seeds", "patterns"]
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

    tamper(good, bad, payload_edit=lambda p: p[:-8])
    with pytest.raises(ValueError, match="payload holds"):
        surrogate.load(bad)

    # Q names the index set, so a wrong Q asks for another payload size
    tamper(good, bad, header_edit=lambda h: h.update(Q=3))
    with pytest.raises(ValueError, match="payload holds"):
        surrogate.load(bad)


def drop_field(h):
    del h["seeds"]


def drop_row(h):
    h["index_set"] = h["index_set"][:-1]


def duplicate_row(h):
    # same cardinality, but row 3 repeats row 2: evaluation would be wrong
    h["index_set"][3] = h["index_set"][2]


# version-1 headers store M, L and the index set, which must equal what the
# box and Q derive
@pytest.mark.parametrize(
    "version, edit, named",
    [
        ("2", drop_field, "header must hold exactly the fields"),
        ("2", lambda h: h.update(index_set=[]), "header must hold exactly"),
        ("2", lambda h: h.update(Q=2.5), "Q must be a nonnegative integer, got 2.5"),
        ("2", lambda h: h.update(Q=-1), "Q must be a nonnegative integer, got -1"),
        ("2", lambda h: h.update(Q="2"), "Q must be a nonnegative integer"),
        ("2", lambda h: h.update(Q=True), "Q must be a nonnegative integer"),
        ("1", drop_field, "header must hold exactly the fields M, L, Q"),
        ("1", lambda h: h.update(M=4.7), "M must be a nonnegative integer, got 4.7"),
        ("1", lambda h: h.update(L=3.2), "L must be a nonnegative integer, got 3.2"),
        ("1", lambda h: h.update(M=5), "stored M does not match"),
        ("1", lambda h: h.update(L=2), "stored L does not match"),
        ("1", drop_row, "stored index_set does not match"),
        ("1", duplicate_row, "stored index_set does not match"),
        ("1", lambda h: h.update(Q=3), "payload holds"),
    ],
    ids=[
        "v2-missing-field", "v2-extra-field", "v2-q-float", "v2-q-negative",
        "v2-q-string", "v2-q-bool", "v1-missing-field", "v1-m-float", "v1-l-float",
        "v1-wrong-m", "v1-wrong-l", "v1-drop-row", "v1-duplicate-row", "v1-wrong-q",
    ],
)
def test_load_rejects_a_header_that_does_not_fit(
    tmp_path, tiny_surrogate, version, edit, named
):
    good = TINY_V1
    if version == "2":
        good = tmp_path / "good.sgfem"
        tiny_surrogate.save(good)
    bad = tmp_path / "bad.sgfem"
    tamper(good, bad, header_edit=edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {named}"):
        surrogate.load(bad)


def test_version_1_file_reads_as_the_same_surrogate(tmp_path, tiny_surrogate):
    # TINY_V1 is the tiny_surrogate fixture as the version-1 writer saved it.
    # A fresh solve can differ from its coefficients in the last bits with the
    # BLAS thread count, so the fixture is rebuilt on the stored ones.
    old = surrogate.load(TINY_V1)
    npt.assert_allclose(old.beta, tiny_surrogate.beta, rtol=0.0, atol=1e-12)
    same = surrogate.SgfemSurrogate(
        tiny_surrogate.index_set, tiny_surrogate.patterns, old.beta,
        tiny_surrogate.bounds, tiny_surrogate.seeds,
    )
    rng = np.random.default_rng(70)
    for y in rng.uniform(-1.0, 1.0, (8, tiny_surrogate.n_params)):
        npt.assert_array_equal(old.eval_stacked(y), same.eval_stacked(y))
        npt.assert_array_equal(old.jacobian(y), same.jacobian(y))
    resaved, expected = tmp_path / "old.sgfem", tmp_path / "same.sgfem"
    old.save(resaved)
    same.save(expected)
    assert resaved.read_bytes() == expected.read_bytes()
    # the header drops M, L and index_set; the payload stays as it was
    _, header, payload = split_surrogate(resaved)
    _, v1_header, v1_payload = split_surrogate(TINY_V1)
    assert payload == v1_payload
    assert {k: v for k, v in v1_header.items() if k in header} == header


def test_save_refuses_a_set_the_file_cannot_name(tmp_path, tiny_surrogate):
    full = tiny_surrogate.index_set
    partial = chaos.MultiIndexSet(full.n_dims, full.degree, full.indices[:-1])
    surr = surrogate.SgfemSurrogate(
        partial, tiny_surrogate.patterns, tiny_surrogate.beta[:, :, :-1],
        tiny_surrogate.bounds, tiny_surrogate.seeds,
    )
    path = tmp_path / "partial.sgfem"
    with pytest.raises(ValueError, match="not the total-degree set for L\\+M=7, Q=2"):
        surr.save(path)


@pytest.mark.parametrize("edit, q", [("reordered", 2), ("cube", 3)])
def test_save_refuses_a_set_of_the_size_of_iso_td_that_is_not_it(
    tmp_path, tiny_surrogate, edit, q
):
    # save checks the size and the graded order, not the rows of iso_td(7, 2):
    # its last two rows swapped, or its last row y_7^2 replaced by y_1^3, a
    # downward-closed set of the same size and of degree 3
    full = tiny_surrogate.index_set
    rows = full.indices.copy()
    if edit == "reordered":
        rows[[-2, -1]] = rows[[-1, -2]]
    else:
        rows[-1] = 3 * np.eye(full.n_dims, dtype=np.int64)[0]
    surr = surrogate.SgfemSurrogate(
        chaos.MultiIndexSet(full.n_dims, q, rows), tiny_surrogate.patterns,
        tiny_surrogate.beta, tiny_surrogate.bounds, tiny_surrogate.seeds,
    )
    path = tmp_path / "other.sgfem"
    with pytest.raises(ValueError, match=f"not the total-degree set for L\\+M=7, Q={q}"):
        surr.save(path)
    assert not path.exists()


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
        ("sigma", None, 0.6, "sigma must be a one-dimensional array"),
    ],
    ids=[
        "a-above-b", "a-zero", "sigma-at-sigma0", "sigma-negative",
        "sigma0-negative", "sigma-scalar",
    ],
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
    t = tiny_surrogate
    cases = [
        ("coefficient array has shape", dict(beta=t.beta[:, :, :-1])),
        # five seeds for three pixels
        (r"seeds has shape \(5, 2\), expected \(3, 2\)", dict(seeds=np.zeros((5, 2)))),
        ("patterns has shape", dict(patterns=t.patterns[:, :-1])),
        # same cardinality (36) so only the dimension count is wrong
        (r"index set has shape \(36, 35\), expected \(36, 7\)",
         dict(index_set=chaos.iso_td(35, 1))),
    ]
    for named, change in cases:
        parts = dict(index_set=t.index_set, patterns=t.patterns, beta=t.beta,
                     bounds=t.bounds, seeds=t.seeds)
        with pytest.raises(ValueError, match=named):
            surrogate.SgfemSurrogate(**{**parts, **change})
