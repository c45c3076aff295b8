"""Property tests of the input boundaries: corrupt or out-of-contract
mesh, seed, phantom, measurement and surrogate files and parameter boxes
raise ValueError (exit code 2 in the CLI) and never another exception."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sgeit
from conftest import TINY_V1
from sgeit import chaos, cli, det_cem, fem, surrogate

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


def numeric_leaves(doc, path=()):
    """Paths of the int and float entries of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from numeric_leaves(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def replaced(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def loads_or_rejects(load, path):
    """Call the loader and return its result; a ValueError is an accepted
    outcome (None)."""
    try:
        return load(path)
    except ValueError:
        return None


def check_seeds(seeds):
    if seeds is not None:
        assert seeds.ndim == 2 and seeds.shape[1] == 2 and seeds.shape[0] > 0
        assert np.isfinite(seeds).all()


def check_phantom(sample):
    if sample is not None:
        for value in (sample.sigma, sample.zeta):
            assert value.ndim == 1 and np.isfinite(value).all()


@pytest.fixture(scope="module")
def mesh_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "mesh.json"
    sgeit.save_mesh(sgeit.make_disk_fixture(2, 12, 3, 0.5), path)
    return json.loads(path.read_text())


SEEDS_DOC = [[0.0, 0.0], [0.55, 0.0], [-0.55, 0.0]]
PHANTOM_DOC = {"sigma": [1.1, 0.7, 1.3], "zeta": [400.0] * 4}


@pytest.fixture(scope="module")
def measurement_doc(tmp_path_factory, tiny_measurements):
    path = tmp_path_factory.mktemp("fuzz") / "data.json"
    det_cem.save_measurements(tiny_measurements, path)
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def surrogate_bytes(tmp_path_factory, tiny_surrogate):
    path = tmp_path_factory.mktemp("fuzz") / "surr.bin"
    tiny_surrogate.save(path)
    return path.read_bytes()


@FUZZ
@given(data=st.data(), value=non_finite)
def test_load_mesh_rejects_any_non_finite_entry(mesh_doc, tmp_path, data, value):
    leaf = data.draw(st.sampled_from(list(numeric_leaves(mesh_doc))))
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(replaced(mesh_doc, leaf, value)))
    with pytest.raises(ValueError):
        sgeit.load_mesh(path)


@FUZZ
@given(
    key=st.sampled_from(["nodes", "triangles", "boundary_edges"]), value=json_values
)
def test_load_mesh_survives_any_field_value(mesh_doc, tmp_path, key, value):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(replaced(mesh_doc, (key,), value)))
    loads_or_rejects(sgeit.load_mesh, path)


@FUZZ
@given(data=st.data(), value=non_finite)
def test_load_seeds_rejects_any_non_finite_entry(tmp_path, data, value):
    leaf = data.draw(st.sampled_from(list(numeric_leaves(SEEDS_DOC))))
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(replaced(SEEDS_DOC, leaf, value)))
    with pytest.raises(ValueError, match="non-finite value in seeds"):
        cli._load_seeds(path)


@FUZZ
@given(doc=json_values)
def test_load_seeds_survives_any_document(tmp_path, doc):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(doc))
    check_seeds(loads_or_rejects(cli._load_seeds, path))


@FUZZ
@given(data=st.data(), value=json_values)
def test_load_seeds_survives_any_entry_value(tmp_path, data, value):
    leaf = data.draw(st.sampled_from([(i,) for i in range(3)]
                                     + list(numeric_leaves(SEEDS_DOC))))
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(replaced(SEEDS_DOC, leaf, value)))
    check_seeds(loads_or_rejects(cli._load_seeds, path))


@FUZZ
@given(data=st.data(), value=non_finite)
def test_load_phantom_rejects_any_non_finite_entry(tmp_path, data, value):
    leaf = data.draw(st.sampled_from(list(numeric_leaves(PHANTOM_DOC))))
    path = tmp_path / "phantom.json"
    path.write_text(json.dumps(replaced(PHANTOM_DOC, leaf, value)))
    with pytest.raises(ValueError, match=f"non-finite value in {leaf[0]}"):
        cli._load_phantom(path)


@FUZZ
@given(key=st.sampled_from(["sigma", "zeta"]), value=json_values)
def test_load_phantom_survives_any_field_value(tmp_path, key, value):
    path = tmp_path / "phantom.json"
    path.write_text(json.dumps(replaced(PHANTOM_DOC, (key,), value)))
    check_phantom(loads_or_rejects(cli._load_phantom, path))


@FUZZ
@given(doc=json_values)
def test_load_phantom_survives_any_document(tmp_path, doc):
    path = tmp_path / "phantom.json"
    path.write_text(json.dumps(doc))
    check_phantom(loads_or_rejects(cli._load_phantom, path))


@FUZZ
@given(data=st.data(), value=non_finite)
def test_load_measurements_rejects_any_non_finite_entry(
    measurement_doc, tmp_path, data, value
):
    leaf = data.draw(st.sampled_from(list(numeric_leaves(measurement_doc))))
    path = tmp_path / "data.json"
    path.write_text(json.dumps(replaced(measurement_doc, leaf, value)))
    with pytest.raises(ValueError):
        det_cem.load_measurements(path)


@FUZZ
@given(
    key=st.sampled_from(["patterns", "voltages", "noise_std", "seed", "provenance"]),
    value=json_values,
)
def test_load_measurements_survives_any_field_value(
    measurement_doc, tmp_path, key, value
):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(replaced(measurement_doc, (key,), value)))
    loads_or_rejects(det_cem.load_measurements, path)


@FUZZ
@given(data=st.data())
def test_surrogate_load_rejects_truncated_files(surrogate_bytes, tmp_path, data):
    # the magic line and the header length take the first 20 bytes
    end = len(surrogate_bytes) - 1
    size = data.draw(st.integers(0, 24) | st.integers(0, end))
    path = tmp_path / "surr.bin"
    path.write_bytes(surrogate_bytes[:size])
    with pytest.raises(ValueError):
        surrogate.load(path)


@FUZZ
@given(data=st.data())
def test_surrogate_load_survives_flipped_bytes(surrogate_bytes, tmp_path, data):
    raw = bytearray(surrogate_bytes)
    flips = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        )
    )
    for pos, mask in flips:
        raw[pos] ^= mask
    path = tmp_path / "surr.bin"
    path.write_bytes(bytes(raw))
    loads_or_rejects(surrogate.load, path)


def with_header_value(raw, key, value):
    """Surrogate file bytes with one header field replaced."""
    nl = raw.index(b"\n") + 1
    hlen = int.from_bytes(raw[nl : nl + 8], "little")
    header = json.loads(raw[nl + 8 : nl + 8 + hlen])
    blob = json.dumps(replaced(header, (key,), value)).encode()
    return raw[:nl] + len(blob).to_bytes(8, "little") + blob + raw[nl + 8 + hlen :]


@FUZZ
@given(key=st.sampled_from(surrogate.HEADER_FIELDS["2"]), value=json_values)
def test_surrogate_load_survives_any_header_value(
    surrogate_bytes, tmp_path, key, value
):
    path = tmp_path / "surr.bin"
    path.write_bytes(with_header_value(surrogate_bytes, key, value))
    loads_or_rejects(surrogate.load, path)


@FUZZ
@given(
    key=st.sampled_from(["M", "L", "index_set"]),
    value=json_values | st.integers(0, 8),
)
def test_version_1_load_accepts_only_the_derived_values(tmp_path, key, value):
    derived = {"M": 4, "L": 3, "index_set": chaos.iso_td(7, 2).indices.tolist()}
    path = tmp_path / "surr.bin"
    path.write_bytes(with_header_value(TINY_V1.read_bytes(), key, value))
    if loads_or_rejects(surrogate.load, path) is not None:
        assert value == derived[key]


def test_surrogate_load_rejects_a_header_length_past_the_end(
    surrogate_bytes, tmp_path
):
    nl = surrogate_bytes.index(b"\n") + 1
    path = tmp_path / "surr.bin"
    path.write_bytes(
        surrogate_bytes[:nl] + (1 << 62).to_bytes(8, "little")
        + surrogate_bytes[nl + 8 :]
    )
    with pytest.raises(ValueError, match="header length"):
        surrogate.load(path)


any_float = st.floats(allow_nan=True, allow_infinity=True)


# about one box in ten is valid, so this test draws more examples
@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_parameter_bounds_reject_or_map_the_cube_into_the_box(data):
    # each entry is any float, or one drawn to make a valid box likely
    n_pix, n_el = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    sigma0 = data.draw(any_float | st.floats(0.0, 1e3))
    sigma = [
        data.draw(any_float | st.floats(0.0, 1.0).map(lambda r: r * sigma0))
        for _ in range(n_pix)
    ]
    a = [data.draw(any_float | st.floats(0.0, 1e3)) for _ in range(n_el)]
    b = [data.draw(any_float | st.floats(1.0, 1e3).map(lambda r: r * a_m)) for a_m in a]
    try:
        bounds = fem.ParameterBounds(sigma0, sigma, a, b)
    except ValueError:
        return
    n = n_pix + n_el
    corner = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    inner = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    # the contact map meets [a, b] up to rounding of centre and half-width
    f64 = np.finfo(np.float64)
    slack = 4.0 * (f64.eps * bounds.b + f64.smallest_subnormal)
    for y in (np.zeros(n), -np.ones(n), np.ones(n), np.array(corner), np.array(inner)):
        s = det_cem.params_from_y(y, bounds)
        assert np.isfinite(s.sigma).all() and (s.sigma > 0.0).all()
        assert (bounds.sigma0 - bounds.sigma <= s.sigma).all()
        assert (s.sigma <= bounds.sigma0 + bounds.sigma).all()
        assert np.isfinite(s.zeta).all() and (s.zeta > 0.0).all()
        assert (bounds.a - slack <= s.zeta).all()
        assert (s.zeta - slack <= bounds.b).all()
