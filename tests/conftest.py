import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import sgeit
from sgeit import chaos, det_cem, fem, inversion, sgfem, surrogate


def two_ring_layout():
    # 4 seeds at r=0.35 rotated half a sector, 8 at r=0.75 on the axes
    inner_t = 2.0 * np.pi * (np.arange(4) + 0.5) / 4
    outer_t = 2.0 * np.pi * np.arange(8) / 8
    inner = 0.35 * np.column_stack([np.cos(inner_t), np.sin(inner_t)])
    outer = 0.75 * np.column_stack([np.cos(outer_t), np.sin(outer_t)])
    return np.vstack([inner, outer])


def json_dump_text(doc) -> str:
    """``doc`` as ``json.dump`` writes it, through the pure-Python encoder."""
    out = io.StringIO()
    json.dump(doc, out)
    return out.getvalue()


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def as_scipy(M):
    """A ``CSRMatrix`` of the library as SciPy's ``csr_matrix`` on the same
    arrays, for the sparse arithmetic, indexing and SciPy references of the
    tests; the one place the tests convert one."""
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


def moment_matrix(mm, k):
    """G_k of the coupling table of ``chaos.moment_matrices`` as a CSR
    matrix; G_0 is the identity."""
    n = len(mm.parity)
    if k == 0:
        return sp.identity(n, format="csr")
    at = mm.dim == k
    return sp.csr_matrix((mm.coeff[at], (mm.row[at], mm.col[at])), shape=(n, n))


# the tiny_surrogate fixture as the version-1 writer saved it
TINY_V1 = Path(__file__).parent / "data" / "tiny_surrogate_v1.sgfem"


def split_surrogate(path):
    """Magic line, JSON header and payload bytes of a surrogate file."""
    raw = path.read_bytes()
    nl = raw.index(b"\n") + 1
    (hlen,) = struct.unpack("<Q", raw[nl : nl + 8])
    return raw[:nl], json.loads(raw[nl + 8 : nl + 8 + hlen]), raw[nl + 8 + hlen :]


def tamper(path, out, header_edit=None, payload_edit=None):
    """Copy a surrogate file to ``out``, editing its JSON header and/or its
    payload bytes on the way."""
    magic, header, payload = split_surrogate(path)
    if header_edit:
        header_edit(header)
    if payload_edit:
        payload = payload_edit(payload)
    blob = json.dumps(header, separators=(",", ":")).encode()
    out.write_bytes(magic + struct.pack("<Q", len(blob)) + blob + payload)


class FoldedTarget:
    """A plain log density as a chain target of ``inversion._metropolis``:
    ``step`` proposes y + inc, folds the coordinates from ``fold_from`` on
    into [-1, 1] as ``Posterior.step`` folds the contacts, and evaluates
    ``log_density`` on ``proposal``, one array that every step overwrites."""

    def __init__(self, log_density, n_dim, fold_from=None):
        self.log_density, self.proposal = log_density, np.empty(n_dim)
        self.fold_from = n_dim if fold_from is None else fold_from

    def step(self, y, inc):
        prop = np.add(y, inc, out=self.proposal)
        for k, p in enumerate(prop[self.fold_from :].tolist(), self.fold_from):
            if not -1.0 <= p <= 1.0:
                prop[k] = inversion._fold(p)
        return self.log_density(prop)


def metropolis(log_density, start, cfg, factor=None, fold_from=None):
    """One chain of ``inversion._metropolis`` on a ``FoldedTarget``, pooled
    into an ``McmcResult``; the proposal factor defaults to the identity."""
    n = len(start)
    factor = np.eye(n) if factor is None else factor
    target = FoldedTarget(log_density, n, fold_from)
    return inversion._pooled([inversion._metropolis(target, start, cfg, factor)])


@pytest.fixture(scope="session")
def disk_seeds():
    return two_ring_layout()


@pytest.fixture(scope="session")
def tiny():
    """Small end-to-end setup: 4 electrodes, 3 pixels, 37 nodes."""
    mesh = sgeit.make_disk_fixture(3, 12, 4, 0.5)
    seeds = np.array([[0.0, 0.0], [0.55, 0.0], [-0.55, 0.0]])
    part = sgeit.assign_pixels(mesh, seeds)
    return mesh, part, seeds


def build_tiny_surrogate(tiny, degree):
    """Galerkin surrogate of chaos degree ``degree`` on the tiny setup."""
    mesh, part, seeds = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    bounds = fem.ParameterBounds(
        1.1, np.full(L, 0.6), np.full(M, 100.0), np.full(M, 1000.0)
    )
    spatial = fem.assemble_spatial(mesh, part, bounds)
    index_set = chaos.iso_td(L + M, degree)
    moments = chaos.moment_matrices(index_set)
    system = sgfem.assemble_system(spatial, moments)
    patterns = sgfem.standard_patterns(M)
    solution = sgfem.solve(system, patterns)
    return surrogate.from_solution(solution, index_set, bounds, seeds)


@pytest.fixture(scope="session")
def tiny_surrogate(tiny):
    return build_tiny_surrogate(tiny, 2)


@pytest.fixture(scope="session")
def tiny_measurements(tiny):
    mesh, part, seeds = tiny
    sample = det_cem.DeterministicSample(
        np.array([1.1, 0.7, 1.3]), np.full(4, 400.0)
    )
    patterns = sgfem.standard_patterns(4)
    return det_cem.simulate_measurements(
        mesh, part, sample, patterns, noise_pct=1.0, seed=11
    )
