"""Precompute the paper-scale surrogate from files.

Writes the ``paper`` fixture of ROADMAP.md to a directory: the mesh
``make_disk_fixture(10, 32, 16, 0.5)`` as mesh.json and 76 pixel seeds as
seeds.json, on rings of 1, 7, 14, 22 and 32 seeds at radii 0, 0.2, 0.4, 0.6
and 0.82 (angles 2 pi i / n).  That gives 92 stochastic dimensions, 4,371
chaos terms at degree 2, system order 1,468,656 and 15 current patterns.
Then runs ``sgeit precompute`` on the files in a fresh interpreter, which
prints the assembly and solve times, the iterations, the largest relative
residual and the peak resident memory after the solve, and writes the
surrogate next to the inputs.  Takes a few seconds and about 90 MiB.

    python demos/paper_scale.py [DIR] [--rings R --sectors S]

``--rings`` and ``--sectors`` set the mesh, ``make_disk_fixture(R, S, 16,
0.5)``, with the same seeds and electrodes: the defaults 10 and 32 give
``paper``, 20 and 64 give ``paper-fine20`` (n_s = 1,296; a solve of about
3 s and about 230 MiB), and 30 and 96 give ``paper-fine30`` (n_s = 2,896;
a solve of 8.2-8.6 s and about 518 MiB).  DIR defaults to a temporary
directory that is removed afterwards.  Other ``sgeit precompute`` options
may follow, e.g. ``--order 1``.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import sgeit  # noqa: E402

RINGS = [(1, 0.0), (7, 0.2), (14, 0.4), (22, 0.6), (32, 0.82)]


def paper_seeds() -> np.ndarray:
    """The 76 seeds of the ``paper`` fixture, ring by ring."""
    rings = []
    for n, r in RINGS:
        angles = 2.0 * np.pi * np.arange(n) / n
        rings.append(r * np.column_stack([np.cos(angles), np.sin(angles)]))
    return np.vstack(rings)


def write_fixture(
    directory: pathlib.Path, rings: int = 10, sectors: int = 32
) -> tuple[pathlib.Path, pathlib.Path]:
    """Write mesh.json and seeds.json into ``directory``; return their paths."""
    mesh_path, seeds_path = directory / "mesh.json", directory / "seeds.json"
    sgeit.save_mesh(sgeit.make_disk_fixture(rings, sectors, 16, 0.5), mesh_path)
    seeds_path.write_text(json.dumps(paper_seeds().tolist()))
    return mesh_path, seeds_path


def precompute(
    directory: pathlib.Path, rings: int, sectors: int, extra: list[str]
) -> int:
    mesh_path, seeds_path = write_fixture(directory, rings, sectors)
    command = [
        sys.executable, "-c",
        "import sys; from sgeit.cli import main; sys.exit(main())",
        "precompute", "--mesh", str(mesh_path), "--seeds", str(seeds_path),
        "--out", str(directory / "paper.bin"), *extra,
    ]
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    args = sys.argv[1:]
    directory = args.pop(0) if args and not args[0].startswith("-") else None
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--rings", type=int, default=10)
    parser.add_argument("--sectors", type=int, default=32)
    mesh, extra = parser.parse_known_args(args)
    if directory is not None:
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sys.exit(precompute(directory, mesh.rings, mesh.sectors, extra))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(precompute(pathlib.Path(tmp), mesh.rings, mesh.sectors, extra))
