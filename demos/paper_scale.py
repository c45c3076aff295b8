"""Precompute the paper-scale surrogate from files.

Writes the ``paper`` fixture of ROADMAP.md to a directory: the mesh
``make_disk_fixture(10, 32, 16, 0.5)`` as mesh.json and 76 pixel seeds as
seeds.json, on rings of 1, 7, 14, 22 and 32 seeds at radii 0, 0.2, 0.4, 0.6
and 0.82 (angles 2 pi i / n).  That gives 92 stochastic dimensions, 4,371
chaos terms at degree 2, system order 1,468,656 and 15 current patterns.
Then runs ``sgeit precompute`` on the files in a fresh interpreter, which
prints the assembly and solve times, the iterations, the largest relative
residual and the peak resident memory after the solve, and writes the
surrogate next to the inputs.  Takes a few seconds and about 150 MiB.

    python demos/paper_scale.py [DIR]

DIR defaults to a temporary directory that is removed afterwards.  Extra
``sgeit precompute`` options may follow DIR, e.g. ``--order 1``.
"""

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


def write_fixture(directory: pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
    """Write mesh.json and seeds.json into ``directory``; return their paths."""
    mesh_path, seeds_path = directory / "mesh.json", directory / "seeds.json"
    sgeit.save_mesh(sgeit.make_disk_fixture(10, 32, 16, 0.5), mesh_path)
    seeds_path.write_text(json.dumps(paper_seeds().tolist()))
    return mesh_path, seeds_path


def precompute(directory: pathlib.Path, extra: list[str]) -> int:
    mesh_path, seeds_path = write_fixture(directory)
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
    if args and not args[0].startswith("-"):
        directory = pathlib.Path(args.pop(0))
        directory.mkdir(parents=True, exist_ok=True)
        sys.exit(precompute(directory, args))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(precompute(pathlib.Path(tmp), args))
