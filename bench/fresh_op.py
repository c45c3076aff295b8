"""Run one ``sgeit`` command in a fresh process and report its peak memory.

    python3 bench/fresh_op.py precompute|reconstruct '<argv as JSON list>'

Prints one JSON object: exit code, peak RSS and RSS after imports (MB),
growth of the peak across the Galerkin solve (MB), and the SHA-256 of the
command's outputs, computed as in the in-process runs so that the caller
can check determinism across processes.
"""

from env import pin_blas_threads

pin_blas_threads()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import ops  # noqa: E402


def main() -> int:
    kind, argv = sys.argv[1], json.loads(sys.argv[2])
    import_rss = ops.max_rss_mb()
    with ops.Keeper() as keeper:
        code, _ = ops.run_cli(argv)
    out = Path(argv[argv.index("--out") + 1])
    digest = ""
    if code == 0:
        digest = ops.output_digest(out, keeper.chain if kind == "reconstruct" else None)
    print(json.dumps({
        "exit": code,
        "peak_rss_mb": ops.max_rss_mb(),
        "import_rss_mb": import_rss,
        "solve_rss_growth_mb": keeper.solve_rss_growth_mb,
        "sha256": digest,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
