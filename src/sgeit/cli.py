"""Command-line front end: precompute, simulate, reconstruct, render.

precompute   build a voltage surrogate for a mesh/seed layout
simulate     generate synthetic measurements from a phantom
reconstruct  MAP and (optionally) conditional-mean/spread estimates
render       flat-shaded SVG of a per-pixel conductivity field

Exit codes: 0 success, 2 invalid inputs or usage, 3 numerical failure.
All randomness is seeded, so rerunning a command with the same number of
BLAS threads reproduces its output byte for byte; another thread count can
change results in the last bits.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

from . import det_cem, fem, inversion, sgfem, surrogate
from .chaos import iso_td, moment_matrices
from .geometry import (
    Mesh, PixelPartition, assign_pixels, load_mesh, read_json, require_finite
)

# sampled viridis control points for the flat-shaded field plots
_COLORMAP = np.array(
    [
        (0.267004, 0.004874, 0.329415),
        (0.282623, 0.140926, 0.457517),
        (0.253935, 0.265254, 0.529983),
        (0.206756, 0.371758, 0.553117),
        (0.163625, 0.471133, 0.558148),
        (0.127568, 0.566949, 0.550556),
        (0.134692, 0.658636, 0.517649),
        (0.266941, 0.748751, 0.440573),
        (0.993248, 0.906157, 0.143936),
    ]
)


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    x = t * (len(_COLORMAP) - 1)
    i = min(int(x), len(_COLORMAP) - 2)
    rgb = _COLORMAP[i] + (x - i) * (_COLORMAP[i + 1] - _COLORMAP[i])
    return "#" + "".join(f"{int(round(255 * c)):02x}" for c in rgb)


def render_field_svg(
    mesh: Mesh, partition: PixelPartition, values, label: str = ""
) -> str:
    """Flat-shaded per-pixel field as an SVG document string.

    One vector path per pixel region, plus a labeled color scale whose
    endpoints are the minimum and maximum of the plotted field.  Purely
    deterministic output for fixed inputs.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (partition.n_pixels,):
        raise ValueError(f"need one value per pixel, got shape {values.shape}")
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin

    plot, margin, bar_w, gap = 520.0, 20.0, 28.0, 40.0
    width = margin + plot + gap + bar_w + 90.0
    height = margin * 2 + plot
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    scale = plot / max(hi - lo)
    off = margin + 0.5 * (plot - scale * (hi - lo))

    def xy(p):
        return (
            f"{off[0] + scale * (p[0] - lo[0]):.2f},"
            f"{height - (off[1] + scale * (p[1] - lo[1])):.2f}"
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for l in range(partition.n_pixels):
        t = 0.5 if span == 0.0 else (values[l] - vmin) / span
        sub = []
        for tri in partition.pixel_triangles(l):
            a, b, c = mesh.triangles[tri]
            sub.append(
                f"M{xy(mesh.nodes[a])}L{xy(mesh.nodes[b])}L{xy(mesh.nodes[c])}Z"
            )
        parts.append(f'<path d="{"".join(sub)}" fill="{_color(t)}"/>')

    bar_x = margin + plot + gap
    n_sw = 64
    for k in range(n_sw):
        t = (n_sw - 1 - k) / (n_sw - 1)
        y0 = margin + k * plot / n_sw
        parts.append(
            f'<rect x="{bar_x:.2f}" y="{y0:.2f}" width="{bar_w:.2f}" '
            f'height="{plot / n_sw + 0.5:.2f}" fill="{_color(t)}"/>'
        )
    tx = bar_x + bar_w + 8.0
    parts.append(
        f'<text x="{tx:.2f}" y="{margin + 12:.2f}" font-family="sans-serif" '
        f'font-size="14">{vmax:.6g}</text>'
    )
    parts.append(
        f'<text x="{tx:.2f}" y="{margin + plot:.2f}" font-family="sans-serif" '
        f'font-size="14">{vmin:.6g}</text>'
    )
    if label:
        parts.append(
            f'<text x="{margin:.2f}" y="{height - 6:.2f}" '
            f'font-family="sans-serif" font-size="14">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_seeds(path) -> np.ndarray:
    raw = read_json(path)
    try:
        seeds = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed seeds file ({exc})") from exc
    if seeds.ndim != 2 or seeds.shape[1] != 2 or seeds.shape[0] == 0:
        raise ValueError(f"{path}: expected a nonempty list of [x, y] seeds")
    require_finite(path, seeds=seeds)
    return seeds


def _load_phantom(path) -> det_cem.DeterministicSample:
    raw = read_json(path)
    try:
        sigma = np.asarray(raw["sigma"], dtype=np.float64)
        zeta = np.asarray(raw["zeta"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed phantom file ({exc})") from exc
    if sigma.ndim != 1 or zeta.ndim != 1:
        raise ValueError(f"{path}: sigma and zeta must be lists of numbers")
    require_finite(path, sigma=sigma, zeta=zeta)
    return det_cem.DeterministicSample(sigma, zeta)


def _peak_rss_mib() -> float:
    """Peak resident memory of this process so far, in MiB.

    Reads VmHWM where /proc has it: on Linux ``ru_maxrss`` also keeps the
    peak of the process image an exec replaced, so a command started by a
    large process would report that process's peak.  Elsewhere reads
    ``ru_maxrss``, which counts kilobytes, or bytes on macOS.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 2**10
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def cmd_precompute(args) -> int:
    mesh = load_mesh(args.mesh)
    seeds = _load_seeds(args.seeds)
    partition = assign_pixels(mesh, seeds)
    n_pix, n_el = partition.n_pixels, mesh.n_electrodes
    bounds = fem.ParameterBounds(
        args.sigma0, np.full(n_pix, args.dsigma),
        np.full(n_el, args.zeta_min), np.full(n_el, args.zeta_max),
    )

    t0 = time.perf_counter()
    sm = fem.assemble_spatial(mesh, partition, bounds)
    index_set = iso_td(n_pix + n_el, args.order)
    mm = moment_matrices(index_set)
    system = sgfem.assemble_system(sm, mm)
    t_asm = time.perf_counter() - t0

    patterns = sgfem.standard_patterns(n_el)
    t0 = time.perf_counter()
    sol = sgfem.solve(system, patterns, tol=args.tol)
    t_solve = time.perf_counter() - t0
    peak_mib = _peak_rss_mib()

    surr = surrogate.from_solution(sol, index_set, bounds, seeds)
    surr.save(args.out)
    print(f"spatial dofs: {mesh.n_nodes}, chaos basis: {len(index_set)}")
    print(f"system order: {system.order}, nonzeros: {system.nnz}")
    steps = "iteration" if sol.iterations == 1 else "iterations"
    print(
        f"assembly {t_asm:.2f} s, "
        f"solve {t_solve:.2f} s (pcg, {sol.iterations} {steps})"
    )
    print(f"max relative residual: {sol.residuals.max():.2e}")
    print(f"peak resident memory after the solve: {peak_mib:.1f} MiB")
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    mesh = load_mesh(args.mesh)
    seeds = _load_seeds(args.seeds)
    partition = assign_pixels(mesh, seeds)
    sample = _load_phantom(args.phantom)
    patterns = sgfem.standard_patterns(mesh.n_electrodes)
    noise_pct = args.noise_pct
    if noise_pct is None and args.noise_std is None:
        noise_pct = 1.0
    ms = det_cem.simulate_measurements(
        mesh,
        partition,
        sample,
        patterns,
        noise_std=args.noise_std,
        noise_pct=noise_pct,
        seed=args.seed,
        provenance=f"mesh={args.mesh}",
    )
    det_cem.save_measurements(ms, args.out)
    print(
        f"{ms.patterns.shape[0]} patterns on {mesh.n_electrodes} electrodes, "
        f"noise std {ms.noise_std:.6g}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    # the chain options are checked even when no chain runs (--samples 0)
    config = inversion.McmcConfig(
        n_samples=max(args.samples, 1),
        burn_in=args.burn_in,
        thinning=args.thin,
        seed=args.seed,
    )
    surr = surrogate.load(args.surrogate)
    ms = det_cem.load_measurements(args.data)
    posterior = inversion.build_posterior(
        surr,
        ms,
        noise_std=args.noise_std,
        noise_pct=args.noise_pct,
        corr_length=args.corr_length,
        eta_factor=args.eta_factor,
    )
    est = inversion.reconstruct(posterior, config if args.samples else None)
    inversion.save_estimates(est, args.out)
    diag = est.diagnostics
    print(
        f"MAP objective {diag['map_objective']:.6g} "
        f"after {diag['map_iterations']} residual evaluations"
    )
    jitter = "added" if diag["prior_jitter"] else "not needed"
    print(
        f"prior covariance: condition number {diag['prior_condition']:.3g}, "
        f"jitter {jitter}"
    )
    if args.samples:
        scales = ", ".join(f"{s:.3g}" for s in diag["chain_scales"])
        print(
            f"chain: {diag['n']} samples from {len(diag['chain_scales'])} chains "
            f"(proposal scales {scales}), "
            f"acceptance {diag['acceptance']:.3f}, "
            f"in support {diag['in_support']:.3f}, "
            f"split R-hat {diag['rhat_max']:.4f}"
        )
    # on standard output only: the estimates file stays deterministic
    print(f"peak resident memory: {_peak_rss_mib():.1f} MiB")
    print(f"wrote {args.out}")
    return 0


def cmd_render(args) -> int:
    est = inversion.load_estimates(args.estimates)
    mesh = load_mesh(args.mesh)
    partition = assign_pixels(mesh, _load_seeds(args.seeds))
    values = getattr(est, args.field)
    if values is None:
        raise ValueError(
            f"estimates file has no {args.field} (reconstructed without a chain?)"
        )
    svg = render_field_svg(mesh, partition, values, label=args.field)
    with open(args.out, "w") as f:
        f.write(svg)
    print(f"wrote {args.out}")
    return 0


def _add_noise_options(p) -> None:
    """The two noise settings of ``det_cem.noise_level``, which exclude each other."""
    p.add_argument("--noise-pct", type=float,
                   help="noise as percent of spread (default 1; excludes --noise-std)")
    p.add_argument("--noise-std", type=float,
                   help="noise std in mV (excludes --noise-pct)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgeit",
        description="stochastic Galerkin electrical impedance tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precompute", help="build a voltage surrogate")
    p.add_argument("--mesh", required=True, help="mesh JSON file")
    p.add_argument("--seeds", required=True, help="pixel seed JSON file")
    p.add_argument("--order", type=int, default=2, help="chaos total degree")
    p.add_argument("--sigma0", type=float, default=1.1, help="background mS")
    p.add_argument(
        "--dsigma", type=float, default=0.9, help="pixel perturbation magnitude mS"
    )
    p.add_argument(
        "--zeta-min", type=float, default=10.0, help="contact lower bound mS/cm"
    )
    p.add_argument(
        "--zeta-max", type=float, default=1000.0, help="contact upper bound mS/cm"
    )
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p.add_argument("--out", required=True, help="output surrogate file")
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("simulate", help="synthetic measurements from a phantom")
    p.add_argument("--mesh", required=True, help="mesh JSON file (data mesh)")
    p.add_argument("--seeds", required=True, help="pixel seed JSON file")
    p.add_argument(
        "--phantom", required=True, help='JSON {"sigma": [...], "zeta": [...]}'
    )
    _add_noise_options(p)
    p.add_argument("--seed", type=int, default=0, help="noise RNG seed")
    p.add_argument("--out", required=True, help="output measurement file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="MAP and posterior-sampling estimates")
    p.add_argument("--surrogate", required=True, help="surrogate file")
    p.add_argument("--data", required=True, help="measurement JSON file")
    _add_noise_options(p)
    p.add_argument(
        "--corr-length", type=float, default=5.0, help="prior correlation length cm"
    )
    p.add_argument(
        "--eta-factor",
        type=float,
        default=10.0,
        help="prior spread as multiple of the noise std",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=50_000,
        help="retained samples, split over two chains that run in parallel "
        "(0: MAP only)",
    )
    p.add_argument(
        "--burn-in",
        type=int,
        default=10_000,
        help="steps of each chain before its first sample; the proposal scale "
        "starts at 2.38/sqrt(number of parameters) in units of the Laplace "
        f"covariance at the MAP and moves only after each full window of "
        f"{inversion._ADAPT_WINDOW} of these steps (default 10000)",
    )
    p.add_argument("--thin", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="RNG seed of the chains")
    p.add_argument("--out", required=True, help="output estimates JSON")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("render", help="SVG of a per-pixel field")
    p.add_argument("--estimates", required=True, help="estimates JSON file")
    p.add_argument("--mesh", required=True, help="mesh JSON file")
    p.add_argument("--seeds", required=True, help="pixel seed JSON file")
    p.add_argument(
        "--field",
        choices=("sigma_map", "sigma_cm", "sigma_sd"),
        default="sigma_map",
    )
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
