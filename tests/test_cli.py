import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import sgeit
from conftest import strict_json, tamper
from sgeit import cli, det_cem, fem, inversion, sgfem, surrogate
from sgeit.chaos import iso_td, moment_matrices


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Mesh, seeds and phantom files for a small end-to-end run."""
    d = tmp_path_factory.mktemp("cli")
    mesh = sgeit.make_disk_fixture(3, 12, 4, 0.5)
    sgeit.save_mesh(mesh, d / "mesh.json")
    seeds = [[0.0, 0.0], [0.55, 0.0], [-0.55, 0.0]]
    (d / "seeds.json").write_text(json.dumps(seeds))
    phantom = {"sigma": [1.1, 0.7, 1.3], "zeta": [400.0] * 4}
    (d / "phantom.json").write_text(json.dumps(phantom))
    return d


def run(argv):
    return cli.main([str(a) for a in argv])


def mesh_and_pixels(d):
    """The mesh and pixel partition of the files of ``workdir``."""
    mesh = sgeit.load_mesh(d / "mesh.json")
    seeds = np.array(json.loads((d / "seeds.json").read_text()))
    return mesh, sgeit.assign_pixels(mesh, seeds)


def precompute_argv(d, out, order=2):
    """``sgeit precompute`` on the files of ``workdir`` at chaos degree
    ``order``."""
    return [
        "precompute", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
        "--order", order, "--sigma0", 1.1, "--dsigma", 0.6,
        "--zeta-min", 100, "--zeta-max", 1000, "--out", out,
    ]


@pytest.fixture(scope="module")
def surrogate_and_data(workdir):
    """Run precompute and simulate once into ``workdir`` (surr.bin and
    data.json); returns each command's exit code and standard output."""
    d = workdir
    argvs = {
        "precompute": precompute_argv(d, d / "surr.bin"),
        "simulate": [
            "simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
            "--phantom", d / "phantom.json", "--seed", 11, "--out", d / "data.json",
        ],
    }
    results = {}
    for name, argv in argvs.items():
        out = io.StringIO()
        with redirect_stdout(out):
            rc = run(argv)
        results[name] = (rc, out.getvalue())
    return results


def test_precompute_reports_its_peak_memory(surrogate_and_data):
    rc, out = surrogate_and_data["precompute"]
    assert rc == 0
    lines = out.splitlines()
    residual = next(
        i for i, line in enumerate(lines) if "max relative residual" in line
    )
    peak = re.fullmatch(
        r"peak resident memory after the solve: (\d+\.\d) MiB", lines[residual + 1]
    )
    assert peak is not None, lines
    assert float(peak.group(1)) > 0.0


def test_precompute_never_forms_K(
    workdir, surrogate_and_data, monkeypatch, tmp_path
):
    # SgfemSystem.K joins the whole Galerkin matrix for tests and tracing;
    # assembly, the solve and its report work from B_0 and K_kj
    def refuse(system):
        raise AssertionError("the whole Galerkin matrix K was formed")

    monkeypatch.setattr(sgfem.SgfemSystem, "K", property(refuse))
    out = tmp_path / "surr.bin"
    with redirect_stdout(io.StringIO()):
        assert run(precompute_argv(workdir, out)) == 0
    assert out.read_bytes() == (workdir / "surr.bin").read_bytes()
    mesh, part = mesh_and_pixels(workdir)
    bounds = fem.ParameterBounds(
        1.1, np.full(3, 0.6), np.full(4, 100.0), np.full(4, 1000.0)
    )
    spatial = fem.assemble_spatial(mesh, part, bounds)
    system = sgfem.assemble_system(spatial, moment_matrices(iso_td(7, 2)))
    beta = sgfem.solve(system, sgfem.standard_patterns(4)).beta
    assert beta.shape == (3, 3, system.n_chaos)
    assert np.isfinite(beta).all()


def test_precompute_at_order_zero_with_an_empty_kept_class(workdir, tmp_path):
    # Q=0 has no odd chaos index, so the kept class and K_kj have no rows;
    # the surrogate is then the deterministic model at the box centre
    out = tmp_path / "surr.bin"
    with redirect_stdout(io.StringIO()):
        assert run(precompute_argv(workdir, out, order=0)) == 0
    surr = surrogate.load(out)
    surr.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == out.read_bytes()
    mesh, part = mesh_and_pixels(workdir)
    y = np.zeros(surr.n_params)
    exact = det_cem.solve_deterministic(
        mesh, part, det_cem.params_from_y(y, surr.bounds), surr.patterns
    ).voltages.ravel()
    got = surr.eval_stacked(y)
    assert np.abs(got - exact).max() <= 1e-9 * np.abs(exact).max()


def test_pipeline_end_to_end(workdir, surrogate_and_data, capsys):
    d = workdir
    rc, out = surrogate_and_data["precompute"]
    assert rc == 0
    assert "chaos basis: 36" in out
    assert "(pcg" in out

    rc, out = surrogate_and_data["simulate"]
    assert rc == 0
    assert "3 patterns on 4 electrodes" in out

    # these chains are deliberately too short to show mixing, which warns
    with pytest.warns(UserWarning, match="split R-hat"):
        rc = run(
            ["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
             "--noise-pct", 5, "--corr-length", 0.5,
             "--samples", 400, "--burn-in", 200, "--thin", 2,
             "--out", d / "est.json"]
        )
    out = capsys.readouterr().out
    assert rc == 0
    assert "MAP objective" in out and "chain: 400 samples" in out
    # the peak goes to standard output only, never into the estimates
    peak = re.search(r"^peak resident memory: (\d+\.\d) MiB$", out, re.M)
    assert peak is not None, out
    assert float(peak.group(1)) > 0.0
    assert "resident" not in (d / "est.json").read_text()

    est = inversion.load_estimates(d / "est.json")
    assert est.diagnostics["map_converged"]
    condition = est.diagnostics["prior_condition"]
    assert not est.diagnostics["prior_jitter"]
    line = f"prior covariance: condition number {condition:.3g}, jitter not needed"
    assert line in out
    assert f"in support {est.diagnostics['in_support']:.3f}" in out
    scales = ", ".join(f"{s:.3g}" for s in est.diagnostics["chain_scales"])
    assert f"from 2 chains (proposal scales {scales})," in out
    assert "proposal_scale" not in est.diagnostics
    assert est.sigma_cm is not None
    # the phantom's low-contrast pixel should come out lowest
    assert est.sigma_map.argmin() == 1

    rc = run(
        ["render", "--estimates", d / "est.json", "--mesh", d / "mesh.json",
         "--seeds", d / "seeds.json", "--field", "sigma_map",
         "--out", d / "field.svg"]
    )
    assert rc == 0
    svg = (d / "field.svg").read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<path") == 3
    assert "sigma_map" in svg
    lo, hi = est.sigma_map.min(), est.sigma_map.max()
    assert f"{hi:.6g}</text>" in svg and f"{lo:.6g}</text>" in svg


def test_reconstruct_prints_the_chains_and_their_split_rhat(
    workdir, surrogate_and_data, capsys
):
    d = workdir
    rc = run(
        ["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
         "--noise-pct", 5, "--corr-length", 0.5,
         "--samples", 4000, "--burn-in", 500, "--thin", 2,
         "--out", d / "est-rhat.json"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    est = inversion.load_estimates(d / "est-rhat.json")
    assert "chain: 4000 samples from 2 chains (proposal scales " in out
    assert f"split R-hat {est.diagnostics['rhat_max']:.4f}\n" in out


def test_reconstruct_with_one_sample_writes_strict_json(
    workdir, surrogate_and_data, capsys
):
    # one sample cannot be split into halves, so its R-hat is infinite
    d = workdir
    with pytest.warns(UserWarning, match="split R-hat inf"):
        rc = run(
            ["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
             "--samples", 1, "--out", d / "est-one.json"]
        )
    capsys.readouterr()
    assert rc == 0
    raw = strict_json((d / "est-one.json").read_text())
    assert raw["diagnostics"]["rhat_max"] == "inf"
    est = inversion.load_estimates(d / "est-one.json")
    assert est.diagnostics["rhat_max"] == math.inf


def test_simulate_default_noise_is_one_percent(workdir, capsys):
    d = workdir
    run(["simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
         "--phantom", d / "phantom.json", "--out", d / "m1.json"])
    capsys.readouterr()
    from sgeit import det_cem, sgfem

    mesh = sgeit.load_mesh(d / "mesh.json")
    part = sgeit.assign_pixels(mesh, np.array(json.loads((d / "seeds.json").read_text())))
    sample = det_cem.DeterministicSample(np.array([1.1, 0.7, 1.3]), np.full(4, 400.0))
    clean = det_cem.solve_deterministic(
        mesh, part, sample, sgfem.standard_patterns(4)
    ).voltages
    ms = det_cem.load_measurements(d / "m1.json")
    assert ms.noise_std == pytest.approx(0.01 * (clean.max() - clean.min()))
    assert ms.provenance.startswith("mesh=")


def test_reruns_are_byte_identical(workdir, surrogate_and_data, capsys):
    d = workdir
    for tag in ("a", "b"):
        run(["simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
             "--phantom", d / "phantom.json", "--seed", 4,
             "--out", d / f"rep_{tag}.json"])
        with pytest.warns(UserWarning, match="split R-hat"):
            run(["reconstruct", "--surrogate", d / "surr.bin",
                 "--data", d / f"rep_{tag}.json", "--noise-pct", 5,
                 "--corr-length", 0.5, "--samples", 300, "--burn-in", 100,
                 "--thin", 1, "--seed", 9, "--out", d / f"est_{tag}.json"])
        run(["render", "--estimates", d / f"est_{tag}.json",
             "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
             "--out", d / f"f_{tag}.svg"])
    capsys.readouterr()
    for name in ("rep", "est"):
        a = (d / f"{name}_a.json").read_bytes()
        assert a == (d / f"{name}_b.json").read_bytes()
    assert (d / "f_a.svg").read_bytes() == (d / "f_b.svg").read_bytes()


def test_exit_code_2_on_bad_inputs(workdir, surrogate_and_data, capsys, tmp_path):
    d = workdir
    rc = run(["simulate", "--mesh", d / "missing.json", "--seeds", d / "seeds.json",
              "--phantom", d / "phantom.json", "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc = run(["simulate", "--mesh", d / "mesh.json", "--seeds", bad,
              "--phantom", d / "phantom.json", "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err

    # a file that is not UTF-8 is not valid JSON either, and is named
    bad.write_bytes(b"\xff\xfe{}")
    sim = ["simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
           "--phantom", d / "phantom.json", "--out", tmp_path / "x.json"]
    rec = ["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
           "--samples", 0, "--out", tmp_path / "e.json"]
    ren = ["render", "--estimates", d / "est.json", "--mesh", d / "mesh.json",
           "--seeds", d / "seeds.json", "--out", tmp_path / "f.svg"]
    for argv, flag in [(sim, "--mesh"), (sim, "--seeds"), (sim, "--phantom"),
                       (rec, "--data"), (ren, "--estimates")]:
        argv = list(argv)
        argv[argv.index(flag) + 1] = bad
        assert run(argv) == 2
        assert f"error: {bad}: not valid JSON" in capsys.readouterr().err

    # phantom with the wrong electrode count
    bad.write_text(json.dumps({"sigma": [1.0, 1.0, 1.0], "zeta": [400.0] * 3}))
    rc = run(["simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
              "--phantom", bad, "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "wrong number of contact" in capsys.readouterr().err

    # phantom with a scalar where a list belongs
    bad.write_text(json.dumps({"sigma": 1.0, "zeta": [400.0] * 4}))
    rc = run(["simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
              "--phantom", bad, "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "sigma and zeta must be lists of numbers" in capsys.readouterr().err

    # data simulated with fewer electrodes than the surrogate expects
    mesh3 = sgeit.make_disk_fixture(2, 12, 3, 0.5)
    sgeit.save_mesh(mesh3, tmp_path / "mesh3.json")
    (tmp_path / "ph3.json").write_text(
        json.dumps({"sigma": [1.0, 1.0, 1.0], "zeta": [400.0] * 3})
    )
    run(["simulate", "--mesh", tmp_path / "mesh3.json", "--seeds", d / "seeds.json",
         "--phantom", tmp_path / "ph3.json", "--out", tmp_path / "d3.json"])
    capsys.readouterr()
    rc = run(["reconstruct", "--surrogate", d / "surr.bin",
              "--data", tmp_path / "d3.json", "--samples", 0,
              "--out", tmp_path / "e3.json"])
    assert rc == 2
    assert "patterns of data and surrogate differ" in capsys.readouterr().err


# a JSON object, a list holding one, an integer too large for a float
@pytest.mark.parametrize(
    "text",
    ['{"a": 1}', '[[0.0, 0.0], {"x": 1}]', "[[1" + "0" * 400 + ", 0.0]]"],
    ids=["object", "list-with-object", "huge-integer"],
)
def test_seeds_file_of_the_wrong_kind_exits_2(workdir, capsys, tmp_path, text):
    d = workdir
    seeds = tmp_path / "seeds.json"
    seeds.write_text(text)
    rc = run(["precompute", "--mesh", d / "mesh.json", "--seeds", seeds,
              "--out", tmp_path / "s.bin"])
    assert rc == 2
    assert f"{seeds}: malformed seeds file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("mesh", "nodes", np.nan),
        ("seeds", "seeds", np.nan),
        ("phantom", "sigma", np.inf),
        ("phantom", "zeta", np.nan),
        ("data", "patterns", np.nan),
        ("data", "voltages", np.nan),
        ("data", "noise_std", np.inf),
        ("estimates", "sigma_map", np.nan),
    ],
)
def test_non_finite_inputs_exit_2_and_name_the_field(
    workdir, surrogate_and_data, capsys, tmp_path, kind, field, value
):
    d = workdir
    files = {k: d / f"{k}.json" for k in ("mesh", "seeds", "phantom")}
    files["data"] = tmp_path / "data.json"
    run(["simulate", "--mesh", files["mesh"], "--seeds", files["seeds"],
         "--phantom", files["phantom"], "--out", files["data"]])
    if kind == "estimates":
        files["estimates"] = tmp_path / "est.json"
        run(["reconstruct", "--surrogate", d / "surr.bin", "--data", files["data"],
             "--samples", 0, "--out", files["estimates"]])
    doc = json.loads(files[kind].read_text())
    arr = np.asarray(doc if kind == "seeds" else doc[field], dtype=np.float64)
    arr.flat[-1] = value
    if kind == "seeds":
        doc = arr.tolist()
    else:
        doc[field] = arr.tolist()
    files[kind] = tmp_path / "bad.json"
    files[kind].write_text(json.dumps(doc))
    capsys.readouterr()
    if kind == "data":
        rc = run(["reconstruct", "--surrogate", d / "surr.bin", "--data",
                  files["data"], "--samples", 0, "--out", tmp_path / "e.json"])
    elif kind == "estimates":
        rc = run(["render", "--estimates", files["estimates"], "--mesh",
                  files["mesh"], "--seeds", files["seeds"], "--field", field,
                  "--out", tmp_path / "x.svg"])
    else:
        rc = run(["simulate", "--mesh", files["mesh"], "--seeds", files["seeds"],
                  "--phantom", files["phantom"], "--out", tmp_path / "x.json"])
    assert rc == 2
    assert f"non-finite value in {field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, field",
    [
        ("--sigma0", "nan", "sigma0"),
        ("--dsigma", "nan", "sigma"),
        ("--zeta-min", "nan", "a"),
        ("--zeta-max", "inf", "b"),
    ],
)
def test_non_finite_box_exits_2_before_any_solve(
    workdir, capsys, tmp_path, option, value, field
):
    d = workdir
    out = tmp_path / "s.bin"
    rc = run(["precompute", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
              option, value, "--out", out])
    assert rc == 2
    assert f"error: non-finite value in {field}" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_rejects_an_inconsistent_box_before_the_map(
    workdir, surrogate_and_data, capsys, tmp_path, monkeypatch
):
    d = workdir
    bad = tmp_path / "bad.bin"

    def a_above_b(h):
        h["a"][1] = 2 * h["b"][1]

    tamper(d / "surr.bin", bad, header_edit=a_above_b)

    def no_map(*args, **kwargs):
        raise AssertionError("MAP started on an invalid surrogate")

    monkeypatch.setattr(inversion, "map_estimate", no_map)
    rc = run(["reconstruct", "--surrogate", bad, "--data", d / "data.json",
              "--samples", 0, "--out", tmp_path / "e.json"])
    assert rc == 2
    assert (f"error: {bad}: electrode 2: invalid contact bounds"
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--noise-std", "inf", "noise_std must be nonnegative and finite"),
        ("--noise-std", "nan", "noise_std must be nonnegative and finite"),
        ("--noise-pct", "nan", "noise_pct must be nonnegative and finite"),
        ("--noise-std", "0", "noise level from noise_std must be positive"),
        ("--noise-pct", "0", "noise level from noise_pct 0 must be positive"),
        ("--thin", "0", "thinning must be at least 1, got 0"),
        ("--burn-in", "-5", "burn_in must be at least 0, got -5"),
        ("--corr-length", "nan", "correlation length must be positive"),
        ("--eta-factor", "nan", "eta_factor must be positive and finite"),
        ("--eta-factor", "-1", "eta_factor must be positive and finite"),
        ("--samples", "-1", "--samples must be nonnegative"),
    ],
)
def test_non_finite_reconstruct_options_exit_2(
    workdir, surrogate_and_data, capsys, tmp_path, option, value, named
):
    d = workdir
    out = tmp_path / "e.json"
    rc = run(["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
              "--samples", 50, "--burn-in", 10, option, value, "--out", out])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--thin", "0", "thinning must be at least 1, got 0"),
        ("--burn-in", "-5", "burn_in must be at least 0, got -5"),
        ("--seed", "-2", "seed must be nonnegative, got -2"),
    ],
)
def test_chain_options_are_checked_without_a_chain(
    workdir, surrogate_and_data, capsys, tmp_path, option, value, named
):
    # --samples 0 runs the MAP only, but a bad chain option is still refused
    d = workdir
    out = tmp_path / "e.json"
    rc = run(["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
              "--samples", 0, option, value, "--out", out])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_has_no_proposal_scale_option(
    workdir, surrogate_and_data, capsys, tmp_path
):
    # the chain sets its proposal scale itself, from its burn-in
    d = workdir
    out = tmp_path / "e.json"
    with pytest.raises(SystemExit) as exit_:
        run(["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
             "--proposal-std", 1, "--out", out])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --proposal-std 1" in capsys.readouterr().err
    assert not out.exists()


# a MAP-only reconstruct in a fresh interpreter: it checks the chain
# settings, seed included, but draws nothing, so numpy.random stays unloaded
MAP_ONLY_PROBE = """
import sys
from sgeit import cli
assert cli.main(["reconstruct", "--surrogate", sys.argv[1], "--data", sys.argv[2],
                 "--samples", "0", "--seed", "3", "--out", sys.argv[3]]) == 0
assert "numpy.random" not in sys.modules
"""


def test_map_only_reconstruct_does_not_load_numpy_random(
    workdir, surrogate_and_data, tmp_path
):
    d = workdir
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MAP_ONLY_PROBE, str(d / "surr.bin"),
         str(d / "data.json"), str(tmp_path / "e.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert inversion.load_estimates(tmp_path / "e.json").sigma_cm is None


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_both_noise_settings_exit_2(workdir, surrogate_and_data, capsys, tmp_path,
                                    command):
    d = workdir
    out = tmp_path / "out.json"
    inputs = {
        "simulate": ["--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
                     "--phantom", d / "phantom.json"],
        "reconstruct": ["--surrogate", d / "surr.bin", "--data", d / "data.json",
                        "--samples", 0],
    }[command]
    rc = run([command, *inputs, "--noise-std", 0.01, "--noise-pct", 5,
              "--out", out])
    assert rc == 2
    assert ("error: give either noise_std or noise_pct, not both"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, named",
    [("--noise-pct", "nan", "noise_pct"), ("--noise-pct", "inf", "noise_pct"),
     ("--noise-std", "inf", "noise_std"), ("--noise-std", "nan", "noise_std")],
)
def test_non_finite_simulate_noise_exits_2(
    workdir, capsys, tmp_path, option, value, named
):
    d = workdir
    out = tmp_path / "m.json"
    rc = run(["simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
              "--phantom", d / "phantom.json", option, value, "--out", out])
    assert rc == 2
    assert f"{named} must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_negative_seed_exits_2_before_any_solve(
    workdir, surrogate_and_data, capsys, tmp_path, monkeypatch, command
):
    # numpy refuses a negative seed without naming it, and in reconstruct
    # only once the chain starts, after the whole MAP search
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started with a negative seed")

    monkeypatch.setattr(det_cem, "solve_deterministic", no_solve)
    monkeypatch.setattr(inversion, "map_estimate", no_solve)
    d = workdir
    out = tmp_path / "out.json"
    if command == "simulate":
        argv = ["simulate", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
                "--phantom", d / "phantom.json"]
    else:
        argv = ["reconstruct", "--surrogate", d / "surr.bin", "--data",
                d / "data.json", "--samples", 50, "--burn-in", 10]
    rc = run(argv + ["--seed", -1, "--out", out])
    assert rc == 2
    assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_3_on_numerical_failure(workdir, capsys, tmp_path):
    d = workdir
    rc = run(
        ["precompute", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
         "--tol", 1e-30, "--out", tmp_path / "s.bin"]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_factorization_failure_exits_3_and_bad_seeds_exit_2(
    workdir, surrogate_and_data, capsys, tmp_path, monkeypatch
):
    # numpy's LinAlgError subclasses ValueError, the input-error class
    d = workdir
    out = tmp_path / "e.json"
    argv = ["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
            "--samples", 50, "--burn-in", 10, "--out", out]

    def not_positive_definite(*args):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(inversion, "laplace_proposal", not_positive_definite)
    assert run(argv) == 3
    assert ("numerical failure: Matrix is not positive definite"
            in capsys.readouterr().err)
    assert not out.exists()
    # a prior covariance that no jitter makes positive definite is reported
    # as an input error, with the seeds named
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (-np.ones(len(a)), np.eye(len(a))))
    assert run(argv) == 2
    assert ("error: prior covariance not positive definite even with jitter; "
            "check for duplicate pixel seeds" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("noise", [[], ["--noise-pct", 5]], ids=["default", "5pct"])
def test_reconstruct_on_tank22_at_the_default_corr_length(tank22, tmp_path, capsys, noise):
    # the pixel block C_PP of the Laplace covariance, once formed, can fail
    # to be positive definite in floating point (on these files at
    # corr_length 1.5 and 1 %); the proposal factor must not need it
    d = tank22
    out = tmp_path / "est.json"
    with warnings.catch_warnings():
        # chains this short are not shown to mix, which warns by design
        warnings.filterwarnings("ignore", "split R-hat", UserWarning)
        rc = run(["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
                  *noise, "--samples", 400, "--burn-in", 200, "--thin", 2,
                  "--out", out])
    assert rc == 0, capsys.readouterr().err
    est = inversion.load_estimates(out)
    assert est.sigma_cm.shape == (22,) and np.isfinite(est.sigma_sd).all()


def test_render_refuses_missing_field(workdir, surrogate_and_data, capsys, tmp_path):
    d = workdir
    run(["reconstruct", "--surrogate", d / "surr.bin", "--data", d / "data.json",
         "--noise-pct", 5, "--samples", 0, "--out", tmp_path / "map_only.json"])
    capsys.readouterr()
    rc = run(["render", "--estimates", tmp_path / "map_only.json",
              "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
              "--field", "sigma_cm", "--out", tmp_path / "x.svg"])
    assert rc == 2
    assert "reconstructed without a chain" in capsys.readouterr().err


def test_render_constant_field_single_color(workdir, tmp_path, capsys):
    d = workdir
    est = inversion.Estimates(
        np.zeros(7), np.full(3, 1.1), np.full(4, 400.0), {},
    )
    inversion.save_estimates(est, tmp_path / "flat.json")
    rc = run(["render", "--estimates", tmp_path / "flat.json",
              "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
              "--out", tmp_path / "flat.svg"])
    capsys.readouterr()
    assert rc == 0
    svg = (tmp_path / "flat.svg").read_text()
    fills = {line.split('fill="')[1][:7] for line in svg.splitlines()
             if line.startswith("<path")}
    assert len(fills) == 1


# flags of the demo scripts, which README gives beside those of sgeit
DEMO_FLAGS = {"--rings", "--sectors", "--paper"}


def test_readme_gives_only_options_of_the_sgeit_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    # inline code spans and fenced blocks alike
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    flags = {f for span in code for f in re.findall(r"(?<![\w-])--[a-z][\w-]*", span)}
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for sub in commands.choices.values() for o in sub._option_string_actions}
    assert {"--samples", "--burn-in", "--noise-pct"} <= flags
    assert flags - DEMO_FLAGS <= options, sorted(flags - DEMO_FLAGS - options)


def test_console_entry_point(workdir, tmp_path):
    d = workdir
    # pytest's pythonpath setting does not reach a child interpreter
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sgeit.cli", "simulate",
         "--mesh", str(d / "mesh.json"), "--seeds", str(d / "seeds.json"),
         "--phantom", str(d / "phantom.json"), "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout


# what bench/run.py wraps for ``--trace 1`` and what the accuracy check
# of bench/ops.py and the trace notes read of the library
BENCH_PROBE = """
import run, spans
from sgeit import det_cem, sgfem, surrogate
tracer = spans.Tracer()
run.install_spans(tracer)
tracer.restore()
for owner, names in (
    (surrogate.SgfemSurrogate, ("sigma0", "sigma", "a", "b")),
    (det_cem, ("ParameterBounds", "params_from_y", "solve_deterministic")),
    (sgfem, ("standard_patterns",)),
    (sgfem.SgfemSystem, ("K", "order")),
):
    missing = [name for name in names if not hasattr(owner, name)]
    assert not missing, f"{owner.__name__} lacks {missing}"
"""


def test_the_benchmark_finds_the_library_names_it_reads(tmp_path):
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [bench, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_PROBE],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


# a fresh interpreter that imports ``ops`` as bench/fresh_op.py does, which
# loads every sgeit module but not multiprocessing, builds the chaos index
# set and coupling table of the tank, then runs reconstruct, render,
# precompute and simulate; precompute runs on SciPy's compiled sparse
# kernels and simulate on its compiled SuperLU, and neither loads a SciPy
# package module; simulate writes the bytes of the in-process run
NUMPY_ONLY_PROBE = """
import pathlib, sys, warnings
from env import pin_blas_threads
pin_blas_threads()
import ops
assert "multiprocessing" not in sys.modules
from sgeit import cli
from sgeit.chaos import iso_td, moment_matrices

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

d, out = map(pathlib.Path, sys.argv[1:])
modules = {"sgeit." + p.stem for p in (ops.SRC / "sgeit").glob("[!_]*.py")}
assert modules <= sys.modules.keys(), modules - sys.modules.keys()
assert not scipy_modules(), scipy_modules()
assert len(moment_matrices(iso_td(20, 2)).coeff) == 840
assert not scipy_modules(), scipy_modules()
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    assert cli.main([
        "reconstruct", "--surrogate", str(d / "surr.bin"),
        "--data", str(d / "data.json"), "--noise-pct", "5",
        "--corr-length", "0.5", "--samples", "400", "--burn-in", "200",
        "--thin", "2", "--out", str(out / "est.json"),
    ]) == 0
assert any("split R-hat" in str(w.message) for w in caught), caught
assert cli.main([
    "render", "--estimates", str(out / "est.json"), "--mesh", str(d / "mesh.json"),
    "--seeds", str(d / "seeds.json"), "--out", str(out / "field.svg"),
]) == 0
assert not scipy_modules(), scipy_modules()
assert cli.main([
    "precompute", "--mesh", str(d / "mesh.json"), "--seeds", str(d / "seeds.json"),
    "--out", str(out / "surr.bin"),
]) == 0
assert not scipy_modules(), scipy_modules()
assert cli.main([
    "simulate", "--mesh", str(d / "mesh.json"), "--seeds", str(d / "seeds.json"),
    "--phantom", str(d / "phantom.json"), "--seed", "11", "--out", str(out / "data.json"),
]) == 0
assert not scipy_modules(), scipy_modules()
assert (out / "data.json").read_bytes() == (d / "data.json").read_bytes()
"""


def test_reconstruct_and_render_run_without_scipy(
    workdir, surrogate_and_data, tmp_path
):
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [bench, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_PROBE, str(workdir), str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs VmHWM from /proc"
)
def test_precompute_peak_memory_is_its_own(workdir, tmp_path):
    # started by a process with 160 MiB resident, precompute on the small
    # mesh must report its own peak, not its launcher's; Linux keeps the
    # launcher's peak in ru_maxrss across exec
    d = workdir
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    ballast = np.ones(160 * 2**20 // 8)
    proc = subprocess.run(
        [sys.executable, "-m", "sgeit.cli", "precompute",
         "--mesh", str(d / "mesh.json"), "--seeds", str(d / "seeds.json"),
         "--out", str(tmp_path / "surr.bin")],
        capture_output=True, text=True, env=env,
    )
    del ballast
    assert proc.returncode == 0
    peak = re.search(
        r"peak resident memory after the solve: (\d+\.\d) MiB", proc.stdout
    )
    assert peak is not None, proc.stdout
    assert 0.0 < float(peak.group(1)) < 150.0
