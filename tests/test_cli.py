import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import sgeit
from conftest import tamper
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
    # assembly, the solve, its report and alpha work from B_0 and K_kj
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
    alpha = sgfem.solve(system, sgfem.standard_patterns(4)).alpha
    assert alpha.shape == (3, mesh.n_nodes, system.n_chaos)
    assert np.isfinite(alpha).all()


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

    est = inversion.load_estimates(d / "est.json")
    assert est.diagnostics["map_converged"]
    condition = est.diagnostics["prior_condition"]
    assert not est.diagnostics["prior_jitter"]
    line = f"prior covariance: condition number {condition:.3g}, jitter not needed"
    assert line in out
    assert f"in support {est.diagnostics['in_support']:.3f}" in out
    assert f"proposal scale {est.diagnostics['proposal_scale']:.3g}," in out
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
    assert "chain: 4000 samples from 2 chains," in out
    assert f"split R-hat {est.diagnostics['rhat_max']:.4f}," in out


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
        ("--proposal-std", "nan", "proposal_std must be positive and finite"),
        ("--noise-std", "inf", "noise standard deviation must be positive"),
        ("--noise-std", "nan", "noise standard deviation must be positive"),
        ("--noise-pct", "nan", "(rule percent:nan)"),
        ("--corr-length", "nan", "correlation length must be positive"),
        ("--eta-factor", "nan", "eta must be positive and finite"),
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


def test_exit_code_3_on_numerical_failure(workdir, capsys, tmp_path):
    d = workdir
    rc = run(
        ["precompute", "--mesh", d / "mesh.json", "--seeds", d / "seeds.json",
         "--tol", 1e-30, "--out", tmp_path / "s.bin"]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


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
