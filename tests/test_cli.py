from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loracanvas import tensorio
from loracanvas.cli import (
    compose_main,
    gradcheck_main,
    main,
    make_toy_assets,
    make_toy_assets_main,
)
from loracanvas.errors import ArgumentError

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def asset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_assets")
    make_toy_assets(out, seed=42)
    return out


def test_make_toy_assets_emits_expected_files(tmp_path, capsys):
    rc = make_toy_assets_main(["--seed", "5", "--out", str(tmp_path / "a")])
    assert rc == 0
    names = {p.name for p in (tmp_path / "a").iterdir()}
    assert {"config.json", "gradcheck.json", "global_embed.lcb",
            "concept_a.lcb", "concept_b.lcb"} <= names
    assert "config.json" in capsys.readouterr().out


def test_make_toy_assets_deterministic(tmp_path):
    make_toy_assets(tmp_path / "one", seed=3)
    make_toy_assets(tmp_path / "two", seed=3)
    for name in ("config.json", "concept_a.lcb", "global_embed.lcb"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes())


def test_compose_seed_override_changes_output(asset_dir, tmp_path, capsys):
    config = str(asset_dir / "gradcheck.json")
    assert compose_main(["--config", config, "--out", str(tmp_path / "a")]) == 0
    assert compose_main(["--config", config, "--out", str(tmp_path / "b"),
                         "--seed", "43"]) == 0
    capsys.readouterr()
    z_a = tensorio.read_container(tmp_path / "a" / "latent.lcb")["latent"]
    z_b = tensorio.read_container(tmp_path / "b" / "latent.lcb")["latent"]
    assert not np.array_equal(z_a, z_b)


def test_compose_missing_config_errors(tmp_path, capsys):
    rc = compose_main(["--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_compose_short_box_errors(asset_dir, tmp_path, capsys):
    raw = json.loads((asset_dir / "config.json").read_text())
    raw["regions"][0]["box"] = [0.1, 0.2, 0.5]
    config = tmp_path / "short_box.json"
    config.write_text(json.dumps(raw))
    rc = compose_main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "region 0" in err
    assert not (tmp_path / "out").exists()


def test_compose_fractional_max_iters_errors(asset_dir, tmp_path, capsys):
    raw = json.loads((asset_dir / "config.json").read_text())
    raw["guidance"]["max_iters"] = 2.5
    raw["global_prompt_embed"] = str(asset_dir / raw["global_prompt_embed"])
    for region in raw["regions"]:
        region["bundle"] = str(asset_dir / region["bundle"])
    config = tmp_path / "fractional_max_iters.json"
    config.write_text(json.dumps(raw))
    rc = compose_main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_iters" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_compose_non_finite_guidance_knob_errors(asset_dir, tmp_path, capsys):
    raw = json.loads((asset_dir / "config.json").read_text())
    raw["guidance"]["phi0"] = float("nan")  # json.dumps writes the NaN literal
    raw["global_prompt_embed"] = str(asset_dir / raw["global_prompt_embed"])
    for region in raw["regions"]:
        region["bundle"] = str(asset_dir / region["bundle"])
    config = tmp_path / "nan_phi0.json"
    config.write_text(json.dumps(raw))
    rc = compose_main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "phi0 must be finite" in err
    assert not (tmp_path / "out").exists()


def test_compose_negative_seed_is_a_usage_error(asset_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        compose_main(["--config", str(asset_dir / "gradcheck.json"),
                      "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert info.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_make_toy_assets_negative_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        make_toy_assets_main(["--seed", "-1", "--out", str(tmp_path / "a")])
    assert info.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("seed", [-1, True, 1.0, "7"])
def test_make_toy_assets_rejects_a_bad_seed_before_writing(tmp_path, seed):
    with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
        make_toy_assets(tmp_path / "a", seed=seed)
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("box", [[0.5, 0.5, 0.55, 0.55], [0.0, 0.0, 1.0, 1.0]])
def test_compose_bad_layout_errors(asset_dir, tmp_path, capsys, box):
    # empty at the pooled resolution; covering the whole latent under guidance
    raw = json.loads((asset_dir / "config.json").read_text())
    raw["regions"][1]["box"] = box
    raw["global_prompt_embed"] = str(asset_dir / raw["global_prompt_embed"])
    for region in raw["regions"]:
        region["bundle"] = str(asset_dir / region["bundle"])
    config = tmp_path / "bad_box.json"
    config.write_text(json.dumps(raw))
    rc = compose_main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "region 1" in err and "concept_b" in err
    assert not (tmp_path / "out").exists()


def test_compose_corrupt_container_errors(asset_dir, tmp_path, capsys):
    # byte 14 is the first byte of the global embedding's tensor name
    raw = json.loads((asset_dir / "config.json").read_text())
    embed = bytearray((asset_dir / raw["global_prompt_embed"]).read_bytes())
    embed[14] = 0xFF
    (tmp_path / "embed.lcb").write_bytes(bytes(embed))
    raw["global_prompt_embed"] = str(tmp_path / "embed.lcb")
    for region in raw["regions"]:
        region["bundle"] = str(asset_dir / region["bundle"])
    config = tmp_path / "corrupt.json"
    config.write_text(json.dumps(raw))
    rc = compose_main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def _absolute(asset_dir, name: str) -> dict:
    """A shipped config whose asset paths no longer depend on its directory."""
    raw = json.loads((asset_dir / name).read_text())
    raw["global_prompt_embed"] = str(asset_dir / raw["global_prompt_embed"])
    for region in raw["regions"]:
        region["bundle"] = str(asset_dir / region["bundle"])
    return raw


def _trace_totals(run_dir: Path) -> list[float]:
    with open(run_dir / "trace.csv", newline="") as f:
        return [float(row["total"]) for row in csv.DictReader(f)]


def test_compose_summary_counts_guided_iterations_only(asset_dir, tmp_path, capsys):
    rc = compose_main(["--config", str(asset_dir / "gradcheck.json"),
                       "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    totals = _trace_totals(tmp_path / "out")
    assert len(totals) > 2
    # row 0 is re-init's step; every later row is one guided iteration
    assert f"re-init loss: {totals[0]:.6f}\n" in out
    assert (f"guidance loss: {totals[1]:.6f} -> {totals[-1]:.6f} "
            f"({len(totals) - 1} iterations)\n") in out


@pytest.mark.parametrize("reinit", [True, False])
def test_compose_summary_without_guidance(asset_dir, tmp_path, capsys, reinit):
    raw = _absolute(asset_dir, "gradcheck.json")
    raw["guidance"] = {"guidance_fraction": 0.0}
    raw["reinit"] = reinit
    config = tmp_path / "unguided.json"
    config.write_text(json.dumps(raw))
    assert compose_main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    totals = _trace_totals(tmp_path / "out")
    assert len(totals) == int(reinit)
    assert ("re-init loss:" in out) == reinit
    if reinit:
        assert f"re-init loss: {totals[0]:.6f}\n" in out
    assert "guidance loss: no guided iterations\n" in out


def _container_edit(key: str, edit):
    """A config edit that points ``key`` at a copy of its container changed by ``edit``."""
    def apply(raw: dict, tmp_path: Path) -> dict:
        holder = raw["regions"][0] if key == "bundle" else raw
        source = Path(holder[key])
        tensors = edit(tensorio.read_container(source))
        holder[key] = str(tmp_path / source.name)
        tensorio.write_container(holder[key], tensors)
        return raw
    return apply


def _bundle(changes: dict):
    """Region 0's bundle with each named tensor replaced by a function of its old value."""
    return _container_edit(
        "bundle", lambda t: {**t, **{name: f(t[name]) for name, f in changes.items()}})


# outside input that each check in the loaders, the config or the context rejects
MALFORMED = {
    "1-D delta factor": (
        _bundle({"cross.W_K.down": lambda a: a.reshape(-1)}), "delta factors must be matrices"),
    "delta ranks differ": (
        _bundle({"cross.W_K.down": lambda a: a[:3]}), "rank mismatch"),
    "1-D prompt_embed": (
        _bundle({"prompt_embed": lambda a: a.reshape(-1)}),
        "prompt_embed must be (tokens, d_text)"),
    "K and V widths differ": (
        _bundle({"cross.W_V.up": lambda a: a[:12]}), "deltas disagree on output dim"),
    "two-element token_index": (
        _bundle({"token_index": lambda a: np.array([1.0, 1.0])}),
        "token_index must hold one element"),
    "fractional token_index": (
        _bundle({"token_index": lambda a: np.array([1.5])}), "token_index 1.5 is not integral"),
    "concept prompts of different token counts": (
        _bundle({"prompt_embed": lambda a: np.vstack([a, a[:1]])}),
        "concept prompts must share a token count, got [2, 3]"),
    "zero steps": (
        lambda raw, tmp_path: {**raw, "steps": 0}, "steps must be positive"),
    "global embed without prompt_embed": (
        _container_edit("global_prompt_embed", lambda t: {"embedding": t["prompt_embed"]}),
        "holds no 'prompt_embed' tensor"),
    "1-D global prompt_embed": (
        _container_edit("global_prompt_embed",
                        lambda t: {"prompt_embed": t["prompt_embed"].reshape(-1)}),
        "global prompt embedding must be 2-D"),
    "negative alpha": (
        lambda raw, tmp_path: {**raw, "guidance": {**raw["guidance"], "alpha": -0.25}},
        "loss weights must be non-negative"),
    "delta width is not d_model": (
        _bundle({"cross.W_K.up": lambda a: a[:12], "cross.W_V.up": lambda a: a[:12]}),
        "delta cross.W_K targets width 12, model expects 16"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_compose_rejects_malformed_input(asset_dir, tmp_path, capsys, case):
    edit, message = MALFORMED[case]
    config = tmp_path / "malformed.json"
    config.write_text(json.dumps(edit(_absolute(asset_dir, "config.json"), tmp_path)))
    rc = compose_main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gradcheck_main_passes_on_shipped_config(asset_dir, capsys):
    rc = gradcheck_main(["--config", str(asset_dir / "gradcheck.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradcheck ok" in out


def test_gradcheck_main_fails_on_tight_threshold(asset_dir, capsys):
    rc = gradcheck_main(["--config", str(asset_dir / "gradcheck.json"),
                         "--threshold", "1e-12"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_gradcheck_main_rejects_a_non_finite_eps(asset_dir, capsys, eps):
    rc = gradcheck_main(["--config", str(asset_dir / "gradcheck.json"), f"--eps={eps}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eps must be finite and positive")
    assert "tensor literal" not in err


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1e-5"])
def test_gradcheck_main_rejects_a_threshold_that_is_not_finite_and_positive(
        asset_dir, capsys, threshold):
    with pytest.raises(SystemExit) as exc:
        gradcheck_main(["--config", str(asset_dir / "gradcheck.json"),
                        f"--threshold={threshold}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gradcheck")
    assert "--threshold must be finite and positive" in err


def test_main_dispatch(asset_dir, capsys):
    assert main([]) == 2
    assert main(["unknown"]) == 2
    assert main(["gradcheck", "--config", str(asset_dir / "gradcheck.json")]) == 0
    capsys.readouterr()


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports loracanvas from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_python_m_without_arguments_prints_usage():
    done = run_fresh("-m", "loracanvas")
    assert done.returncode == 2
    assert done.stderr.startswith("usage: loracanvas {compose,make-toy-assets,gradcheck}")


def test_importing_one_module_loads_only_its_dependencies():
    done = run_fresh("-c", "import sys, loracanvas.tensorio; "
                           "print(*sorted(m for m in sys.modules if m.startswith('loracanvas')))")
    assert done.returncode == 0, done.stderr
    # autodiff's import sets process-wide allocator options; reading a
    # container must not pull it, or any other stage, in
    assert done.stdout.split() == ["loracanvas", "loracanvas.errors", "loracanvas.tensorio"]
