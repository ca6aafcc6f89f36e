import json
import os
import subprocess
import sys

import pytest

import dmasim
from dmasim.cli import EXIT_CONFIG, EXIT_IO, main


TINY = """
K = 4
T = 6
P = 8
N = 4
D = 2
L = 2
snr_grid_db = 0, 20
trials = 3
receiver = proposed
training = lorentzian
seed = 3
timing = false
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def test_run_writes_artifacts_and_reports(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(tiny_config), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "results.csv").is_file()
    assert (out / "summary.json").is_file()
    assert "snr=0 dB" in captured.out
    assert "snr=20 dB" in captured.out
    assert "wrote" in captured.out


def test_run_seed_override_changes_the_results(tiny_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["run", str(tiny_config), "--out", str(out_a)]) == 0
    assert main(["run", str(tiny_config), "--out", str(out_b), "--seed", "3"]) == 0
    assert main(["run", str(tiny_config), "--out", str(out_c), "--seed", "4"]) == 0
    csv_a = (out_a / "results.csv").read_text(encoding="utf-8")
    csv_b = (out_b / "results.csv").read_text(encoding="utf-8")
    csv_c = (out_c / "results.csv").read_text(encoding="utf-8")
    assert csv_a == csv_b  # explicit --seed equal to the file's seed
    assert csv_a != csv_c


def test_run_noiseless_flag(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(tiny_config), "--out", str(out), "--noiseless"])
    capsys.readouterr()
    assert code == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # meta + header + one noise-free row
    assert lines[2].startswith("inf,")


@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_every_command_describes_the_noiseless_flag(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "single noise-free point" in capsys.readouterr().out


def test_validate_reports_identifiability(tmp_path, capsys):
    path = tmp_path / "ref.cfg"
    path.write_text("trials = 10\n", encoding="utf-8")  # reference geometry
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["config_ok"] is True
    assert report["kruskal_ok"] is False
    assert report["relaxed_ok"] is True
    assert report["p_ge_n"] is True
    assert report["kruskal_bound"] == "25 >= 34"
    assert report["relaxed_bound"] == "1260 >= 120"
    assert any("relaxed" in w for w in report["warnings"])


def test_validate_prints_strict_json(tiny_config, capsys):
    # JSON has no Infinity token: the noise-free point must read null.
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    code = main(["validate", str(tiny_config), "--noiseless"])
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0
    assert report["snr_grid_db"] == [None]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "key, line, flags, rows",
    [("snr_grid_db", "snr_grid_db =", ["--noiseless"], 1),
     ("seed", "seed = -1", ["--seed", "3"], 2)],
    ids=["noiseless", "seed"],
)
def test_overrides_apply_before_the_config_is_checked(
    command, key, line, flags, rows, tmp_path, capsys
):
    # The file alone is invalid (an empty grid for a noisy campaign, a
    # negative seed); the flag makes it valid, as the same key in the file would.
    text = "\n".join(
        line if raw.startswith(f"{key} =") else raw for raw in TINY.splitlines()
    )
    path = tmp_path / "override.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    outs = ["--out", str(out)] if command == "run" else []
    code = main([command, str(path), *flags, *outs])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if command == "run":
        csv = (out / "results.csv").read_text(encoding="utf-8")
        assert len(csv.splitlines()) == 2 + rows  # meta + header + rows
    else:
        assert json.loads(captured.out)["config_ok"] is True


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_run_rejects_snr_beyond_the_float_range(tmp_path, capsys, snr):
    # 10 ** (snr / 10) in add_noise overflows (or divides by zero) past
    # these points, so every trial would raise.
    path = tmp_path / "loud.cfg"
    path.write_text(TINY.replace("snr_grid_db = 0, 20", f"snr_grid_db = 0, {snr}"),
                    encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert "3000 dB" in err["detail"]
    assert not out.exists()


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("trials = 0\n", encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert "trials" in err["detail"]


def test_run_rejects_dft_training_shorter_than_n(tmp_path, capsys):
    path = tmp_path / "short.cfg"
    path.write_text(
        TINY.replace("P = 8", "P = 2").replace(
            "training = lorentzian", "training = semi-unitary-dft"
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert "P >= N" in err["detail"]
    assert not out.exists()


def test_run_rejects_underflowing_physical_model_for_closed_forms(tmp_path, capsys):
    path = tmp_path / "underflow.cfg"
    path.write_text(
        TINY.replace("training = lorentzian", "training = semi-unitary-dft")
        .replace("receiver = proposed", "receiver = bench-data-aided")
        + "inner_model = physical\nalpha = 400\nspacing = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert "underflows" in err["detail"]
    assert not out.exists()


def test_unparseable_config_fails_with_config_code(tmp_path, capsys):
    path = tmp_path / "junk.cfg"
    path.write_text("what even is this\n", encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    capsys.readouterr()


def test_missing_config_fails_with_io_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "io"


def test_sweep_runs_the_declared_grid(tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        TINY.replace("training = lorentzian", "training = semi-unitary-dft")
        + "sweep_receiver = proposed, bench-data-aided\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweeps"
    code = main(["sweep", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "receiver=proposed" / "results.csv").is_file()
    assert (out / "receiver=bench-data-aided" / "results.csv").is_file()
    assert "swept 2 configurations" in captured.out


def test_sweep_without_sweep_keys_is_a_config_error(tiny_config, tmp_path, capsys):
    assert main(["sweep", str(tiny_config), "--out", str(tmp_path)]) == EXIT_CONFIG
    capsys.readouterr()


def test_sweep_with_an_empty_sweep_list_is_a_config_error(tiny_config, tmp_path, capsys):
    with open(tiny_config, "a", encoding="utf-8") as fh:
        fh.write("sweep_K =\n")
    out = tmp_path / "sweeps"
    assert main(["sweep", str(tiny_config), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "config"
    assert "swept" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_an_invalid_sweep_point_fails_before_any_campaign(command, tmp_path, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        TINY.replace("training = lorentzian", "training = semi-unitary-dft")
        + "sweep_P = 8, 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweeps"
    argv = [command, str(path)] + (["--out", str(out)] if command == "sweep" else [])
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert "P >= N" in err["detail"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_sweep_point_warnings_are_reported_with_their_tag(command, tmp_path, capsys):
    # The base point (P = 8) warns only of the k-rank bound; the P = 2 point
    # is valid but every trial at it fails, which only its own warning says.
    path = tmp_path / "sweep.cfg"
    path.write_text(TINY + "sweep_P = 8, 2\n", encoding="utf-8")
    out = tmp_path / "sweeps"
    argv = [command, str(path)] + (["--out", str(out)] if command == "sweep" else [])
    assert main(argv) == 0
    captured = capsys.readouterr()
    expected = "P=2: P=2 < N=4: training cannot reach full column rank"
    if command == "validate":
        warnings = json.loads(captured.out)["warnings"]
        assert sum(w.startswith(expected) for w in warnings) == 1
        assert not any(w.startswith("P=8:") for w in warnings)
    else:
        assert f"warning: {expected}" in captured.err
        assert "P=8:" not in captured.err
        assert "swept 2 configurations" in captured.out


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_config_is_a_config_error(command, tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(TINY.encode("utf-8") + "# d\u00e9j\u00e0 vu\n".encode("latin-1"))
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    detail = json.loads(err)
    assert detail["error"] == "config"
    assert "UTF-8" in detail["detail"]
    assert not out.exists()


def test_import_leaves_scipy_unloaded():
    # Importing scipy.linalg costs 0.28-0.35 s on top of numpy on a 2-vCPU
    # machine, more than a whole campaign set-up (about 0.2 s there), so the
    # package keeps to numpy.linalg.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmasim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = "import sys, dmasim, dmasim.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"
