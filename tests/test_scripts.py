"""Smoke runs of the sweep scripts in ``scripts/``: one trial at one SNR."""

import importlib.util
import os
import sys

import pytest

from dmasim.campaign import RECEIVERS

ROOT = os.path.dirname(os.path.dirname(__file__))


def _script(name):
    """``scripts/<name>.py`` imported without writing a cache into it."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(ROOT, "scripts", f"{name}.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = dont_write


def _header(path):
    with open(path, encoding="utf-8") as fh:
        return dict(
            field.split("=", 1) for field in fh.readline().split() if "=" in field
        )


@pytest.fixture
def argv(tmp_path):
    return ["--trials", "1", "--snr", "10", "--out", str(tmp_path)]


def test_nmse_vs_snr_writes_one_csv_per_receiver(tmp_path, argv):
    assert _script("nmse_vs_snr").main(argv) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(RECEIVERS)
    for receiver, spec in RECEIVERS.items():
        header = _header(tmp_path / receiver / "results.csv")
        assert header["receiver"] == receiver
        # The closed forms run on semi-unitary training, the others on Lorentzian.
        training = "semi-unitary-dft" if spec.closed_form else "lorentzian"
        assert header["training"] == training


def test_convergence_vs_snr_writes_its_csv(tmp_path, argv):
    assert _script("convergence_vs_snr").main(argv) == 0
    assert _header(tmp_path / "results.csv")["receiver"] == "proposed"
