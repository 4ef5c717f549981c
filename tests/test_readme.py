"""The README's examples run as printed."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np
from conftest import spike_instance

from stsad.baselines import solve_horpca, solve_loss
from stsad.cli import main
from stsad.config import _SCHEMA
from stsad.logss import LogssParams, solve

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang, after):
    """The first ```lang block that follows the text ``after``."""
    match = re.search(r"```" + lang + r"\n(.*?)```", README[README.index(after):], re.S)
    return match.group(1)


def test_readme_examples_run(tmp_path):
    text = _block("ini", "A minimal config for the synthetic path")
    text, n = re.subn(r"(?m)^output_dir = .*$", f"output_dir = {tmp_path / 'out'}", text)
    assert n == 1
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(text)
    assert main(["synth", "--config", str(cfg)]) == 0

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(_block("python", "## Library quickstart"), {})
    assert 0.5 < float(stdout.getvalue()) <= 1.0


def test_readme_names_every_config_key():
    missing = [key for key in _SCHEMA if not re.search(rf"\b{key}\b", README)]
    assert missing == []


def test_readme_lists_the_diagnostics_keys_of_every_solver():
    text = README[README.index("- **Diagnostics**"):]
    listed = re.findall(r"`(\w+)`", text[:text.index(". ")])
    Y, graphs, _, _ = spike_instance()
    observed = np.ones(Y.shape, dtype=bool)
    params = LogssParams.defaults(Y, observed, max_iter=2, tol=0.0)
    for result in (solve(Y, observed, graphs, params), solve_loss(Y, observed, params),
                   solve_horpca(Y, observed, params)):
        assert list(result.diagnostics_rows()[0]) == listed
