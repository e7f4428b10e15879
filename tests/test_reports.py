"""Golden CLI reports: each README command at seeds 0, 1 and 7, byte for byte.

tests/reports/<command>-seed<seed>.json holds the exact report text. The
verify command reads the certificate that certify-proper writes at the
same seed. To rewrite the files from the current code, run

    python tests/test_reports.py --record
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from cnull.cli import run  # noqa: E402

FIXTURES = ROOT / "fixtures"
REPORTS = Path(__file__).resolve().parent / "reports"
SEEDS = (0, 1, 7)
CERT = "<cert>"

# README.md command lines, by report name; bare words are fixtures/<word>.json
COMMANDS = {
    "certify-proper": "certify --variety cusp --f fx --g gyx",
    "geomdeg": "geomdeg --variety graph_cubic --f proj23",
    "charpoly-oracle": "charpoly --variety cusp --f fx --g gyx --oracle",
    "check-bounds": "check-bounds --variety cusp --f fx --g gyx",
    "ploski": "ploski --variety cusp --f fx --g gyx",
    "certify-general": "certify --variety graph_cubic --f proj23 --g g_sq_minus1",
    "certify-strictly-regular": "certify --variety plane2 --f f_x1sq --g g_x1 --L form_x2 --cycle cycle_axis",
    "cycle": "cycle --variety plane2 --f f_x1sq --components cycle_axis --L form_x2",
    "verify": f"verify --variety cusp --f fx --g gyx --cert {CERT}",
    "gradexp": "gradexp --poly sum_squares",
}


def _argv(command: str, seed: int, cert_path: str) -> list[str]:
    words = command.split()
    argv = [words[0]]
    for word in words[1:]:
        if word == CERT:
            argv.append(cert_path)
        elif word.startswith("--"):
            argv.append(word)
        else:
            argv.append(str(FIXTURES / f"{word}.json"))
    return argv + ["--seed", str(seed)]


def _report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(argv)
    return out.getvalue()


def reports_at(seed: int) -> dict[str, str]:
    """Report text of every README command at the seed."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cert_path = os.path.join(tmp, "cert.json")
        for name, command in COMMANDS.items():
            out[name] = _report(_argv(command, seed, cert_path))
            if name == "certify-proper":
                cert = json.loads(out[name])["result"]["certificate"]
                Path(cert_path).write_text(json.dumps(cert), encoding="utf-8")
    return out


def _path(name: str, seed: int) -> Path:
    return REPORTS / f"{name}-seed{seed}.json"


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_recorded(seed, monkeypatch):
    monkeypatch.delenv("CNULL_PREC", raising=False)
    for name, text in reports_at(seed).items():
        assert text == _path(name, seed).read_text(encoding="utf-8"), f"{name} at seed {seed}"


def record() -> None:
    os.environ.pop("CNULL_PREC", None)
    REPORTS.mkdir(exist_ok=True)
    for seed in SEEDS:
        for name, text in reports_at(seed).items():
            _path(name, seed).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_reports.py --record")
    record()
