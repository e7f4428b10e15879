"""Golden CLI reports: each README command at seeds 0, 1 and 7, byte for byte,
and one result per seed-free command at seeds 0-4.

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

# README.md command lines, by report name; a word that names a fixture stands for
# fixtures/<word>.json, and other words (options, numbers) pass as they are
COMMANDS = {
    "certify-proper": "certify --variety cusp --f fx --g gyx",
    "geomdeg": "geomdeg --variety graph_cubic --f proj23",
    "charpoly-oracle": "charpoly --variety cusp --f fx --g gyx --oracle",
    "charpoly-square": "charpoly --variety plane2 --f f_square22 --g g_x1_2x2",
    "charpoly-line": "charpoly --variety cline --f f_line8 --g g_line4",
    "check-bounds": "check-bounds --variety cusp --f fx --g gyx",
    "ploski": "ploski --variety cusp --f fx --g gyx",
    "ploski-violation": "ploski --variety cusp --f fx --g gyx --q 1/10",
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
        elif (FIXTURES / f"{word}.json").is_file():
            argv.append(str(FIXTURES / f"{word}.json"))
        else:
            argv.append(word)
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
def test_reports_match_recorded(seed):
    for name, text in reports_at(seed).items():
        assert text == _path(name, seed).read_text(encoding="utf-8"), f"{name} at seed {seed}"


# README commands whose results hold sampled floats: gradexp's shell maxima, and the growth
# check's maxima and witness at q = 1/10; every other result is exact
SEED_DEPENDENT = {"gradexp", "ploski-violation"}


def test_seed_free_results_do_not_depend_on_the_seed():
    results = {}
    for seed in range(5):
        for name, text in reports_at(seed).items():
            if name not in SEED_DEPENDENT:
                results.setdefault(name, set()).add(json.dumps(json.loads(text)["result"], sort_keys=True))
    assert len(results) == len(COMMANDS) - len(SEED_DEPENDENT) == 11
    assert {name: len(texts) for name, texts in results.items()} == dict.fromkeys(results, 1)


def record() -> None:
    REPORTS.mkdir(exist_ok=True)
    for seed in SEEDS:
        for name, text in reports_at(seed).items():
            _path(name, seed).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_reports.py --record")
    record()
