"""``tools/differential.py`` compares the ``validate`` answers of two trees."""

import shutil
import subprocess
import sys

from conftest import ROOT


def differential(parent, change, seed: int, count: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"), str(parent), str(change),
         "--seed", str(seed), "--count", str(count)],
        capture_output=True, text=True, timeout=60)


def test_same_tree_moves_no_answer():
    src = ROOT / "src"
    proc = differential(src, src, seed=1, count=3)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 of 3 answers moved\n", "")


def test_a_moved_answer_is_printed_and_fails(tmp_path):
    # a tree whose validate exits 5 on a config it accepts: seed 1 draws one such
    # config, 0, then a p0_norm past the conversion law's bound in config 1 and a
    # field stop past i_star_narrow in config 2
    shutil.copytree(ROOT / "src" / "metaring", tmp_path / "metaring",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "metaring" / "cli.py"
    accept = "return 2 if violations else 0"
    assert accept in cli.read_text()
    cli.write_text(cli.read_text().replace(accept, "return 2 if violations else 5"))
    proc = differential(ROOT / "src", tmp_path, seed=1, count=3)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith('config 0 {"device.microloop.width_ratio": ')
    assert lines[1:3] == ["  parent: exit 0", "  change: exit 5"]
    assert lines[-1] == "1 of 3 answers moved; exit 0 -> 5: 1"
