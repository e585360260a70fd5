"""The scan scripts in scripts/ run end to end at N = 2."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, argv, expect",
    [
        ("run_identity_suites.py", ["--trials", "1"], "sos.commutation_dtb"),
        ("run_bethe_scan.py", ["--n", "2"], "measured identity shift kappa"),
        ("run_partition_scan.py", ["--nmax", "2"], "property suite (bminus)"),
    ],
)
def test_script_main_runs(name, argv, expect, capsys):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    main(argv)
    assert expect in capsys.readouterr().out
