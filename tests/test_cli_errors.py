"""CLI regression tests: bad input exits non-zero with a clean error.

Every failure mode must surface as ``error: ...`` on stderr and exit code 2
— never a traceback — including the paths added with the executor layer
(``--jobs``, ``--resume``) and non-finite or repeated grid values.
"""

import json

import pytest

from repro.__main__ import main


def _run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


def test_sweep_unknown_system_is_a_clean_error(capsys):
    code, err = _run(["sweep", "--system", "nope", "--rates", "0", "--runs", "1"], capsys)
    assert code == 2
    assert "unknown system" in err and "Traceback" not in err


def test_sweep_unknown_system_in_comma_list_with_jobs(capsys):
    # Validation happens before any worker process is spawned.
    argv = ["sweep", "--system", "frodo3,nope", "--rates", "0", "--runs", "1", "--jobs", "2"]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "unknown system" in err and "Traceback" not in err


def test_run_unknown_system_is_a_clean_error(capsys):
    code, err = _run(["run", "--system", "nope"], capsys)
    assert code == 2
    assert "unknown system" in err


def test_sweep_invalid_jobs_is_a_clean_error(capsys):
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--runs", "1", "--jobs", "0"]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "jobs" in err and "Traceback" not in err


def test_sweep_resume_spec_mismatch_is_a_clean_error(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    base = ["--rates", "0", "--runs", "1", "--resume", str(ck), "--out", str(tmp_path / "o.json")]
    assert main(["sweep", "--system", "frodo3"] + base) == 0
    capsys.readouterr()
    code, err = _run(["sweep", "--system", "upnp"] + base, capsys)
    assert code == 2
    assert "different sweep spec" in err and "Traceback" not in err


def test_sweep_resume_corrupt_checkpoint_is_a_clean_error(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    ck.write_text("{broken")
    argv = ["sweep", "--system", "frodo3", "--rates", "0", "--runs", "1", "--resume", str(ck)]
    code, err = _run(argv, capsys)
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--system", "frodo3", "--deadline", "inf"], "deadline must be finite"),
        (["run", "--system", "frodo3", "--deadline", "nan"], "deadline must be finite"),
        (["run", "--system", "frodo3", "--change-time", "nan"], "change_time must be positive"),
        (["run", "--system", "frodo3", "--change-time", "inf"], "change_time must be positive"),
        (["profile", "--system", "frodo3", "--deadline", "inf"], "deadline must be finite"),
        (["sweep", "--system", "frodo3", "--runs", "1", "--cell-timeout", "nan"], "cell_timeout"),
        (["sweep", "--system", "frodo3", "--runs", "1", "--cell-timeout", "inf"], "cell_timeout"),
        (["run", "--system", "jini@ttl=nan"], "not a finite number"),
        (["run", "--system", "frodo3", "--scenario", "partition@start=nan"], "not a finite"),
        (["run", "--system", "frodo3", "--scenario", "churn@rate=-inf"], "not a finite"),
    ],
)
def test_non_finite_numbers_are_clean_errors(argv, message, tmp_path, capsys):
    # Before validation covered them, --deadline inf/nan ran forever and
    # --change-time nan wrote a NaN (invalid JSON) into the output.
    out = tmp_path / "out.json"
    code, err = _run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--system", "frodo3", "--rates", "0,0"], "duplicate failure rates"),
        (["--system", "frodo3", "--rates", "10,10.0"], "duplicate failure rates"),
        (["--system", "frodo3,frodo3"], "duplicate systems"),
        (["--system", "jini@k=2,mode=gossip", "--system", "jini@mode=gossip,k=2"], "duplicate"),
    ],
)
def test_duplicate_grid_values_are_clean_errors(grid, message, capsys):
    # Each repeat would run the same cells twice under one checkpoint key.
    code, err = _run(["sweep", "--runs", "1"] + grid, capsys)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_sweep_out_still_written_when_resume_used(tmp_path):
    out = tmp_path / "out.json"
    ck = tmp_path / "ck.json"
    argv = [
        "sweep",
        "--system",
        "frodo3",
        "--rates",
        "0",
        "--runs",
        "1",
        "--resume",
        str(ck),
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    assert json.loads(out.read_text())["summaries"][0]["system"] == "frodo3"
