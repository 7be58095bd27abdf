"""Command-line behaviour and exit codes."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from cubecensus.cli import main

T3_FILE = "+x -x r0\n+y -y r0\n+z -z r0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_t3(tmp_path, capsys):
    path = tmp_path / "t3.txt"
    path.write_text(T3_FILE)
    code, out, _ = run_cli(capsys, "classify", "--input", str(path))
    assert code == 0
    assert "orientable: True" in out
    assert "h1: Z^3" in out


def test_classify_records_format(tmp_path, capsys):
    path = tmp_path / "t3.txt"
    path.write_text(T3_FILE)
    code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--format", "records")
    assert code == 0
    record = json.loads(out)
    assert record["record"] == "class"
    assert record["h1"] == "Z^3"


def test_classify_duplicate_face_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("+x -x r0\n+x -y r0\n+z -z r0\n")
    code, _, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 1
    assert "line 2" in err


def test_classify_self_glued_face_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("+x +x r0\n+y -y r0\n+z -z r0\n")
    code, _, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 1
    assert "line 1" in err and "a face cannot be glued to itself" in err


def test_classify_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "classify", "--input", "/nonexistent/path.txt")
    assert code == 1
    assert "cannot read" in err


def test_classify_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff+x -x r0\n")
    code, _, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 1
    assert f"cannot read {path}: " in err


def test_classify_requires_input(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["classify"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--input", "unread.txt", "--jobs", "2"],
    ["enumerate", "--jobs", "2"],
    ["census", "--jobs", "2"],
    ["verify", "--jobs", "2"],
    ["verify", "--format", "records"],
])
def test_options_a_command_ignores_are_rejected(capsys, argv):
    # parsing fails before any input is read or any census runs
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--opposite-only")
    assert code == 0
    lines = [l for l in out.splitlines() if " | orbit " in l]
    assert len(lines) == 56
    assert out.strip().endswith("total: 56 classes")


def test_enumerate_records(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--opposite-only", "--format", "records")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 56
    assert sum(r["orbitSize"] for r in records) == 512


def test_blocks_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "blocks-selftest")
    assert code == 0
    assert out.count("[PASS]") == 4
    assert "[FAIL]" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "11720fcb213e6a7e13370c3c458124f96bac1c60d388a117e019a1fe6a2dd29c")


def test_verify_rejects_opposite_only(capsys):
    # argparse rejects the flag, so the parser exits rather than returns
    with pytest.raises(SystemExit) as excinfo:
        run_cli(capsys, "verify", "--opposite-only")
    code, err = excinfo.value.code, capsys.readouterr().err
    assert code == 1
    assert "unrecognized arguments: --opposite-only" in err


def test_census_records_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "census", "--opposite-only", "--format", "records")
    code2, out2, _ = run_cli(capsys, "census", "--opposite-only", "--format", "records")
    assert code1 == code2 == 0
    assert out1 == out2


def test_census_records_do_not_depend_on_the_hash_seed():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-m", "cubecensus.cli", "census", "--format", "records"],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cubecensus.cli", "blocks-selftest"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


def test_cli_import_starts_no_process_machinery():
    # the census runs in one process, so start-up need not load a pool
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cubecensus.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [m for m in proc.stdout.split()
              if m.split(".")[0] in ("multiprocessing", "concurrent")]
    assert loaded == []


@pytest.mark.parametrize("command", ["enumerate", "classify", "census", "verify",
                                     "blocks-selftest"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, command):
    # `cubecensus enumerate | head -1`, made deterministic: the read end of
    # the pipe is closed before the command starts
    argv = [sys.executable, "-m", "cubecensus.cli", command]
    if command == "classify":
        path = tmp_path / "t3.txt"
        path.write_text(T3_FILE)
        argv += ["--input", str(path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_verify_exit_code_reflects_verification(full_census, capsys):
    # the full verification currently fails honestly on check (a): the
    # census contains non-orientable manifolds beyond the four flat ones
    from cubecensus.census import verify_theorem

    expected = 0 if verify_theorem(full_census).passed else 2
    code, out, _ = run_cli(capsys, "verify")
    assert code == expected
    assert "verification" in out
