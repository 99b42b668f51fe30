"""The runtime-only install: ``pyproject.toml`` declares no dependencies.

numpy is used only by the policy-gradient trainer (``repro.training.rl``).
Each test runs in a fresh interpreter, because the test process itself has
numpy loaded; ``sys.modules["numpy"] = None`` makes any import of it fail
exactly as it would on an install without numpy.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

NO_NUMPY = 'import sys; sys.modules["numpy"] = None\n'

TINY_TRAIN = ["train", "--workload", "micro", "--iterations", "1",
              "--population", "2", "--children", "1",
              "--fitness-duration", "300", "--workers", "2",
              "--duration", "400", "--warmup", "0"]


def run_python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli_without_numpy(argv, cwd):
    return run_python(
        NO_NUMPY + "from repro.cli import main\n"
        f"sys.exit(main({argv!r}))\n", cwd)


def test_package_imports_do_not_import_numpy(tmp_path):
    proc = run_python(
        "import sys\n"
        "import repro, repro.cli, repro.training, repro.training.ea\n"
        "print('numpy' in sys.modules)\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_ea_training_runs_without_numpy(tmp_path):
    policy = tmp_path / "p.json"
    proc = run_cli_without_numpy(
        TINY_TRAIN + ["--trainer", "ea", "--policy-out", str(policy),
                      "--backoff-out", str(tmp_path / "b.json")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert policy.exists()


def test_rl_training_without_numpy_is_a_one_line_error(tmp_path):
    proc = run_cli_without_numpy(
        TINY_TRAIN + ["--trainer", "rl",
                      "--policy-out", str(tmp_path / "p.json")], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "numpy" in lines[0]
