"""scipy is a declared dependency but stays out of ``import repro``.

Only the UWB pulse-shape and energy-detector models use it, and they
import it on first call, so a cold ``import repro`` (every CLI command,
queue worker and server start) does not pay for loading scipy.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.strip()


def test_import_repro_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "import repro, repro.api, repro.uwb, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _python(code) == "[]"


def test_uwb_models_load_scipy_on_first_use():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.uwb import detection_probability, gaussian_derivative\n"
        "assert 'scipy' not in sys.modules\n"
        "gaussian_derivative(np.linspace(-1e-9, 1e-9, 11), 1e-10)\n"
        "detection_probability(10.0)\n"
        "print('scipy' in sys.modules)"
    )
    assert _python(code) == "True"
