"""Child process whose start-to-ready time is the benchmark's ``setup_s``.

It does what every ``goldenslant run`` does before running suites: import
goldenslant, resolve each config source like the CLI does, and load it.
Then it prints ``ready``, and then the seconds one calibration takes in this
process, for the parent to rescale the setup time with.  Usage:
``setup_probe.py SOURCE...`` with goldenslant importable (the benchmark
sets ``PYTHONPATH``).
"""

import sys

from goldenslant import load_config
from goldenslant.cli import resolve_config

for source in sys.argv[1:]:
    load_config(resolve_config(source))
print("ready", flush=True)

from calib import calibration  # noqa: E402  (this script's directory is on sys.path)

calibration()  # the first call pays one-off numpy and Fraction costs
print(calibration(), flush=True)
