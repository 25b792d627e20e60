"""Shared test set-up: a reproducible hypothesis profile when CI is set.

GitHub Actions sets CI, so a property test that fails there draws the same
examples on a rerun anywhere with CI set, and prints the blob that replays
the failing example.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
