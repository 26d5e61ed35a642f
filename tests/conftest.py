import sys
from pathlib import Path

from hypothesis import settings

# make the sibling oracle helpers importable regardless of how pytest is run
sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, and none fails for
# being slow on a loaded host.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
