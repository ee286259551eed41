import sys
from pathlib import Path

# the benchmark's modules and the checkout's sources, as run.py sees them
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
